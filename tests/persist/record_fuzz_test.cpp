#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "persist/record.hpp"
#include "scan_records.hpp"

// Property/fuzz corpus for the record codec: whatever bytes a crashed or
// bit-rotted disk hands back, the reader must never crash and must
// classify the damage — truncation is a torn tail (expected, recoverable),
// any bit flip in intact records is corruption (refuse to resume).
namespace aio::persist {
namespace {

/// A journal of `count` random-sized random-content records.
std::vector<std::byte> randomJournal(net::Rng& rng, int count,
                                     std::vector<std::size_t>* boundaries) {
    MemorySink sink;
    RecordWriter writer{sink};
    for (int i = 0; i < count; ++i) {
        std::vector<std::byte> payload(rng.uniformInt(96));
        for (std::byte& b : payload) {
            b = static_cast<std::byte>(rng.uniformInt(256));
        }
        (void)writer.append(payload);
        if (boundaries != nullptr) {
            boundaries->push_back(
                static_cast<std::size_t>(writer.bytesWritten()));
        }
    }
    const auto bytes = sink.bytes();
    return {bytes.begin(), bytes.end()};
}

/// Scans and reports what happened; a throw of anything other than
/// CorruptionError — or a crash — fails the property.
enum class Outcome { CleanEnd, TornTail, Corrupt };

Outcome classify(std::span<const std::byte> journal) {
    try {
        const ScanResult scan = scanRecords(journal);
        return scan.tail == TailStatus::Torn ? Outcome::TornTail
                                             : Outcome::CleanEnd;
    } catch (const net::CorruptionError&) {
        return Outcome::Corrupt;
    }
}

TEST(RecordFuzz, ZeroLengthFileIsACleanEmptyJournal) {
    EXPECT_EQ(classify({}), Outcome::CleanEnd);
    const ScanResult scan = scanRecords({});
    EXPECT_TRUE(scan.payloads.empty());
}

TEST(RecordFuzz, EveryTruncationIsTornOrClean_NeverCorrupt) {
    net::Rng rng{0xF00D};
    for (int round = 0; round < 8; ++round) {
        std::vector<std::size_t> boundaries;
        const auto journal =
            randomJournal(rng, 1 + static_cast<int>(rng.uniformInt(20)),
                          &boundaries);
        for (std::size_t cut = 0; cut <= journal.size(); ++cut) {
            const Outcome outcome =
                classify(std::span{journal}.first(cut));
            ASSERT_NE(outcome, Outcome::Corrupt)
                << "round " << round << " cut " << cut;
            const bool onBoundary =
                cut == 0 || std::ranges::find(boundaries, cut) !=
                                boundaries.end();
            ASSERT_EQ(outcome,
                      onBoundary ? Outcome::CleanEnd : Outcome::TornTail)
                << "round " << round << " cut " << cut;
        }
    }
}

TEST(RecordFuzz, EverySingleBitFlipIsCorrupt_NeverAccepted) {
    net::Rng rng{0xBEEF};
    const auto journal = randomJournal(rng, 12, nullptr);
    std::vector<std::byte> mutant = journal;
    for (std::size_t byteIdx = 0; byteIdx < journal.size(); ++byteIdx) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[byteIdx] ^= static_cast<std::byte>(1 << bit);
            ASSERT_EQ(classify(mutant), Outcome::Corrupt)
                << "flip at byte " << byteIdx << " bit " << bit;
            mutant[byteIdx] ^= static_cast<std::byte>(1 << bit);
        }
    }
    EXPECT_EQ(mutant, journal); // flips were all undone
}

TEST(RecordFuzz, TruncateThenFlipNeverCrashesAndNeverReadsClean) {
    net::Rng rng{0xCAFE};
    const auto journal = randomJournal(rng, 16, nullptr);
    for (int trial = 0; trial < 4000; ++trial) {
        // Cut strictly inside the journal, then flip a random bit of the
        // retained prefix: result must be torn (flip hit the torn
        // region) or corrupt (flip hit an intact record) — never a clean
        // full read, never a crash.
        const std::size_t cut =
            1 + rng.uniformInt(journal.size() - 1);
        std::vector<std::byte> mutant{journal.begin(),
                                      journal.begin() +
                                          static_cast<std::ptrdiff_t>(cut)};
        const std::size_t byteIdx = rng.uniformInt(cut);
        mutant[byteIdx] ^=
            static_cast<std::byte>(1ULL << rng.uniformInt(8));
        const Outcome outcome = classify(mutant);
        ASSERT_TRUE(outcome == Outcome::TornTail ||
                    outcome == Outcome::Corrupt)
            << "trial " << trial << " cut " << cut << " byte " << byteIdx;
    }
}

TEST(RecordFuzz, RandomGarbageNeverCrashes) {
    net::Rng rng{0xD1CE};
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::byte> garbage(rng.uniformInt(200));
        for (std::byte& b : garbage) {
            b = static_cast<std::byte>(rng.uniformInt(256));
        }
        (void)classify(garbage); // any classification is fine; no crash
    }
}

TEST(RecordFuzz, DuplicatedRecordsStillScanStructurally) {
    // Record framing is content-agnostic: a spliced duplicate is a valid
    // *stream* (semantic rejection is the journal layer's job — see
    // JournalReplay tests).
    net::Rng rng{0xAB1E};
    std::vector<std::size_t> boundaries;
    const auto journal = randomJournal(rng, 6, &boundaries);
    const ScanResult base = scanRecords(journal);

    // Duplicate record 2 (bytes [b1, b2)) after record 4.
    std::vector<std::byte> spliced;
    const auto at = [&](std::size_t i) {
        return journal.begin() + static_cast<std::ptrdiff_t>(i);
    };
    spliced.insert(spliced.end(), journal.begin(), at(boundaries[4]));
    spliced.insert(spliced.end(), at(boundaries[1]), at(boundaries[2]));
    spliced.insert(spliced.end(), at(boundaries[4]), journal.end());

    const ScanResult scan = scanRecords(spliced);
    EXPECT_EQ(scan.tail, TailStatus::Clean);
    ASSERT_EQ(scan.payloads.size(), base.payloads.size() + 1);
}

} // namespace
} // namespace aio::persist
