#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "netbase/error.hpp"
#include "persist/record.hpp"

// Refusal pins shared by the header-first logs: the campaign journal,
// the event log and the stream consumer's checkpoint journal. Each log
// reads, through its public reader, a copy of its own writer's output
// with one structural defect, and must refuse it with
// net::CorruptionError. A header record cut short is the crash
// signature instead; each log states its own answer to it.
//
// The suite's tests live here and each test binary instantiates them
// over the logs it links, so every log meets the same inputs.
namespace aio::persist::testing {

using Bytes = std::vector<std::byte>;

/// One header-first log under test. Record 0 of its output is
/// [u8 1][u32 version]...; body records are typed 2..lastType.
struct RefusalCase {
    std::string name;
    std::uint8_t lastType = 0;
    /// The log's own writer's output: a header record, then at least
    /// one body record.
    std::function<Bytes()> sample;
    /// Reads `bytes` through the log's public reader.
    std::function<void(std::span<const std::byte>)> read;
    /// Checks the log's outcome for a journal whose header record was
    /// cut short.
    std::function<void(std::span<const std::byte>)> expectCutHeader;
};

inline void PrintTo(const RefusalCase& log, std::ostream* out) {
    *out << log.name;
}

inline std::string refusalCaseName(
    const ::testing::TestParamInfo<RefusalCase>& info) {
    return info.param.name;
}

/// `payloads`, framed as consecutive records.
inline Bytes framed(std::initializer_list<Bytes> payloads) {
    MemorySink sink;
    RecordWriter writer{sink};
    for (const Bytes& payload : payloads) {
        (void)writer.append(payload);
    }
    return {sink.bytes().begin(), sink.bytes().end()};
}

class LogRefusal : public ::testing::TestWithParam<RefusalCase> {
protected:
    void SetUp() override {
        const Bytes sample = GetParam().sample();
        RecordReader reader{sample};
        const auto header = reader.next();
        const auto body = reader.next();
        ASSERT_TRUE(header.has_value() && body.has_value());
        header_.assign(header->begin(), header->end());
        body_.assign(body->begin(), body->end());
        ASSERT_GE(header_.size(), 5U);
        ASSERT_EQ(header_[0], std::byte{1});
        ASSERT_EQ(header_[1], std::byte{1}); // version 1, little-endian
    }

    void expectRefused(const Bytes& bytes) const {
        EXPECT_THROW(GetParam().read(bytes), net::CorruptionError);
    }

    /// The body record retyped as `type`.
    [[nodiscard]] Bytes bodyTyped(std::uint8_t type) const {
        Bytes body = body_;
        body[0] = std::byte{type};
        return body;
    }

    Bytes header_;
    Bytes body_;
};

TEST_P(LogRefusal, SampleReads) {
    EXPECT_NO_THROW(GetParam().read(framed({header_, body_})));
}

TEST_P(LogRefusal, RecordBeforeTheHeader) {
    expectRefused(framed({body_, header_}));
}

TEST_P(LogRefusal, FormatVersionTwo) {
    Bytes header = header_;
    header[1] = std::byte{2};
    expectRefused(framed({header, body_}));
}

TEST_P(LogRefusal, SecondHeader) {
    expectRefused(framed({header_, body_, header_}));
}

TEST_P(LogRefusal, TypeZero) {
    expectRefused(framed({header_, bodyTyped(0)}));
}

TEST_P(LogRefusal, TypePastTheLast) {
    expectRefused(framed(
        {header_, bodyTyped(static_cast<std::uint8_t>(GetParam().lastType +
                                                      1))}));
}

TEST_P(LogRefusal, TrailingByteAfterTheHeader) {
    Bytes header = header_;
    header.push_back(std::byte{0});
    expectRefused(framed({header, body_}));
}

TEST_P(LogRefusal, TrailingByteAfterABodyRecord) {
    Bytes body = body_;
    body.push_back(std::byte{0});
    expectRefused(framed({header_, body}));
}

TEST_P(LogRefusal, HeaderCutAtEveryByte) {
    const Bytes whole = framed({header_, body_});
    const std::size_t headerEnd = framed({header_}).size();
    for (std::size_t cut = 0; cut < headerEnd; ++cut) {
        SCOPED_TRACE(cut);
        GetParam().expectCutHeader(std::span{whole}.first(cut));
    }
}

} // namespace aio::persist::testing
