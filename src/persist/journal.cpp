#include "persist/journal.hpp"

#include <string>

namespace aio::persist {

namespace {

constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint8_t kOutcomeRecord = 2;
constexpr std::uint8_t kCheckpointRecord = 3;

void encodeHeader(ByteWriter& w, const CampaignHeader& header) {
    w.u8(kHeaderRecord);
    w.u32(kFormatVersion);
    w.u64(header.planDigest);
    w.u64(header.configDigest);
    for (const std::uint64_t word : header.initialRngState) {
        w.u64(word);
    }
    w.u64(header.taskCount);
    w.u64(header.probeCount);
    w.u32(header.checkpointInterval);
    w.u64(header.resumedAtOutcome);
}

CampaignHeader decodeHeader(ByteReader& r) {
    CampaignHeader header;
    header.planDigest = r.u64();
    header.configDigest = r.u64();
    for (std::uint64_t& word : header.initialRngState) {
        word = r.u64();
    }
    header.taskCount = r.u64();
    header.probeCount = r.u64();
    header.checkpointInterval = r.u32();
    header.resumedAtOutcome = r.u64();
    r.expectEnd("journal header");
    return header;
}

void encodeOutcome(ByteWriter& w, const TaskOutcomeRecord& outcome) {
    w.u8(kOutcomeRecord);
    w.u64(outcome.taskIdx);
    w.u8(static_cast<std::uint8_t>(outcome.kind));
    w.u8(outcome.faultClass);
    w.f64(outcome.clockHour);
}

TaskOutcomeRecord decodeOutcome(ByteReader& r) {
    TaskOutcomeRecord outcome;
    outcome.taskIdx = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(TaskOutcomeKind::Abandoned)) {
        throw net::CorruptionError{"unknown task outcome kind " +
                                   std::to_string(kind)};
    }
    outcome.kind = static_cast<TaskOutcomeKind>(kind);
    outcome.faultClass = r.u8();
    outcome.clockHour = r.f64();
    r.expectEnd("journal outcome record");
    return outcome;
}

void encodeResult(ByteWriter& w, const core::CampaignResult& result) {
    w.u64(result.ixpsDetected.size());
    for (const topo::IxpIndex ix : result.ixpsDetected) {
        w.u64(ix);
    }
    w.u64(result.asesObserved.size());
    for (const topo::AsIndex as : result.asesObserved) {
        w.u64(as);
    }
    w.i32(result.tracesLaunched);
    w.i32(result.tracesCompleted);
    const core::DegradationReport& rep = result.degradation;
    w.i32(rep.tasksPlanned);
    w.i32(rep.attempts);
    w.i32(rep.retries);
    w.i32(rep.reassigned);
    w.i32(rep.abandoned);
    w.i32(rep.completed);
    w.i32(rep.transientTimeouts);
    w.i32(rep.probesExhausted);
    w.f64(rep.completionRatio);
    w.f64(rep.coverageVsOracle);
    w.u64(rep.lossByFaultClass.size());
    for (const auto& [name, count] : rep.lossByFaultClass) {
        w.str(name);
        w.i32(count);
    }
}

core::CampaignResult decodeResult(ByteReader& r) {
    core::CampaignResult result;
    const std::uint64_t ixps = r.u64();
    for (std::uint64_t i = 0; i < ixps; ++i) {
        result.ixpsDetected.insert(result.ixpsDetected.end(),
                                   static_cast<topo::IxpIndex>(r.u64()));
    }
    const std::uint64_t ases = r.u64();
    for (std::uint64_t i = 0; i < ases; ++i) {
        result.asesObserved.insert(result.asesObserved.end(),
                                   static_cast<topo::AsIndex>(r.u64()));
    }
    result.tracesLaunched = r.i32();
    result.tracesCompleted = r.i32();
    core::DegradationReport& rep = result.degradation;
    rep.tasksPlanned = r.i32();
    rep.attempts = r.i32();
    rep.retries = r.i32();
    rep.reassigned = r.i32();
    rep.abandoned = r.i32();
    rep.completed = r.i32();
    rep.transientTimeouts = r.i32();
    rep.probesExhausted = r.i32();
    rep.completionRatio = r.f64();
    rep.coverageVsOracle = r.f64();
    const std::uint64_t losses = r.u64();
    for (std::uint64_t i = 0; i < losses; ++i) {
        std::string name = r.str();
        const std::int32_t count = r.i32();
        rep.lossByFaultClass.emplace(std::move(name), count);
    }
    return result;
}

void encodeCheckpoint(ByteWriter& w, const CampaignCheckpoint& cp) {
    w.u8(kCheckpointRecord);
    w.u64(cp.outcomesApplied);
    w.u64(cp.nextSeq);
    for (const std::uint64_t word : cp.rngState) {
        w.u64(word);
    }
    encodeResult(w, cp.result);
    w.u64(cp.assignments.size());
    for (const TaskAssignment& a : cp.assignments) {
        w.u64(a.probeIndex);
        w.u64(a.srcAs);
    }
    w.u64(cp.pending.size());
    for (const PendingTask& p : cp.pending) {
        w.f64(p.readyHour);
        w.u64(p.seq);
        w.u64(p.taskIdx);
        w.i32(p.attempt);
        w.i32(p.reassignments);
    }
    w.u64(cp.meters.size());
    for (const ProbeMeterState& m : cp.meters) {
        w.f64(m.peakMb);
        w.f64(m.offPeakMb);
        w.boolean(m.exhausted);
    }
}

CampaignCheckpoint decodeCheckpoint(ByteReader& r) {
    CampaignCheckpoint cp;
    cp.outcomesApplied = r.u64();
    cp.nextSeq = r.u64();
    for (std::uint64_t& word : cp.rngState) {
        word = r.u64();
    }
    cp.result = decodeResult(r);
    const std::uint64_t assignments = r.u64();
    cp.assignments.reserve(assignments);
    for (std::uint64_t i = 0; i < assignments; ++i) {
        TaskAssignment a;
        a.probeIndex = r.u64();
        a.srcAs = r.u64();
        cp.assignments.push_back(a);
    }
    const std::uint64_t pending = r.u64();
    cp.pending.reserve(pending);
    for (std::uint64_t i = 0; i < pending; ++i) {
        PendingTask p;
        p.readyHour = r.f64();
        p.seq = r.u64();
        p.taskIdx = r.u64();
        p.attempt = r.i32();
        p.reassignments = r.i32();
        cp.pending.push_back(p);
    }
    const std::uint64_t meters = r.u64();
    cp.meters.reserve(meters);
    for (std::uint64_t i = 0; i < meters; ++i) {
        ProbeMeterState m;
        m.peakMb = r.f64();
        m.offPeakMb = r.f64();
        m.exhausted = r.boolean();
        cp.meters.push_back(m);
    }
    r.expectEnd("journal checkpoint record");
    return cp;
}

} // namespace

void CampaignJournal::writeHeader(const CampaignHeader& header) {
    AIO_EXPECTS(!headerWritten_, "journal header already written");
    ByteWriter w;
    encodeHeader(w, header);
    log_.append(w.bytes());
    flushes_.add();
    headerWritten_ = true;
}

void CampaignJournal::appendOutcome(const TaskOutcomeRecord& outcome) {
    AIO_EXPECTS(headerWritten_, "journal needs a header before records");
    ByteWriter w;
    encodeOutcome(w, outcome);
    log_.append(w.bytes());
    flushes_.add();
}

void CampaignJournal::appendCheckpoint(const CampaignCheckpoint& checkpoint) {
    AIO_EXPECTS(headerWritten_, "journal needs a header before records");
    const obs::ScopedTimer timer{metrics_, "journal.checkpoint_seconds"};
    ByteWriter w;
    encodeCheckpoint(w, checkpoint);
    log_.append(w.bytes());
    flushes_.add();
    if (metrics_ != nullptr) {
        metrics_->counter("journal.checkpoints").add();
    }
}

CampaignJournal::Replay
CampaignJournal::replay(std::span<const std::byte> bytes,
                        obs::MetricsRegistry* metrics) {
    const obs::ScopedTimer timer{metrics, "journal.replay_seconds"};
    Replay out;
    LogReader reader{bytes, "journal", kFormatVersion, kCheckpointRecord};
    if (auto& header = reader.header()) {
        out.header = decodeHeader(*header);
    }
    while (auto record = reader.next()) {
        if (record->type == kOutcomeRecord) {
            (void)decodeOutcome(record->body);
            ++out.outcomeRecords;
            continue;
        }
        CampaignCheckpoint cp = decodeCheckpoint(record->body);
        // Write-ahead invariant: a checkpoint's cursor must equal the
        // journal's starting cursor plus the outcome records actually
        // present before it. A mismatch means records were dropped,
        // duplicated or spliced — resuming would replay the wrong
        // suffix, so refuse.
        const std::uint64_t expected =
            out.header->resumedAtOutcome + out.outcomeRecords;
        if (cp.outcomesApplied != expected) {
            throw net::CorruptionError{
                "checkpoint cursor " + std::to_string(cp.outcomesApplied) +
                " contradicts the " + std::to_string(expected) +
                " settlements journaled before it"};
        }
        out.checkpoint = std::move(cp);
    }
    out.tornTail = reader.tornTail();
    if (metrics != nullptr) {
        metrics->counter("journal.replay.records")
            .add(out.outcomeRecords);
        metrics->counter("journal.replay.checkpoints")
            .add(out.checkpoint ? 1 : 0);
        metrics->counter("journal.replay.torn_tails")
            .add(out.tornTail ? 1 : 0);
        metrics->counter("journal.replays").add();
    }
    return out;
}

} // namespace aio::persist
