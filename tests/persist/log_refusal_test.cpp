#include "log_refusal_suite.hpp"

#include "persist/journal.hpp"

namespace aio::persist::testing {
namespace {

Bytes campaignJournal() {
    MemorySink sink;
    CampaignJournal journal{sink};
    CampaignHeader header;
    header.planDigest = 0x1122334455667788ULL;
    header.configDigest = 0x99AABBCCDDEEFF00ULL;
    header.initialRngState = {1, 2, 3, 4};
    header.taskCount = 40;
    header.probeCount = 8;
    header.checkpointInterval = 4;
    journal.writeHeader(header);
    TaskOutcomeRecord outcome;
    outcome.taskIdx = 3;
    outcome.kind = TaskOutcomeKind::Retried;
    outcome.faultClass = 1;
    outcome.clockHour = 0.75;
    journal.appendOutcome(outcome);
    return {sink.bytes().begin(), sink.bytes().end()};
}

INSTANTIATE_TEST_SUITE_P(
    Logs, LogRefusal,
    ::testing::Values(RefusalCase{
        "CampaignJournal", 3, campaignJournal,
        [](std::span<const std::byte> bytes) {
            (void)CampaignJournal::replay(bytes);
        },
        // Nothing was durably started: resume begins from scratch.
        [](std::span<const std::byte> bytes) {
            const auto replay = CampaignJournal::replay(bytes);
            EXPECT_FALSE(replay.header.has_value());
            EXPECT_FALSE(replay.checkpoint.has_value());
            EXPECT_EQ(replay.outcomeRecords, 0U);
        }}),
    refusalCaseName);

} // namespace
} // namespace aio::persist::testing
