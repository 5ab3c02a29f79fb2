#include "service/epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "netbase/error.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

// Epoch lifecycle: publish/pin/reclaim bookkeeping single-threaded, then
// the concurrency contract — 8 readers pinning across 100+ swaps never
// observe a snapshot dying under them and never see a digest that
// disagrees with the epoch they pinned (the torn-read check). The
// threaded test is the TSan soak target in CI.
namespace aio::service {
namespace {

using testutil::tinySnapshot;

TEST(EpochRegistry, PinBeforeAnyPublishThrows) {
    EpochRegistry registry;
    EXPECT_EQ(registry.currentEpoch(), 0u);
    EXPECT_EQ(registry.liveEpochs(), 0u);
    EXPECT_THROW((void)registry.pin(), net::PreconditionError);
}

TEST(EpochRegistry, RetiredEpochSurvivesUntilPinsDrain) {
    obs::MetricsRegistry metrics;
    EpochRegistry registry{&metrics};
    const auto first = tinySnapshot(11);
    const auto second = tinySnapshot(12);

    EXPECT_EQ(registry.publish(first), 1u);
    EXPECT_EQ(registry.liveEpochs(), 1u);
    {
        const PinnedSnapshot pinned = registry.pin();
        EXPECT_EQ(pinned.epoch(), 1u);
        EXPECT_EQ(&*pinned, first.get());

        // Swap while epoch 1 is pinned: both epochs stay resident.
        EXPECT_EQ(registry.publish(second), 2u);
        EXPECT_EQ(registry.currentEpoch(), 2u);
        EXPECT_EQ(registry.liveEpochs(), 2u);
        EXPECT_EQ(registry.reclaimed(), 0u);
        EXPECT_EQ(registry.residentBytes(),
                  first->residentBytes() + second->residentBytes());

        // The pinned reader still sees its own epoch, not the new one.
        EXPECT_EQ(pinned->digest(), first->digest());
    }
    // The pin drained: epoch 1 is reclaimed, only the current survives.
    EXPECT_EQ(registry.liveEpochs(), 1u);
    EXPECT_EQ(registry.reclaimed(), 1u);
    EXPECT_EQ(metrics.counter("service.epochs_reclaimed").value(), 1u);
}

TEST(EpochRegistry, UnpinnedPreviousEpochReclaimsAtPublish) {
    EpochRegistry registry;
    (void)registry.publish(tinySnapshot(11));
    (void)registry.publish(tinySnapshot(12));
    EXPECT_EQ(registry.liveEpochs(), 1u);
    EXPECT_EQ(registry.reclaimed(), 1u);
}

TEST(EpochRegistry, CurrentEpochNeverReclaimsOnUnpin) {
    EpochRegistry registry;
    (void)registry.publish(tinySnapshot(11));
    { const PinnedSnapshot pinned = registry.pin(); }
    EXPECT_EQ(registry.liveEpochs(), 1u);
    EXPECT_EQ(registry.reclaimed(), 0u);
    EXPECT_NO_THROW((void)registry.pin());
}

TEST(EpochRegistry, MovedPinReleasesExactlyOnce) {
    EpochRegistry registry;
    (void)registry.publish(tinySnapshot(11));
    (void)registry.publish(tinySnapshot(12));
    {
        PinnedSnapshot pinned = registry.pin();
        PinnedSnapshot moved = std::move(pinned);
        EXPECT_EQ(moved.epoch(), 2u);
        (void)registry.publish(tinySnapshot(13));
        EXPECT_EQ(registry.liveEpochs(), 2u); // moved pin holds epoch 2
    }
    EXPECT_EQ(registry.liveEpochs(), 1u);
}

// The concurrency contract, sized for TSan: 8 readers continuously pin
// the current epoch and verify the pinned snapshot's digest matches the
// digest recorded for that epoch at publish time, while the writer does
// 100+ swaps across a 3-snapshot rotation. A torn read (snapshot freed
// or swapped mid-read) would show up as a digest mismatch or a TSan
// race report.
TEST(EpochRegistry, ConcurrentReadersAcrossSwapsSeeConsistentEpochs) {
    constexpr std::size_t kReaders = 8;
    constexpr std::size_t kSwaps = 100;

    std::vector<std::shared_ptr<const ServiceSnapshot>> rotation;
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        rotation.push_back(tinySnapshot(seed));
    }

    EpochRegistry registry;
    // Epoch e serves rotation[(e - 1) % 3]; readers re-derive the
    // expected digest from the epoch number alone.
    const auto expectedDigest = [&](std::uint64_t epoch) {
        return rotation[static_cast<std::size_t>((epoch - 1)) %
                        rotation.size()]
            ->digest();
    };
    (void)registry.publish(rotation[0]);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> pinnedReaders{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> tornReads{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            bool first = true;
            while (!stop.load(std::memory_order_relaxed)) {
                const PinnedSnapshot pinned = registry.pin();
                if (first) {
                    pinnedReaders.fetch_add(1);
                    first = false;
                }
                const auto digest = pinned->digest();
                // Touch the substrate too: a reclaimed snapshot would
                // crash or race here.
                const bool alive =
                    pinned->substrate().analyzer().baselineOracle() !=
                    nullptr;
                if (!alive || digest != expectedDigest(pinned.epoch())) {
                    tornReads.fetch_add(1, std::memory_order_relaxed);
                }
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Swap only once every reader holds a pin: otherwise the writer can
    // finish all its swaps before any reader thread is scheduled.
    while (pinnedReaders.load() < kReaders) {
        std::this_thread::yield();
    }
    for (std::size_t swap = 1; swap <= kSwaps; ++swap) {
        (void)registry.publish(rotation[swap % rotation.size()]);
        std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& reader : readers) {
        reader.join();
    }

    EXPECT_EQ(tornReads.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(registry.currentEpoch(), kSwaps + 1);
    // Every retired epoch's pins drained with the readers gone.
    EXPECT_EQ(registry.liveEpochs(), 1u);
    EXPECT_EQ(registry.reclaimed(), kSwaps);
}

} // namespace
} // namespace aio::service
