#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

// The real-thread soak: handler threads, submitter threads (one per
// tenant) and a swap thread all hammer one service under a wall clock.
// What it proves — under TSan in CI — is the concurrency half of the
// acceptance criteria: no deadlocks (the test finishes), no torn reads
// (every Ok response's digest matches the snapshot its epoch named),
// every future resolves with a typed status, meters stay consistent,
// and retired epochs reclaim once readers drain.
//
// Runtime scales with AIO_SOAK_MS (default 300 ms for the ordinary
// suite; CI sets 30000 for the dedicated soak step).
namespace aio::service {
namespace {

using testutil::cableCuts;
using testutil::queryRequest;
using testutil::quotaFor;
using testutil::sweepRequest;
using testutil::tinySnapshot;

std::uint64_t soakMillis() {
    if (const char* env = std::getenv("AIO_SOAK_MS")) {
        const long parsed = std::atol(env);
        if (parsed > 0) {
            return static_cast<std::uint64_t>(parsed);
        }
    }
    return 300;
}

TEST(ServiceSoak, ConcurrentTenantsSwapsAndShedsStayConsistent) {
    constexpr std::size_t kTenants = 8;
    constexpr std::size_t kHandlers = 4;

    std::vector<std::shared_ptr<const ServiceSnapshot>> rotation;
    for (std::uint64_t seed : {51u, 52u, 53u}) {
        rotation.push_back(tinySnapshot(seed));
    }
    // epoch e serves rotation[(e - 1) % 3] — the torn-read oracle.
    const auto expectedDigest = [&](std::uint64_t epoch) {
        return rotation[static_cast<std::size_t>(epoch - 1) %
                        rotation.size()]
            ->digest();
    };

    ServiceConfig config;
    config.admission.queueCapacity = 64;
    config.admission.shedQueueDepth = 48;
    obs::SteadyClock clock;
    ObservatoryService service{rotation[0], config, &clock};
    for (std::size_t t = 0; t < kTenants; ++t) {
        service.registerTenant(
            quotaFor("tenant-" + std::to_string(t), 1e9));
    }
    service.start(kHandlers);

    const std::uint64_t deadline =
        clock.nowNanos() + soakMillis() * 1'000'000ULL;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> tornReads{0};
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<std::uint64_t> okCount{0};
    std::atomic<std::uint64_t> rejectedCount{0};
    std::atomic<std::uint64_t> cancelledCount{0};
    std::atomic<std::uint64_t> untypedCount{0};

    std::vector<std::thread> submitters;
    submitters.reserve(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
        submitters.emplace_back([&, t] {
            const std::string tenant = "tenant-" + std::to_string(t);
            const std::size_t asCount =
                rotation[0]->topology().asCount();
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                ServiceRequest request =
                    i % 4 == 3
                        ? sweepRequest(tenant, cableCuts({"WACS"}))
                        : queryRequest(tenant, (t + i) % asCount,
                                       (t * 7 + i * 3) % asCount);
                // Half the requests carry a real deadline.
                if (i % 2 == 0) {
                    request.deadlineNanos =
                        clock.nowNanos() + 50'000'000ULL;
                }
                auto future = service.submit(std::move(request));
                const ServiceResponse response = future.get();
                resolved.fetch_add(1, std::memory_order_relaxed);
                switch (response.status) {
                case ResponseStatus::Ok:
                    okCount.fetch_add(1, std::memory_order_relaxed);
                    if (response.digest !=
                        expectedDigest(response.epoch)) {
                        tornReads.fetch_add(1,
                                            std::memory_order_relaxed);
                    }
                    break;
                case ResponseStatus::Rejected:
                    rejectedCount.fetch_add(1,
                                            std::memory_order_relaxed);
                    if (response.reject == RejectReason::None) {
                        untypedCount.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    break;
                case ResponseStatus::Cancelled:
                    cancelledCount.fetch_add(1,
                                             std::memory_order_relaxed);
                    break;
                case ResponseStatus::Failed:
                    untypedCount.fetch_add(1,
                                           std::memory_order_relaxed);
                    break;
                }
                ++i;
            }
        });
    }

    // The swap thread rotates epochs (with occasional failed swaps)
    // for the whole soak window.
    std::uint64_t swaps = 0;
    std::thread swapper{[&] {
        std::size_t tick = 0;
        while (clock.nowNanos() < deadline) {
            if (tick % 5 == 4) {
                (void)service.publish(
                    net::Error::precondition("soak: bad snapshot"));
            } else {
                // The k-th valid swap creates epoch k+1, which readers
                // expect to serve rotation[k % 3] — failed swaps must
                // not advance the rotation.
                (void)service.publish(
                    rotation[(swaps + 1) % rotation.size()]);
                ++swaps;
            }
            ++tick;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        stop.store(true);
    }};
    swapper.join();
    for (std::thread& submitter : submitters) {
        submitter.join();
    }
    service.stop();

    EXPECT_EQ(tornReads.load(), 0u);
    EXPECT_EQ(untypedCount.load(), 0u);
    EXPECT_GT(resolved.load(), 0u);
    EXPECT_GT(okCount.load(), 0u);
    EXPECT_EQ(resolved.load(), okCount.load() + rejectedCount.load() +
                                   cancelledCount.load());
    EXPECT_EQ(resolved.load(), service.completedCount() +
                                   rejectedCount.load() +
                                   cancelledCount.load());
    // With every pin released, only the current epoch stays resident.
    EXPECT_EQ(service.epochs().liveEpochs(), 1u);
    EXPECT_EQ(service.epochs().reclaimed(), swaps);
    EXPECT_EQ(service.queueDepth(), 0u);
}

TEST(ServiceSoak, MemoryRungShrinksCachesWhileHandlersFillThem) {
    // The shed watermark sits one byte above a fresh snapshot's resident
    // bytes, so the first oracle a handler caches crosses it, and from
    // then on submit() runs the memory rung: it shrinks the current
    // snapshot's cache under the service lock while handler threads
    // insert into it, and into the caches of the snapshots a publisher
    // keeps rotating in.
    constexpr std::size_t kTenants = 4;
    constexpr std::size_t kHandlers = 4;

    std::vector<std::shared_ptr<const ServiceSnapshot>> rotation;
    for (std::uint64_t seed : {61u, 62u, 63u}) {
        rotation.push_back(tinySnapshot(seed));
    }
    ServiceConfig config;
    config.admission.queueCapacity = 64;
    config.admission.shedQueueDepth = 48;
    config.admission.shedResidentBytes = rotation[0]->residentBytes() + 1;
    obs::SteadyClock clock;
    obs::MetricsRegistry metrics{&clock};
    ObservatoryService service{rotation[0], config, &clock, &metrics};
    for (std::size_t t = 0; t < kTenants; ++t) {
        service.registerTenant(
            quotaFor("tenant-" + std::to_string(t), 1e9));
    }
    service.start(kHandlers);

    const std::uint64_t deadline =
        clock.nowNanos() + soakMillis() * 1'000'000ULL;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> tornReads{0};
    std::atomic<std::uint64_t> okCount{0};
    std::atomic<std::uint64_t> untypedCount{0};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kTenants; ++t) {
        submitters.emplace_back([&, t] {
            const std::string tenant = "tenant-" + std::to_string(t);
            const std::size_t asCount = rotation[0]->topology().asCount();
            for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed);
                 ++i) {
                // Three in four requests are one-cut what-ifs, each cable
                // a cache entry of its own.
                static constexpr const char* kCables[] = {"WACS", "SEACOM",
                                                          "ACE"};
                const char* cable = kCables[(t + i) % 3];
                ServiceRequest request =
                    i % 4 == 3 ? queryRequest(tenant, (t + i) % asCount,
                                              (t * 7 + i * 3) % asCount)
                               : sweepRequest(tenant, cableCuts({cable}));
                const ServiceResponse response =
                    service.submit(std::move(request)).get();
                if (response.status == ResponseStatus::Ok) {
                    okCount.fetch_add(1, std::memory_order_relaxed);
                    const auto& served =
                        rotation[static_cast<std::size_t>(response.epoch -
                                                          1) %
                                 rotation.size()];
                    if (response.digest != served->digest()) {
                        tornReads.fetch_add(1, std::memory_order_relaxed);
                    }
                } else if (response.status == ResponseStatus::Failed ||
                           (response.status == ResponseStatus::Rejected &&
                            response.reject == RejectReason::None)) {
                    untypedCount.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    // A slow build (a sanitizer lane's) can outlast a short window, so
    // the soak runs on until the rung has run at least once, for at most
    // a minute more.
    const obs::Counter& shrinks = metrics.counter("service.cache_shrinks");
    const std::uint64_t cap = deadline + 60'000'000'000ULL;
    std::uint64_t swaps = 0;
    for (std::uint64_t now = clock.nowNanos();
         now < deadline || (shrinks.value() == 0 && now < cap);
         now = clock.nowNanos()) {
        (void)service.publish(rotation[(swaps + 1) % rotation.size()]);
        ++swaps;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& submitter : submitters) {
        submitter.join();
    }
    service.stop();

    EXPECT_EQ(tornReads.load(), 0u);
    EXPECT_EQ(untypedCount.load(), 0u);
    EXPECT_GT(okCount.load(), 0u);
    EXPECT_GT(shrinks.value(), 0u) << "the memory rung never ran";
    EXPECT_EQ(service.epochs().liveEpochs(), 1u);
    EXPECT_EQ(service.queueDepth(), 0u);
}

} // namespace
} // namespace aio::service
