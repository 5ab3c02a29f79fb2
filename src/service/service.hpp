#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "persist/record.hpp"
#include "service/admission.hpp"
#include "service/epoch.hpp"
#include "service/ledger.hpp"
#include "service/request.hpp"
#include "service/snapshot.hpp"
#include "service/workload.hpp"

namespace aio::service {

struct ServiceConfig {
    AdmissionConfig admission;
    /// Cache retained-byte budget the degradation ladder shrinks the
    /// current snapshot to when resident bytes cross the shed watermark
    /// (1 byte = "evict down to one entry"). The shrink is one-way per
    /// snapshot; a later published snapshot arrives with its own budget.
    std::size_t degradedCacheByteBudget = 1;

    /// Throws net::PreconditionError on a bad admission config.
    void validate() const { admission.validate(); }
};

/// The resident observatory: a long-running multi-tenant front end over
/// an immutable ServiceSnapshot shared by concurrent readers.
///
/// Concurrency model (DESIGN.md §13):
///  * snapshots are immutable epochs in an EpochRegistry — a handler
///    pins the current epoch per request and reads without locks;
///    publish() retires the old epoch, reclaimed when its pins drain;
///  * admission (bounded queue, shed watermarks, tenant budget meters)
///    runs under one service mutex; execution runs outside it;
///  * request deadlines propagate as exec::CancelToken through the
///    sweep engine and worker-pool chunk loop — an admitted request
///    either completes in time or resolves with a typed cancellation;
///  * overload degrades stepwise instead of failing: heavy workloads
///    shed at the queue-depth watermark, everything rejects at capacity,
///    memory pressure shrinks the snapshot's cache budget and sheds
///    heavy workloads, and a swap that fails validation leaves the service
///    answering from the stale epoch with responses flagged degraded.
///
/// Two execution modes share every code path above: step mode
/// (runOne()/drain() on the caller thread — the deterministic storm
/// harness) and threaded mode (start(n) handler threads — the soak).
class ObservatoryService {
public:
    /// `initial` must be a valid snapshot (epoch 1). `clock` (not
    /// owned) is the service clock deadlines are judged against.
    /// `metrics` (optional, not owned) receives the service.* counters,
    /// gauges and latency histogram. `ledgerSink` (optional, not owned)
    /// enables the write-ahead tenant charge ledger.
    ObservatoryService(std::shared_ptr<const ServiceSnapshot> initial,
                       ServiceConfig config, const obs::Clock* clock,
                       obs::MetricsRegistry* metrics = nullptr,
                       persist::ByteSink* ledgerSink = nullptr);
    ~ObservatoryService();

    ObservatoryService(const ObservatoryService&) = delete;
    ObservatoryService& operator=(const ObservatoryService&) = delete;

    void registerTenant(const TenantQuota& quota);

    /// Registers (or replaces) a named workload on top of the builtins
    /// (query/whatif/sweep/estimate/plan). Must precede the first
    /// submission and start() — the registry is immutable once serving,
    /// which is what lets handlers dispatch through it lock-free.
    void registerWorkload(WorkloadInfo info, WorkloadHandler handler);

    [[nodiscard]] const WorkloadRegistry& workloads() const {
        return registry_;
    }

    /// Resume path: replays a prior ledger journal into the registered
    /// tenants' meters (deduped by (tenant, seq) — never double-charges)
    /// and advances the sequence counter past the journal's highest seq.
    /// Call after registerTenant and before the first submit.
    void restoreLedger(std::span<const std::byte> journal);

    /// Submits one request. Always returns a future: rejected requests
    /// resolve immediately with status Rejected + a typed reason and
    /// retry-after hint; admitted requests resolve when a handler (or
    /// runOne/drain) executes them. Thread-safe. May throw
    /// persist::SinkFailure when the charge ledger's sink dies — the
    /// crash the resume path recovers from.
    [[nodiscard]] std::future<ServiceResponse> submit(ServiceRequest request);

    /// Publishes a new epoch, or — when `snapshot` carries a validation
    /// failure — records the failed swap and enters degraded mode: the
    /// service keeps answering from the stale epoch with responses
    /// flagged degraded until a later valid publish clears it. Returns
    /// the current epoch either way.
    std::uint64_t
    publish(net::Expected<std::shared_ptr<const ServiceSnapshot>> snapshot);

    [[nodiscard]] bool degradedMode() const;

    /// Fault hook: pretends `bytes` of resident growth (allocation
    /// pressure spike). When the shed watermark is crossed, the ladder
    /// shrinks the current snapshot's cache budget immediately, as
    /// submit() does when real resident bytes cross it, and heavy
    /// admissions shed MemoryPressure while the bytes stay past it.
    void injectAllocPressure(std::uint64_t bytes);
    void clearAllocPressure();
    /// Live epochs' snapshot bytes plus injected pressure.
    [[nodiscard]] std::uint64_t residentBytes() const;

    // ---- step mode ----
    /// Executes one queued request on the calling thread. False when
    /// the queue was empty.
    bool runOne();
    /// runOne until empty; returns how many requests ran.
    std::size_t drain();

    // ---- threaded mode ----
    void start(std::size_t handlerThreads);
    /// Drains nothing: queued-but-unexecuted requests resolve as
    /// Rejected/ShuttingDown. Idempotent; also called by the destructor.
    void stop();

    [[nodiscard]] std::size_t queueDepth() const;
    [[nodiscard]] std::uint64_t completedCount() const;
    [[nodiscard]] const AdmissionController& admission() const {
        return admission_;
    }
    [[nodiscard]] EpochRegistry& epochs() { return epochs_; }
    [[nodiscard]] const ServiceConfig& config() const { return config_; }

private:
    struct Pending {
        ServiceRequest request;
        std::promise<ServiceResponse> promise;
        double chargedUsd = 0.0;
    };

    [[nodiscard]] ServiceResponse execute(Pending& pending);
    void handlerLoop();
    [[nodiscard]] std::uint64_t residentBytesLocked() const;
    /// At or past the shed watermark, shrinks the current snapshot's
    /// cache to the degraded budget. Returns the resident bytes left,
    /// which admission then decides on. Requires mutex_.
    std::uint64_t relieveMemoryPressureLocked();

    ServiceConfig config_;
    const obs::Clock* clock_;
    obs::MetricsRegistry* metrics_;
    EpochRegistry epochs_;
    WorkloadRegistry registry_;
    AdmissionController admission_;
    std::unique_ptr<TenantLedger> ledger_;

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Pending> queue_;
    std::vector<std::thread> handlers_;
    std::uint64_t seq_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t allocPressureBytes_ = 0;
    bool degraded_ = false;
    bool stopping_ = false;
};

} // namespace aio::service
