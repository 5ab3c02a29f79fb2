#include "service/service.hpp"

#include <utility>

#include "netbase/error.hpp"

namespace aio::service {

ObservatoryService::ObservatoryService(
    std::shared_ptr<const ServiceSnapshot> initial, ServiceConfig config,
    const obs::Clock* clock, obs::MetricsRegistry* metrics,
    persist::ByteSink* ledgerSink)
    : config_(config), clock_(clock), metrics_(metrics), epochs_(metrics),
      registry_(WorkloadRegistry::builtins(config.admission)),
      admission_(config.admission, registry_, metrics) {
    AIO_EXPECTS(initial != nullptr,
                "service needs a valid initial snapshot");
    AIO_EXPECTS(clock != nullptr, "service needs a clock");
    config_.validate();
    if (ledgerSink != nullptr) {
        ledger_ = std::make_unique<TenantLedger>(*ledgerSink);
    }
    (void)epochs_.publish(std::move(initial));
}

ObservatoryService::~ObservatoryService() { stop(); }

void ObservatoryService::registerTenant(const TenantQuota& quota) {
    const std::lock_guard<std::mutex> lock{mutex_};
    admission_.registerTenant(quota);
}

void ObservatoryService::registerWorkload(WorkloadInfo info,
                                          WorkloadHandler handler) {
    const std::lock_guard<std::mutex> lock{mutex_};
    AIO_EXPECTS(seq_ == 0 && handlers_.empty(),
                "workload registration must precede the first "
                "submission and start()");
    registry_.add(std::move(info), std::move(handler));
}

void ObservatoryService::restoreLedger(
    std::span<const std::byte> journal) {
    const TenantLedger::Replay replay = TenantLedger::replay(journal);
    const std::lock_guard<std::mutex> lock{mutex_};
    AIO_EXPECTS(seq_ == 0 && queue_.empty(),
                "ledger restore must precede the first submission");
    for (const auto& [tenant, consumption] : replay.tenants) {
        admission_.restoreConsumption(tenant, consumption.peakMb,
                                      consumption.offPeakMb);
    }
    seq_ = replay.maxSeq;
}

std::future<ServiceResponse>
ObservatoryService::submit(ServiceRequest request) {
    std::promise<ServiceResponse> promise;
    std::future<ServiceResponse> future = promise.get_future();
    const std::uint64_t now = clock_->nowNanos();

    std::unique_lock<std::mutex> lock{mutex_};
    request.seq = ++seq_;
    if (stopping_) {
        ServiceResponse response;
        response.status = ResponseStatus::Rejected;
        response.reject = RejectReason::ShuttingDown;
        response.seq = request.seq;
        lock.unlock();
        promise.set_value(std::move(response));
        return future;
    }
    const AdmissionDecision decision = admission_.decide(
        request, now, queue_.size(), relieveMemoryPressureLocked());
    if (!decision.admitted) {
        ServiceResponse response;
        response.status = ResponseStatus::Rejected;
        response.reject = decision.reason;
        response.retryAfterNanos =
            decision.retryAfterNanos == 0
                ? 0
                : now + decision.retryAfterNanos;
        response.seq = request.seq;
        lock.unlock();
        promise.set_value(std::move(response));
        return future;
    }
    if (ledger_ != nullptr) {
        // Write-ahead: the charge becomes durable before the request can
        // execute. A SinkFailure here propagates — the resume path
        // replays whatever landed.
        ledger_->recordCharge(request.tenant, request.seq,
                              admission_.costMbFor(request), false);
    }
    Pending pending;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    pending.chargedUsd = decision.chargedUsd;
    queue_.push_back(std::move(pending));
    if (metrics_ != nullptr) {
        metrics_->gauge("service.queue_depth")
            .set(static_cast<double>(queue_.size()));
    }
    lock.unlock();
    ready_.notify_one();
    return future;
}

std::uint64_t ObservatoryService::publish(
    net::Expected<std::shared_ptr<const ServiceSnapshot>> snapshot) {
    if (!snapshot.hasValue()) {
        const std::lock_guard<std::mutex> lock{mutex_};
        degraded_ = true;
        if (metrics_ != nullptr) {
            metrics_->counter("service.swap_failures").add();
            metrics_->gauge("service.degraded").set(1.0);
        }
        return epochs_.currentEpoch();
    }
    const std::uint64_t epoch =
        epochs_.publish(std::move(snapshot).value());
    const std::lock_guard<std::mutex> lock{mutex_};
    degraded_ = false;
    if (metrics_ != nullptr) {
        metrics_->gauge("service.degraded").set(0.0);
    }
    return epoch;
}

bool ObservatoryService::degradedMode() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return degraded_;
}

void ObservatoryService::injectAllocPressure(std::uint64_t bytes) {
    const std::lock_guard<std::mutex> lock{mutex_};
    allocPressureBytes_ += bytes;
    const std::uint64_t resident = relieveMemoryPressureLocked();
    if (metrics_ != nullptr) {
        metrics_->gauge("service.resident_bytes")
            .set(static_cast<double>(resident));
    }
}

void ObservatoryService::clearAllocPressure() {
    const std::lock_guard<std::mutex> lock{mutex_};
    allocPressureBytes_ = 0;
}

std::uint64_t ObservatoryService::residentBytes() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return residentBytesLocked();
}

std::uint64_t ObservatoryService::residentBytesLocked() const {
    return epochs_.residentBytes() + allocPressureBytes_;
}

std::uint64_t ObservatoryService::relieveMemoryPressureLocked() {
    const std::uint64_t watermark = config_.admission.shedResidentBytes;
    const std::uint64_t resident = residentBytesLocked();
    if (watermark == 0 || resident < watermark) {
        return resident;
    }
    // Ladder rung below shedding: give memory back by shrinking the
    // current snapshot's cache down to the degraded budget. Lock order
    // is service -> epoch -> cache, as in residentBytesLocked().
    epochs_.pin()->cache().setByteBudget(config_.degradedCacheByteBudget);
    if (metrics_ != nullptr) {
        metrics_->counter("service.cache_shrinks").add();
    }
    return residentBytesLocked();
}

bool ObservatoryService::runOne() {
    Pending pending;
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        if (queue_.empty()) {
            return false;
        }
        pending = std::move(queue_.front());
        queue_.pop_front();
        if (metrics_ != nullptr) {
            metrics_->gauge("service.queue_depth")
                .set(static_cast<double>(queue_.size()));
        }
    }
    pending.promise.set_value(execute(pending));
    return true;
}

std::size_t ObservatoryService::drain() {
    std::size_t ran = 0;
    while (runOne()) {
        ++ran;
    }
    return ran;
}

void ObservatoryService::start(std::size_t handlerThreads) {
    AIO_EXPECTS(handlerThreads >= 1,
                "threaded mode needs at least one handler");
    const std::lock_guard<std::mutex> lock{mutex_};
    AIO_EXPECTS(handlers_.empty(), "service is already started");
    AIO_EXPECTS(!stopping_, "service has been stopped");
    handlers_.reserve(handlerThreads);
    for (std::size_t i = 0; i < handlerThreads; ++i) {
        handlers_.emplace_back([this] { handlerLoop(); });
    }
}

void ObservatoryService::stop() {
    std::vector<std::thread> handlers;
    std::deque<Pending> orphaned;
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        if (stopping_) {
            return;
        }
        stopping_ = true;
        handlers.swap(handlers_);
    }
    ready_.notify_all();
    for (std::thread& handler : handlers) {
        handler.join();
    }
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        orphaned.swap(queue_);
    }
    for (Pending& pending : orphaned) {
        ServiceResponse response;
        response.status = ResponseStatus::Rejected;
        response.reject = RejectReason::ShuttingDown;
        response.seq = pending.request.seq;
        pending.promise.set_value(std::move(response));
    }
}

std::size_t ObservatoryService::queueDepth() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return queue_.size();
}

std::uint64_t ObservatoryService::completedCount() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return completed_;
}

void ObservatoryService::handlerLoop() {
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock{mutex_};
            ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopping, nothing left to run
            }
            pending = std::move(queue_.front());
            queue_.pop_front();
            if (metrics_ != nullptr) {
                metrics_->gauge("service.queue_depth")
                    .set(static_cast<double>(queue_.size()));
            }
        }
        pending.promise.set_value(execute(pending));
    }
}

ServiceResponse ObservatoryService::execute(Pending& pending) {
    const obs::ScopedTimer timer{metrics_, "service.request_seconds"};
    const ServiceRequest& request = pending.request;

    ServiceResponse response;
    response.seq = request.seq;
    response.chargedUsd = pending.chargedUsd;

    const PinnedSnapshot pinned = epochs_.pin();
    response.epoch = pinned.epoch();
    response.digest = pinned->digest();
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        response.degraded = degraded_;
    }

    const exec::CancelToken token{clock_, request.deadlineNanos};
    try {
        token.checkpoint(); // the deadline may have passed while queued
        WorkloadContext context;
        context.snapshot = pinned.operator->();
        context.cancel = &token;
        // Admission already vetted the name; a lookup miss here would be
        // a registry mutation after serving started, which
        // registerWorkload forbids.
        registry_.handler(request.workload)(context, request, response);
        response.status = ResponseStatus::Ok;
        const std::lock_guard<std::mutex> lock{mutex_};
        ++completed_;
        if (metrics_ != nullptr) {
            metrics_->counter("service.completed").add();
        }
    } catch (const net::CancelledError&) {
        response.status = ResponseStatus::Cancelled;
        response.sweep.reset();
        response.plan.reset();
        response.report.reset();
        if (metrics_ != nullptr) {
            metrics_->counter("service.cancelled").add();
        }
    } catch (const net::AioError& error) {
        response.status = ResponseStatus::Failed;
        response.sweep.reset();
        response.plan.reset();
        response.report.reset();
        response.error = error.what();
        if (metrics_ != nullptr) {
            metrics_->counter("service.failed").add();
        }
    }
    return response;
}

} // namespace aio::service
