#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "netbase/error.hpp"
#include "obs/clock.hpp"

namespace aio::exec {

/// Sentinel deadline meaning "no deadline": the token never expires on
/// its own and only an explicit cancel() stops the work.
inline constexpr std::uint64_t kNoDeadlineNanos =
    std::numeric_limits<std::uint64_t>::max();

/// Cooperative cancellation + deadline propagation handle, shared by a
/// request's issuer and every worker executing on its behalf. The token
/// is observation-only for workers: they call checkpoint() at natural
/// yield points (chunk boundaries, per-scenario) and a fired token
/// raises net::CancelledError, which drains cleanly through
/// WorkerPool::parallelFor's error barrier back to the caller.
///
/// Two independent trip conditions, so the owner can tell them apart
/// after the fact:
///  * cancel() — explicit revocation (client went away, service
///    shutting down);
///  * a deadline on an injected obs::Clock — the request ran out of
///    budget. Reading the clock is a relaxed atomic under ManualClock
///    and a steady_clock call otherwise, cheap enough for per-chunk
///    polling.
///
/// Thread-safe; const-queryable from any lane.
class CancelToken {
public:
    /// Never expires, never cancelled until cancel() is called.
    CancelToken() = default;

    /// Expires once `clock->nowNanos() >= deadlineNanos`. The clock is
    /// not owned and must outlive the token; null behaves like no
    /// deadline.
    CancelToken(const obs::Clock* clock, std::uint64_t deadlineNanos)
        : clock_(clock), deadlineNanos_(deadlineNanos) {}

    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    [[nodiscard]] bool cancelled() const {
        return cancelled_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] bool deadlineExpired() const {
        return clock_ != nullptr && deadlineNanos_ != kNoDeadlineNanos &&
               clock_->nowNanos() >= deadlineNanos_;
    }

    /// True when work should stop for either reason.
    [[nodiscard]] bool stopRequested() const {
        return cancelled() || deadlineExpired();
    }

    /// Throws net::CancelledError when the token has fired; the message
    /// distinguishes revocation from deadline expiry. Cheap when the
    /// token is quiet — two relaxed loads and (with a deadline) one
    /// clock read.
    void checkpoint() const {
        if (cancelled()) {
            throw net::CancelledError{"work cancelled by caller"};
        }
        if (deadlineExpired()) {
            throw net::CancelledError{"deadline expired mid-work"};
        }
    }

private:
    std::atomic<bool> cancelled_{false};
    const obs::Clock* clock_ = nullptr;
    std::uint64_t deadlineNanos_ = kNoDeadlineNanos;
};

} // namespace aio::exec
