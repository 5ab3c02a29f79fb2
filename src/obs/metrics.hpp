#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace aio::obs {

/// Lock-free monotone event counter. Updates are relaxed atomics — hot
/// paths (worker lanes, cache lookups, journal appends) pay one
/// uncontended RMW, never a lock.
class Counter {
public:
    void add(std::uint64_t n = 1) {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (cache residency, queue depth).
class Gauge {
public:
    void set(double value);
    [[nodiscard]] double value() const;

private:
    std::atomic<std::uint64_t> bits_{0}; ///< IEEE-754 bits of the value
};

/// Fixed-bucket latency/size histogram with lock-free recording.
///
/// Bucket i counts values <= upperBounds[i] (first matching bucket); one
/// implicit overflow bucket catches everything above the last bound.
/// Recorded extrema are tracked so quantile readout can interpolate
/// inside the first/last occupied bucket instead of reporting a bucket
/// edge the sample never reached. NaN/Inf values are rejected
/// (PreconditionError) — a poisoned sample would silently corrupt every
/// later readout, the same failure mode net::percentile now guards.
class Histogram {
public:
    /// `upperBounds` must be non-empty, finite and strictly increasing.
    explicit Histogram(std::vector<double> upperBounds);

    void record(double value);

    /// Default bucket layout for second-valued timers: decades from 1µs
    /// to 100s.
    [[nodiscard]] static std::span<const double> defaultSecondsBounds();

    /// Point-in-time copy of the bucket state, readable without stopping
    /// writers (counts are read relaxed; a snapshot concurrent with
    /// writes is some valid interleaving, not torn).
    struct Snapshot {
        std::vector<double> bounds;         ///< upper bounds, ascending
        std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;

        /// Rank-interpolated quantile over the buckets (p in [0,100]).
        /// Exact at recorded extrema, otherwise accurate to one bucket
        /// width. Throws PreconditionError on an empty snapshot.
        [[nodiscard]] double percentile(double p) const;
        [[nodiscard]] double p50() const { return percentile(50.0); }
        [[nodiscard]] double p90() const { return percentile(90.0); }
        [[nodiscard]] double p99() const { return percentile(99.0); }
        [[nodiscard]] double mean() const {
            return count == 0 ? 0.0 : sum / static_cast<double>(count);
        }
    };

    [[nodiscard]] Snapshot snapshot() const;
    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }

private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_; ///< bounds_.size()+1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> minBits_;
    std::atomic<std::uint64_t> maxBits_;
};

/// Named metric registry shared by one observatory process: counters,
/// gauges and histograms created on first use and updated lock-free
/// afterwards. Registration (name lookup) takes a mutex; hot paths hold
/// the returned reference, which stays valid for the registry's lifetime.
///
/// The registry owns the observability clock: components time themselves
/// through `clock()` (usually via ScopedTimer), so swapping in a
/// ManualClock makes every recorded duration deterministic.
class MetricsRegistry {
public:
    /// `clock` (optional, not owned, must outlive the registry) defaults
    /// to a process-wide SteadyClock.
    explicit MetricsRegistry(const Clock* clock = nullptr);

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    [[nodiscard]] const Clock& clock() const { return *clock_; }

    /// The counter/gauge named `name`, created on first use.
    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);

    /// The histogram named `name`; `upperBounds` (defaulting to the
    /// seconds decades) applies only on first creation.
    [[nodiscard]] Histogram&
    histogram(std::string_view name,
              std::span<const double> upperBounds = {});

    /// Fixed-width table of every metric, sorted by name: counters and
    /// gauges one row each, histograms with count/sum/p50/p90/p99.
    [[nodiscard]] std::string table() const;

    /// Stable JSON export (names sorted, doubles fixed-precision): the
    /// machine-readable side of the same readout.
    [[nodiscard]] std::string json() const;

private:
    const Clock* clock_;
    mutable std::mutex mutex_; ///< guards the maps, never the metrics
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
};

/// RAII timer recording elapsed seconds into `registry`'s histogram
/// `name` on destruction. Null-registry-tolerant so call sites stay
/// one-liners whether or not observability is wired in.
class ScopedTimer {
public:
    ScopedTimer(MetricsRegistry* registry, std::string_view name)
        : ScopedTimer(registry ? &registry->histogram(name) : nullptr,
                      registry ? &registry->clock() : nullptr) {}

    /// Times into a histogram the caller already holds, reading `clock`;
    /// a null histogram makes the timer a no-op.
    ScopedTimer(Histogram* histogram, const Clock* clock)
        : histogram_(histogram), clock_(histogram ? clock : nullptr),
          startNanos_(clock_ ? clock_->nowNanos() : 0) {}

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    ~ScopedTimer() {
        if (histogram_ != nullptr) {
            histogram_->record(
                static_cast<double>(clock_->nowNanos() - startNanos_) *
                1e-9);
        }
    }

private:
    Histogram* histogram_;
    const Clock* clock_;
    std::uint64_t startNanos_;
};

/// A registry counter looked up on its first add() and held afterwards:
/// it appears in the registry exactly when a by-name add() would have
/// created it, without a locked name lookup per event. Null-registry-
/// tolerant like ScopedTimer. `name` must outlive the handle (a string
/// literal in practice); one thread uses a handle at a time.
class LazyCounter {
public:
    LazyCounter(MetricsRegistry* registry, std::string_view name)
        : registry_(registry), name_(name) {}

    void add(std::uint64_t n = 1) {
        if (registry_ == nullptr) {
            return;
        }
        if (counter_ == nullptr) {
            counter_ = &registry_->counter(name_);
        }
        counter_->add(n);
    }

private:
    MetricsRegistry* registry_;
    std::string_view name_;
    Counter* counter_ = nullptr;
};

} // namespace aio::obs
