#pragma once

// Shared plumbing for the end-to-end benchmark: run options, timing,
// order statistics and the per-run report every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Per-layer run: the program's metrics registry and trace are wired
    /// in and the report carries layer metrics instead of end-to-end ones.
    bool trace = false;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point start);

/// Order statistics over a sample; 0 for an empty sample. `p` in [0, 100],
/// linearly interpolated between ranks.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// What one run found. Workloads fill `metrics` by name (end-to-end names
/// on a timing run, layer names on a traced run); main() checks the names
/// against the benchmark's metric list and prints the result line.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /// Output checks that did not hold; any entry makes the run incorrect.
    std::vector<std::string> problems;

    /// Records a problem unless `ok`.
    void require(bool ok, const std::string& what);
};

/// Set-up is timed over repeated from-scratch builds for at least
/// kSetupSeconds (and at least kMinSetupReps builds) and reported as the
/// fastest. The host's speed swings over seconds, so the fastest of a burst
/// of one or two seconds still moves by a third between runs; over four
/// seconds it holds within about a tenth.
inline constexpr double kSetupSeconds = 4.0;
inline constexpr std::size_t kMinSetupReps = 5;

/// Runs `build` from scratch as set out above and returns the fastest wall
/// time in seconds. The caller's lambda keeps the last build.
template <class Build>
double fastestSetupSeconds(Build&& build) {
    std::vector<double> times;
    const auto window = Clock::now();
    while (times.size() < kMinSetupReps ||
           secondsSince(window) < kSetupSeconds) {
        const auto start = Clock::now();
        build();
        times.push_back(secondsSince(start));
    }
    return percentile(std::move(times), 0.0);
}

/// Running sum and count of a program histogram; zero without a registry.
struct HistogramTotals {
    double sum = 0.0;
    std::uint64_t count = 0;

    /// Mean of the values recorded since `before`, times `scale`; 0 when
    /// nothing was recorded.
    [[nodiscard]] double meanSince(const HistogramTotals& before,
                                   double scale) const;
};

[[nodiscard]] HistogramTotals histogramTotals(aio::obs::MetricsRegistry* metrics,
                                              std::string_view name);
[[nodiscard]] std::uint64_t counterValue(aio::obs::MetricsRegistry* metrics,
                                         std::string_view name);

/// 64-bit mix of a run seed and a stream tag, so each workload and each
/// generated input draws from its own reproducible stream.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag);

Report runService(const Options& options);
Report runCatalog(const Options& options);
Report runOutage(const Options& options);
Report runContinental(const Options& options);

} // namespace perfbench
