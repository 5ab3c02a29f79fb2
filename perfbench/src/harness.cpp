#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void Report::require(bool ok, const std::string& what) {
    if (!ok) {
        problems.push_back(what);
    }
}

double HistogramTotals::meanSince(const HistogramTotals& before,
                                  double scale) const {
    return count > before.count
               ? (sum - before.sum) * scale /
                     static_cast<double>(count - before.count)
               : 0.0;
}

HistogramTotals histogramTotals(aio::obs::MetricsRegistry* metrics,
                                std::string_view name) {
    if (metrics == nullptr) {
        return {};
    }
    const auto snapshot = metrics->histogram(name).snapshot();
    return {snapshot.sum, snapshot.count};
}

std::uint64_t counterValue(aio::obs::MetricsRegistry* metrics,
                           std::string_view name) {
    return metrics == nullptr ? 0 : metrics->counter(name).value();
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag) {
    // splitmix64 finalizer over the pair.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
