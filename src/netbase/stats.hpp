#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace aio::net {

/// Order statistics and moments over a sample. All functions tolerate
/// unsorted input; percentile() uses linear interpolation between ranks.
/// Empty input throws PreconditionError (there is no meaningful default),
/// as does a NaN/Inf element in the quantile/CDF functions — NaN is
/// unordered, so sorting it produces an unspecified permutation and a
/// silently wrong quantile rather than a loud failure.
[[nodiscard]] double mean(std::span<const double> sample);
[[nodiscard]] double stddev(std::span<const double> sample);
[[nodiscard]] double minOf(std::span<const double> sample);
[[nodiscard]] double maxOf(std::span<const double> sample);
[[nodiscard]] double percentile(std::span<const double> sample, double p);
[[nodiscard]] double median(std::span<const double> sample);

/// Empirical CDF evaluated at the sample points; returns (value, cdf)
/// pairs sorted by value. Used by benches that print the paper's CDF
/// figures as series.
[[nodiscard]] std::vector<std::pair<double, double>>
empiricalCdf(std::span<const double> sample);

/// Minimal fixed-width text table used by the bench harness to print
/// paper-style tables. Columns are sized to the widest cell.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /// Renders with aligned columns, a header separator, and a trailing
    /// newline.
    [[nodiscard]] std::string render() const;

    /// Formats a double with the given number of decimals.
    static std::string num(double value, int decimals = 1);
    /// Formats a ratio as a percentage string ("42.0%").
    static std::string pct(double fraction, int decimals = 1);

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace aio::net
