#include "netbase/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "netbase/error.hpp"

namespace aio::net {

namespace {
// NaN is unordered under operator<, so sorting a NaN-containing sample
// yields an unspecified permutation and silently poisoned quantiles;
// Inf "sorts" but turns every interpolated rank into garbage. Both are
// caller bugs, so the order-statistics entry points reject them up front
// (they feed the obs metrics readout, where a poisoned p99 would
// propagate straight into dashboards).
std::vector<double> sortedFinite(std::span<const double> sample) {
    std::vector<double> copy(sample.begin(), sample.end());
    for (const double x : copy) {
        AIO_EXPECTS(std::isfinite(x),
                    "sample must be finite (no NaN/Inf)");
    }
    std::ranges::sort(copy);
    return copy;
}
} // namespace

double mean(std::span<const double> sample) {
    AIO_EXPECTS(!sample.empty(), "mean of empty sample");
    return std::accumulate(sample.begin(), sample.end(), 0.0) /
           static_cast<double>(sample.size());
}

double stddev(std::span<const double> sample) {
    AIO_EXPECTS(!sample.empty(), "stddev of empty sample");
    const double m = mean(sample);
    double accum = 0.0;
    for (const double x : sample) {
        accum += (x - m) * (x - m);
    }
    return std::sqrt(accum / static_cast<double>(sample.size()));
}

double minOf(std::span<const double> sample) {
    AIO_EXPECTS(!sample.empty(), "min of empty sample");
    return *std::ranges::min_element(sample);
}

double maxOf(std::span<const double> sample) {
    AIO_EXPECTS(!sample.empty(), "max of empty sample");
    return *std::ranges::max_element(sample);
}

double percentile(std::span<const double> sample, double p) {
    AIO_EXPECTS(!sample.empty(), "percentile of empty sample");
    AIO_EXPECTS(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
    const auto values = sortedFinite(sample);
    if (values.size() == 1) {
        return values.front();
    }
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::span<const double> sample) {
    return percentile(sample, 50.0);
}

std::vector<std::pair<double, double>>
empiricalCdf(std::span<const double> sample) {
    AIO_EXPECTS(!sample.empty(), "cdf of empty sample");
    const auto values = sortedFinite(sample);
    std::vector<std::pair<double, double>> out;
    out.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        out.emplace_back(values[i], static_cast<double>(i + 1) /
                                        static_cast<double>(values.size()));
    }
    return out;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
    AIO_EXPECTS(!header_.empty(), "table needs at least one column");
}

void TextTable::addRow(std::vector<std::string> cells) {
    AIO_EXPECTS(cells.size() == header_.size(),
                "row width must match header width");
    rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
        widths[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream out;
    const auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << "| " << row[c]
                << std::string(widths[c] - row[c].size() + 1, ' ');
        }
        out << "|\n";
    };
    emit(header_);
    for (std::size_t c = 0; c < header_.size(); ++c) {
        out << "|" << std::string(widths[c] + 2, '-');
    }
    out << "|\n";
    for (const auto& row : rows_) {
        emit(row);
    }
    return out.str();
}

std::string TextTable::num(double value, int decimals) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(decimals);
    out << value;
    return out.str();
}

std::string TextTable::pct(double fraction, int decimals) {
    return num(fraction * 100.0, decimals) + "%";
}

} // namespace aio::net
