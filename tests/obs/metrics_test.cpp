#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "netbase/error.hpp"
#include "obs/clock.hpp"

namespace aio::obs {
namespace {

TEST(Counter, AccumulatesAndDefaultsToOne) {
    Counter counter;
    EXPECT_EQ(counter.value(), 0U);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42U);
}

TEST(Gauge, LastWriteWins) {
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    gauge.set(-7.25);
    EXPECT_EQ(gauge.value(), -7.25);
}

TEST(Histogram, ValuesOnTheBoundaryLandInTheLowerBucket) {
    // Bucket i counts values <= bounds[i]: the boundary itself belongs to
    // the bucket it bounds, the next representable value above it does
    // not. This is the edge the percentile math depends on.
    Histogram h{{1.0, 2.0, 4.0}};
    h.record(1.0);                                     // bucket 0, exactly
    h.record(std::nextafter(1.0, 2.0));                // bucket 1, just over
    h.record(2.0);                                     // bucket 1, exactly
    h.record(4.0);                                     // bucket 2, exactly
    h.record(std::nextafter(4.0, 5.0));                // overflow
    h.record(100.0);                                   // overflow
    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4U);
    EXPECT_EQ(snap.counts[0], 1U);
    EXPECT_EQ(snap.counts[1], 2U);
    EXPECT_EQ(snap.counts[2], 1U);
    EXPECT_EQ(snap.counts[3], 2U);
    EXPECT_EQ(snap.count, 6U);
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 100.0);
}

TEST(Histogram, RejectsNaNAndInf) {
    Histogram h{{1.0}};
    EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()),
                 net::PreconditionError);
    EXPECT_THROW(h.record(std::numeric_limits<double>::infinity()),
                 net::PreconditionError);
    EXPECT_THROW(h.record(-std::numeric_limits<double>::infinity()),
                 net::PreconditionError);
    EXPECT_EQ(h.count(), 0U) << "rejected samples must not be counted";
}

TEST(Histogram, RejectsBadBucketLayouts) {
    EXPECT_THROW(Histogram{std::vector<double>{}}, net::PreconditionError);
    EXPECT_THROW((Histogram{{1.0, 1.0}}), net::PreconditionError);
    EXPECT_THROW((Histogram{{2.0, 1.0}}), net::PreconditionError);
    EXPECT_THROW(
        (Histogram{{1.0, std::numeric_limits<double>::infinity()}}),
        net::PreconditionError);
}

TEST(Histogram, EmptySnapshotHasNoPercentile) {
    const Histogram h{{1.0, 2.0}};
    EXPECT_THROW((void)h.snapshot().p50(), net::PreconditionError);
    EXPECT_EQ(h.snapshot().mean(), 0.0);
}

TEST(Histogram, SingleSampleIsExactAtEveryQuantile) {
    Histogram h{{1.0, 10.0, 100.0}};
    h.record(5.0);
    const auto snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(snap.p50(), 5.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
}

TEST(Histogram, QuantilesInterpolateWithinOneBucketWidth) {
    // 1..100 into decade-width buckets: quantiles are exact at the
    // extrema and accurate to one bucket width in between.
    Histogram h{{10.0, 20.0, 30.0, 40.0, 50.0,
                 60.0, 70.0, 80.0, 90.0, 100.0}};
    for (int i = 1; i <= 100; ++i) {
        h.record(static_cast<double>(i));
    }
    const auto snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100.0), 100.0);
    EXPECT_NEAR(snap.p50(), 50.0, 10.0);
    EXPECT_NEAR(snap.p90(), 90.0, 10.0);
    EXPECT_NEAR(snap.p99(), 99.0, 10.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
}

TEST(Histogram, PercentileClampsToRecordedExtrema) {
    // One sample deep in a wide bucket: interpolation must not report a
    // bucket edge the data never reached.
    Histogram h{{1000.0}};
    h.record(3.0);
    h.record(7.0);
    const auto snap = h.snapshot();
    EXPECT_GE(snap.p50(), 3.0);
    EXPECT_LE(snap.p99(), 7.0);
}

TEST(MetricsRegistry, SameNameReturnsTheSameMetric) {
    MetricsRegistry registry;
    EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
    EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
    EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
    EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(MetricsRegistry, HistogramBoundsApplyOnlyOnFirstCreation) {
    MetricsRegistry registry;
    const std::vector<double> bounds{1.0, 2.0};
    Histogram& h = registry.histogram("h", bounds);
    h.record(1.5);
    // A later caller with different bounds gets the existing histogram.
    Histogram& again = registry.histogram("h", {});
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.snapshot().bounds, bounds);
}

TEST(MetricsRegistry, TableAndJsonAreStableAndSorted) {
    ManualClock clock;
    MetricsRegistry registry{&clock};
    registry.counter("zeta").add(3);
    registry.counter("alpha").add(1);
    registry.gauge("mid").set(2.5);
    registry.histogram("lat", {{1.0}}).record(0.5);

    const std::string json = registry.json();
    EXPECT_EQ(json, registry.json()) << "repeated export must be stable";
    EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);

    const std::string table = registry.table();
    EXPECT_NE(table.find("alpha"), std::string::npos);
    EXPECT_NE(table.find("mid"), std::string::npos);
    EXPECT_NE(table.find("lat"), std::string::npos);
}

TEST(ScopedTimer, RecordsManualClockElapsedSeconds) {
    ManualClock clock;
    MetricsRegistry registry{&clock};
    {
        const ScopedTimer timer{&registry, "op_seconds"};
        clock.advance(2'000'000); // 2 ms
    }
    const auto snap = registry.histogram("op_seconds").snapshot();
    EXPECT_EQ(snap.count, 1U);
    EXPECT_DOUBLE_EQ(snap.sum, 0.002);
}

TEST(ScopedTimer, NullRegistryIsInert) {
    const ScopedTimer timer{nullptr, "ignored"};
    SUCCEED();
}

TEST(ScopedTimer, HeldHistogramRecordsLikeTheNamedOne) {
    ManualClock clock;
    MetricsRegistry registry{&clock};
    Histogram& held = registry.histogram("op_seconds");
    {
        const ScopedTimer timer{&held, &registry.clock()};
        clock.advance(3'000'000); // 3 ms
    }
    {
        const ScopedTimer inert{nullptr, &registry.clock()};
        clock.advance(1'000'000);
    }
    const auto snap = held.snapshot();
    EXPECT_EQ(snap.count, 1U);
    EXPECT_DOUBLE_EQ(snap.sum, 0.003);
}

TEST(LazyCounter, JoinsTheRegistryOnItsFirstAdd) {
    MetricsRegistry registry;
    LazyCounter drops{&registry, "drops"};
    EXPECT_EQ(registry.json().find("drops"), std::string::npos);
    drops.add();
    drops.add(4);
    EXPECT_EQ(registry.counter("drops").value(), 5U);

    LazyCounter inert{nullptr, "ignored"};
    inert.add();
    EXPECT_EQ(registry.json().find("ignored"), std::string::npos);
}

} // namespace
} // namespace aio::obs
