/**
 * @file
 * Unit tests for the observability layer (src/obs): the determinism
 * contract of the metrics registry, the JSON export shape, the
 * runtime enable guards, and the Chrome-trace event schema.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace {

using namespace tbstc;

/** Fresh metric state with recording on; restores "off" on exit. */
class ObsMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setMetricsEnabled(true);
        if (!obs::metricsEnabled())
            GTEST_SKIP() << "obs compiled out (TBSTC_OBS=OFF)";
        obs::resetMetrics();
    }

    void
    TearDown() override
    {
        obs::resetMetrics();
        obs::setMetricsEnabled(false);
    }
};

/** The mixed-metric workload used by the determinism tests. */
void
recordWorkload(size_t n)
{
    static const obs::Counter items = obs::counter("test.det.items");
    static const obs::Counter bytes = obs::counter("test.det.bytes");
    static const obs::Gauge peak = obs::gauge("test.det.peak");
    static const obs::Histogram sizes =
        obs::histogram("test.det.sizes", 0.0, 64.0, 8);
    util::parallelFor(n, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            items.add();
            bytes.add(i * 3);
            peak.record(static_cast<int64_t>(i));
            sizes.observe(static_cast<double>(i % 64));
        }
    });
}

TEST_F(ObsMetricsTest, ExportIsBitIdenticalAcrossThreadCounts)
{
    std::vector<std::string> exports;
    for (const size_t threads : {1u, 2u, 8u}) {
        obs::resetMetrics();
        const util::ThreadScope scope(threads);
        recordWorkload(256);
        exports.push_back(obs::metricsJson());
    }
    EXPECT_EQ(exports[0], exports[1]);
    EXPECT_EQ(exports[0], exports[2]);
    EXPECT_NE(exports[0].find("\"test.det.items\": 256"),
              std::string::npos)
        << exports[0];
}

TEST_F(ObsMetricsTest, CounterSumsAcrossThreads)
{
    static const obs::Counter c = obs::counter("test.sum.counter");
    const util::ThreadScope scope(4);
    util::parallelFor(100, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            c.add(2);
    });
    EXPECT_NE(obs::metricsJson().find("\"test.sum.counter\": 200"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, GaugeMergesAsMaximum)
{
    static const obs::Gauge g = obs::gauge("test.max.gauge");
    const util::ThreadScope scope(4);
    util::parallelFor(64, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            g.record(static_cast<int64_t>(i * 10));
    });
    EXPECT_NE(obs::metricsJson().find("\"test.max.gauge\": 630"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, HistogramClampsEdgesAndDropsNan)
{
    static const obs::Histogram h =
        obs::histogram("test.edge.hist", 0.0, 8.0, 4);
    h.observe(-100.0);                  // Clamps to bucket 0.
    h.observe(0.5);                     // Bucket 0.
    h.observe(1e9);                     // Clamps to the top bucket.
    h.observe(8.0);                     // hi is exclusive: top bucket.
    h.observe(std::nan(""));            // Dropped entirely.
    const std::string json = obs::metricsJson();
    // Bucket bounds render through obs::jsonNumber, integers bare.
    EXPECT_NE(json.find("\"test.edge.hist\": {\"lo\": 0, \"hi\": 8, "),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"buckets\": [2, 0, 0, 2]"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"total\": 4"), std::string::npos);
}

TEST_F(ObsMetricsTest, DisabledRecordingIsANoOp)
{
    static const obs::Counter c = obs::counter("test.off.counter");
    obs::setMetricsEnabled(false);
    EXPECT_FALSE(obs::metricsEnabled());
    c.add(5);
    obs::setMetricsEnabled(true);
    EXPECT_NE(obs::metricsJson().find("\"test.off.counter\": 0"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, KeysAreSortedByName)
{
    // Register in anti-alphabetical order; export must sort.
    obs::counter("test.zz.last").add();
    obs::counter("test.aa.first").add();
    obs::counter("test.mm.middle").add();
    const std::string json = obs::metricsJson();
    const size_t a = json.find("test.aa.first");
    const size_t m = json.find("test.mm.middle");
    const size_t z = json.find("test.zz.last");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, m);
    EXPECT_LT(m, z);
}

TEST_F(ObsMetricsTest, HostDomainIsExcludedByDefault)
{
    static const obs::Counter host =
        obs::counter("test.hostonly.counter", obs::Domain::Host);
    host.add(7);
    const std::string plain = obs::metricsJson();
    EXPECT_EQ(plain.find("test.hostonly.counter"), std::string::npos)
        << plain;
    EXPECT_EQ(plain.find("\"host\""), std::string::npos);
    const std::string with_host = obs::metricsJson(/*includeHost=*/true);
    EXPECT_NE(with_host.find("\"host\""), std::string::npos);
    EXPECT_NE(with_host.find("\"test.hostonly.counter\": 7"),
              std::string::npos)
        << with_host;
}

TEST_F(ObsMetricsTest, ResetZeroesValuesButKeepsRegistrations)
{
    static const obs::Counter c = obs::counter("test.reset.counter");
    c.add(9);
    obs::resetMetrics();
    EXPECT_NE(obs::metricsJson().find("\"test.reset.counter\": 0"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, RegistrationIsIdempotent)
{
    const obs::Counter a = obs::counter("test.idem.counter");
    const obs::Counter b = obs::counter("test.idem.counter");
    a.add(1);
    b.add(2);
    EXPECT_NE(obs::metricsJson().find("\"test.idem.counter\": 3"),
              std::string::npos);
}

TEST(ObsTrace, ChromeTraceCarriesRequiredEventFields)
{
    obs::setTracingEnabled(true);
    if (!obs::tracingEnabled())
        GTEST_SKIP() << "obs compiled out (TBSTC_OBS=OFF)";
    obs::resetTrace();
    {
        const obs::ScopedSpan span("test.host.span");
    }
    const uint64_t track = obs::simTrack("test sim track");
    ASSERT_NE(track, 0u);
    obs::simLaneName(track, 1, "lane.one");
    obs::simSpan(track, 1, "test.sim.span", 100.0, 50.0);
    obs::simInstant(track, 2, "test.sim.instant", 125.0);
    const std::string json = obs::chromeTraceJson();
    obs::setTracingEnabled(false);
    obs::resetTrace();

    // Document shape + event schema (name/ph/ts/pid/tid).
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"otherData\""), std::string::npos);
    EXPECT_NE(json.find("\"schema\": \"tbstc.trace.v1\""),
              std::string::npos);
    for (const char *field : {"\"name\"", "\"ph\"", "\"ts\"",
                              "\"pid\"", "\"tid\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    // The complete host span, the sim span, and the instant.
    EXPECT_NE(json.find("\"test.host.span\", \"ph\": \"X\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"test.sim.span\", \"ph\": \"X\", "
                        "\"ts\": 100.000, \"dur\": 50.000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"test.sim.instant\", \"ph\": \"i\""),
              std::string::npos);
    // Instants carry the thread scope field.
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
    // Track labels are thread_name metadata on the sim pid.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\": \"test sim track\"}"),
              std::string::npos);
}

TEST(ObsTrace, DisabledTracerRecordsNothing)
{
    obs::setTracingEnabled(false);
    obs::resetTrace();
    {
        const obs::ScopedSpan span("test.invisible");
    }
    obs::simSpan(obs::simTrack("nope"), 1, "test.invisible.sim", 0, 1);
    const std::string json = obs::chromeTraceJson();
    EXPECT_EQ(json.find("test.invisible"), std::string::npos);
}

} // namespace
