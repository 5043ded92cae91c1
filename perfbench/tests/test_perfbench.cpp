/**
 * @file
 * Tests of the harness's own logic: tail-percentile selection, the
 * Poisson schedule, span self-time arithmetic, and seed -> input
 * determinism. Run with
 * `python3 perfbench/run.py --test`.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i > 0; --i) // Unsorted on purpose.
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentiles()
{
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
    CHECK(percentile(ramp(10), 50.0) == 5.0);
    CHECK(percentile(ramp(10), 90.0) == 9.0);
    CHECK(percentile(ramp(10), 100.0) == 10.0);
    CHECK(percentile(ramp(10), 0.0) == 1.0);
    CHECK(percentile(ramp(1000), 99.0) == 990.0);
    CHECK(samplesBeyond(1000, 99.0) == 10);
    CHECK(samplesBeyond(999, 99.0) == 9);
    CHECK(samplesBeyond(0, 99.0) == 0);
}

void
testTailSelection()
{
    // Exactly ten beyond p99.
    Tail t = tailPercentile(ramp(1000));
    CHECK(t.percentile == 99.0 && t.beyond == 10 && t.value == 990.0);
    CHECK(t.samples == 1000);
    // One short for p99: falls to p95.
    t = tailPercentile(ramp(999));
    CHECK(t.percentile == 95.0 && t.beyond >= 10);
    // 40 samples: p75 has exactly ten beyond.
    t = tailPercentile(ramp(40));
    CHECK(t.percentile == 75.0 && t.beyond == 10 && t.value == 30.0);
    // 39 samples: nothing qualifies, the median is reported.
    t = tailPercentile(ramp(39));
    CHECK(t.percentile == 50.0 && t.value == 20.0);
    // The rule is a parameter.
    t = tailPercentile(ramp(100), 1);
    CHECK(t.percentile == 99.0 && t.beyond == 1);
}

void
testPoisson()
{
    const auto a = poissonSchedule(1000.0, 20000, 7);
    const auto b = poissonSchedule(1000.0, 20000, 7);
    const auto c = poissonSchedule(1000.0, 20000, 8);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 20000);
    // Pinned draws (to libm rounding): the schedule of a seed is fixed.
    CHECK(std::fabs(a[0] / 0x1.700c41f9d5ae6p-10 - 1.0) < 1e-12);
    CHECK(std::fabs(a[2] / 0x1.279db8b1dbd4cp-8 - 1.0) < 1e-12);
    bool increasing = a.front() > 0.0;
    for (size_t i = 1; i < a.size(); ++i)
        increasing = increasing && a[i] > a[i - 1];
    CHECK(increasing);
    // Mean inter-arrival 1 ms; the sample mean of 20000 exponentials
    // has a 0.7% standard error.
    CHECK(std::fabs(a.back() / 20000.0 - 1e-3) < 5e-5);
    // Rate scales time exactly.
    const auto d = poissonSchedule(2000.0, 20000, 7);
    CHECK(std::fabs(d.back() * 2.0 - a.back()) < 1e-9);
}

void
testSelfTime()
{
    CHECK(selfTimeUs(0.0, 100.0, {}) == 100.0);
    // Overlapping children are covered once.
    CHECK(selfTimeUs(0.0, 100.0, {{10.0, 20.0}, {15.0, 30.0}, {50.0, 60.0}})
          == 70.0);
    // Children are clipped to the parent.
    CHECK(selfTimeUs(0.0, 100.0, {{-5.0, 5.0}, {95.0, 120.0}}) == 90.0);
    // Nested grandchildren do not count twice.
    CHECK(selfTimeUs(0.0, 10.0, {{0.0, 10.0}, {2.0, 3.0}}) == 0.0);

    // Spans: op 1 = root(0..10ms) > a(1..4) > b(2..3); op 2 = root(0..5).
    std::vector<SpanRec> spans(4);
    spans[0] = {1, 0, "root", 0.0, 10000.0, 1, false};
    spans[1] = {2, 1, "a", 1000.0, 4000.0, 1, false};
    spans[2] = {3, 2, "b", 2000.0, 3000.0, 1, false};
    spans[3] = {4, 0, "root", 0.0, 5000.0, 2, false};
    const auto self = selfTimesMs(spans);
    CHECK(self[0] == 7.0 && self[1] == 2.0 && self[2] == 1.0
          && self[3] == 5.0);
    CHECK((perOpTotalsMs(spans, "root") == std::vector<double>{10.0, 5.0}));
    CHECK((perOpTotalsMs(spans, "root", true)
           == std::vector<double>{7.0, 5.0}));
    // A subset without its parents still computes.
    const std::vector<SpanRec> sub{spans[1], spans[2]};
    CHECK((selfTimesMs(sub) == std::vector<double>{2.0, 1.0}));
    CHECK((durationsMs(spans, "b") == std::vector<double>{1.0}));
    CHECK(opTotalMs(spans, "root", 1) == 10.0);
    CHECK(opTotalMs(spans, "root", 2) == 5.0);
    CHECK(opTotalMs(spans, "a", 2) == 0.0);
}

void
testTracer()
{
    Tracer &t = Tracer::instance();
    t.setEnabled(true);
    {
        const Span root("root", OpRoot{7});
        const Span child("child");
        const Span probe("probe", Probe{});
    }
    t.setEnabled(false);
    { const Span off("ignored"); }
    const auto spans = t.snapshot();
    CHECK(spans.size() == 3);
    CHECK(spans[1].parent == spans[0].id && spans[2].parent == spans[1].id);
    CHECK(spans[1].op == 7 && spans[2].op == 7 && spans[2].probe);
    CHECK(spans[0].endUs >= spans[1].endUs && spans[1].endUs >= 0.0);
}

void
testSeeds()
{
    // Derived seeds are pure functions of (seed, stream, index) and
    // pinned, so a run's inputs never change silently.
    CHECK(deriveSeed(1, 2, 3) == deriveSeed(1, 2, 3));
    CHECK(deriveSeed(1, 2, 3) != deriveSeed(1, 2, 4));
    CHECK(deriveSeed(1, 2, 3) != deriveSeed(1, 3, 3));
    CHECK(deriveSeed(1, 2, 3) != deriveSeed(2, 2, 3));
    CHECK(mix64(0) == 0xe220a8397b1dcdafull);
    CHECK(deriveSeed(1, 2, 3) == 0xe6f19ca578bd2189ull);
    const double u = unitDouble(deriveSeed(5, 6, 7));
    CHECK(u >= 0.0 && u < 1.0);
    CHECK(unitDouble(0) == 0.0);
    CHECK(unitDouble(~uint64_t{0}) < 1.0);
}

} // namespace

int
main()
{
    testPercentiles();
    testTailSelection();
    testPoisson();
    testSelfTime();
    testTracer();
    testSeeds();
    if (g_failures == 0)
        std::printf("perfbench_tests: all passed\n");
    return g_failures == 0 ? 0 : 1;
}
