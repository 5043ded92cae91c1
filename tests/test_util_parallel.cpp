/**
 * @file
 * Tests of the deterministic parallel execution layer: pool basics
 * (full index coverage, ordered results), exception propagation,
 * ordered-reduction bit-identity across thread counts, nested regions
 * (deadlock freedom, idle-worker help, exceptions), concurrent
 * submitters, and the worker-count resolution chain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace {

using namespace tbstc;

TEST(Parallel, ForCoversEveryIndexOnce)
{
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        util::ThreadScope scope(threads);
        std::vector<std::atomic<int>> hits(1000);
        util::parallelFor(hits.size(), 0, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                hits[i].fetch_add(1);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, ForRespectsExplicitGrain)
{
    util::ThreadScope scope(4);
    std::vector<std::pair<size_t, size_t>> ranges(4);
    util::parallelFor(10, 3, [&](size_t b, size_t e) {
        ranges[b / 3] = {b, e};
    });
    EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 3}));
    EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{3, 6}));
    EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{6, 9}));
    EXPECT_EQ(ranges[3], (std::pair<size_t, size_t>{9, 10}));
}

TEST(Parallel, MapReturnsResultsInIndexOrder)
{
    for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
        util::ThreadScope scope(threads);
        const auto out = util::parallelMap<size_t>(
            257, [](size_t i) { return i * i; });
        ASSERT_EQ(out.size(), 257u);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(Parallel, OrderedReduceFloatSumBitIdenticalAcrossThreadCounts)
{
    // A float sum whose value depends on association order: identical
    // chunk layout + in-order fold must reproduce it bit for bit at
    // any worker count.
    const auto sum = [](size_t) {
        return util::orderedReduce<float>(
            10000, 64, 0.0f,
            [](size_t b, size_t e) {
                float s = 0.0f;
                for (size_t i = b; i < e; ++i)
                    s += std::sin(static_cast<float>(i)) * 1e-3f
                        + 1e4f / static_cast<float>(i + 1);
                return s;
            },
            [](float acc, float c) { return acc + c; });
    };
    util::ThreadScope serial(1);
    const float golden = sum(0);
    for (size_t threads : {size_t{2}, size_t{5}, size_t{8}}) {
        util::ThreadScope scope(threads);
        for (int rep = 0; rep < 4; ++rep)
            EXPECT_EQ(sum(0), golden);
    }
}

TEST(Parallel, OrderedReduceFoldsInChunkOrder)
{
    util::ThreadScope scope(8);
    // Non-commutative reduction: string concatenation exposes any
    // out-of-order fold immediately.
    const std::string joined = util::orderedReduce<std::string>(
        26, 4, std::string{},
        [](size_t b, size_t e) {
            std::string s;
            for (size_t i = b; i < e; ++i)
                s += static_cast<char>('a' + i);
            return s;
        },
        [](std::string acc, std::string c) { return acc + c; });
    EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives)
{
    util::ThreadScope scope(4);
    EXPECT_THROW(
        util::parallelFor(100, 1,
                          [](size_t b, size_t) {
                              if (b == 37)
                                  throw std::runtime_error("chunk 37");
                          }),
        std::runtime_error);
    // The pool must stay usable after a throwing batch.
    std::atomic<size_t> visited{0};
    util::parallelFor(64, 1, [&](size_t b, size_t e) {
        visited.fetch_add(e - b);
    });
    EXPECT_EQ(visited.load(), 64u);
}

TEST(Parallel, LowestChunkExceptionWins)
{
    util::ThreadScope scope(4);
    try {
        util::parallelFor(50, 1, [](size_t b, size_t) {
            if (b == 10 || b == 40)
                throw std::runtime_error("chunk "
                                         + std::to_string(b));
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk 10");
    }
}

TEST(Parallel, NestedRegionsRunInlineWithoutDeadlock)
{
    util::ThreadScope scope(8);
    std::vector<size_t> inner_sums(16);
    util::parallelFor(16, 1, [&](size_t b, size_t) {
        // A parallel region inside a pool worker must not re-enter the
        // pool (deadlock) — it runs inline with identical chunking.
        inner_sums[b] = util::orderedReduce<size_t>(
            100, 10, size_t{0},
            [](size_t lo, size_t hi) {
                size_t s = 0;
                for (size_t i = lo; i < hi; ++i)
                    s += i;
                return s;
            },
            [](size_t acc, size_t c) { return acc + c; });
    });
    for (size_t s : inner_sums)
        EXPECT_EQ(s, 4950u);
}

TEST(Parallel, NestedRegionRunsOnIdleWorkers)
{
    // Two outer chunks on a four-worker pool leave two workers idle;
    // each inner region must reach them. Inner chunk 0 holds its
    // thread until another thread has run a chunk of the same region,
    // which an inline nested region could never satisfy.
    util::ThreadScope scope(4);
    std::vector<int> helped(2, 0);
    util::parallelFor(2, 1, [&](size_t outer, size_t) {
        std::atomic<bool> other{false};
        std::thread::id first;
        std::atomic<bool> first_set{false};
        util::parallelFor(8, 1, [&](size_t inner, size_t) {
            if (inner != 0) {
                while (!first_set.load())
                    std::this_thread::yield();
                if (std::this_thread::get_id() != first)
                    other.store(true);
                return;
            }
            first = std::this_thread::get_id();
            first_set.store(true);
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(20);
            while (!other.load()
                   && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        });
        helped[outer] = other.load() ? 1 : 0;
    });
    EXPECT_EQ(helped[0], 1);
    EXPECT_EQ(helped[1], 1);
}

TEST(Parallel, ThreeLevelNestingPropagatesInnerException)
{
    util::ThreadScope scope(4);
    const auto nest = [](std::atomic<size_t> &leaves, bool fail) {
        util::parallelFor(3, 1, [&](size_t a, size_t) {
            util::parallelFor(3, 1, [&](size_t b, size_t) {
                util::parallelFor(4, 1, [&](size_t c, size_t) {
                    if (fail && a == 1 && b == 2 && c == 3)
                        throw std::runtime_error("leaf 1.2.3");
                    leaves.fetch_add(1);
                });
            });
        });
    };
    for (int rep = 0; rep < 25; ++rep) {
        std::atomic<size_t> leaves{0};
        try {
            nest(leaves, true);
            FAIL() << "expected a rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "leaf 1.2.3");
        }
        EXPECT_EQ(leaves.load(), 35u); // Every other leaf still ran.
    }
    std::atomic<size_t> leaves{0};
    nest(leaves, false);
    EXPECT_EQ(leaves.load(), 36u);
}

TEST(Parallel, ConcurrentSubmittersShareThePool)
{
    // Submitters on unrelated threads each get their own batch on the
    // shared pool; every region still covers its range exactly once.
    std::vector<std::thread> threads;
    std::vector<int> ok(4, 0);
    for (size_t t = 0; t < ok.size(); ++t) {
        threads.emplace_back([&, t] {
            util::ThreadScope scope(4);
            bool good = true;
            for (int rep = 0; rep < 40; ++rep) {
                const uint64_t sum = util::orderedReduce<uint64_t>(
                    1000, 7, uint64_t{0},
                    [](size_t b, size_t e) {
                        uint64_t acc = 0;
                        for (size_t i = b; i < e; ++i)
                            acc += i;
                        return acc;
                    },
                    [](uint64_t a, uint64_t b) { return a + b; });
                good = good && sum == 499500u;
            }
            ok[t] = good ? 1 : 0;
        });
    }
    for (auto &th : threads)
        th.join();
    for (int v : ok)
        EXPECT_EQ(v, 1);
}

TEST(Parallel, EffectiveThreadsResolution)
{
    const size_t ambient = util::effectiveThreads();
    EXPECT_GE(ambient, 1u);
    {
        util::ThreadScope scope(3);
        EXPECT_EQ(util::effectiveThreads(), 3u);
        {
            util::ThreadScope inner(7);
            EXPECT_EQ(util::effectiveThreads(), 7u);
        }
        EXPECT_EQ(util::effectiveThreads(), 3u);
        util::ThreadScope noop(0); // 0 = inherit, must not change.
        EXPECT_EQ(util::effectiveThreads(), 3u);
    }
    EXPECT_EQ(util::effectiveThreads(), ambient);

    util::setThreads(5);
    EXPECT_EQ(util::effectiveThreads(), 5u);
    util::setThreads(0);
    EXPECT_EQ(util::effectiveThreads(), ambient);
}

TEST(Parallel, RngStreamsAreDeterministicAndIndependent)
{
    auto a = util::rngStreams(123, 8);
    auto b = util::rngStreams(123, 8);
    ASSERT_EQ(a.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].next(), b[i].next());
    // Distinct streams diverge from the first draw.
    auto c = util::rngStreams(123, 2);
    EXPECT_NE(c[0].next(), c[1].next());
    // Streams depend only on (seed, n prefix): asking for more streams
    // must not perturb the earlier ones.
    auto d = util::rngStreams(123, 16);
    auto e = util::rngStreams(123, 8);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(d[i].next(), e[i].next());
}

TEST(Parallel, StochasticMapBitIdenticalAcrossThreadCounts)
{
    // The pattern future sweeps use: one split stream per work unit,
    // parallel evaluation, index-ordered results.
    const auto draw = [](size_t threads) {
        util::ThreadScope scope(threads);
        auto streams = util::rngStreams(99, 32);
        return util::parallelMap<double>(32, [&](size_t i) {
            double acc = 0.0;
            for (int k = 0; k < 100; ++k)
                acc += streams[i].gaussian();
            return acc;
        });
    };
    const auto serial = draw(1);
    for (size_t threads : {size_t{2}, size_t{8}})
        EXPECT_EQ(draw(threads), serial);
}

TEST(Parallel, EmptyAndSingleRanges)
{
    util::ThreadScope scope(8);
    bool ran = false;
    util::parallelFor(0, 0, [&](size_t, size_t) { ran = true; });
    EXPECT_FALSE(ran);
    util::parallelFor(1, 0, [&](size_t b, size_t e) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
        ran = true;
    });
    EXPECT_TRUE(ran);
    EXPECT_EQ(util::orderedReduce<int>(
                  0, 4, -7, [](size_t, size_t) { return 0; },
                  [](int a, int b) { return a + b; }),
              -7);
}

TEST(Parallel, ShutdownPoolJoinsAndRebuildsLazily)
{
    util::ThreadScope scope(4);
    const auto sum = [] {
        return util::orderedReduce<uint64_t>(
            1000, 10, uint64_t{0},
            [](size_t b, size_t e) {
                uint64_t acc = 0;
                for (size_t i = b; i < e; ++i)
                    acc += i;
                return acc;
            },
            [](uint64_t a, uint64_t b) { return a + b; });
    };
    EXPECT_EQ(sum(), 499500u);
    util::shutdownPool();
    // The next region rebuilds the pool transparently.
    EXPECT_EQ(sum(), 499500u);
    util::shutdownPool();
    util::shutdownPool(); // Idempotent; no pool to destroy.
    EXPECT_EQ(sum(), 499500u);
    util::shutdownPool();
}

TEST(Parallel, DrainPoolWaitsForSubmittedWork)
{
    util::ThreadScope scope(4);
    util::drainPool(); // No pool yet: no-op.
    std::atomic<int> done{0};
    std::thread submitter([&] {
        util::ThreadScope inner(4);
        util::parallelFor(64, 1, [&](size_t, size_t) {
            done.fetch_add(1);
        });
    });
    submitter.join();
    util::drainPool(); // Pool idle again: returns immediately.
    EXPECT_EQ(done.load(), 64);
    util::shutdownPool();
}

TEST(Parallel, DrainInsideRegionIsNoopAndShutdownRefuses)
{
    util::ThreadScope scope(4);
    std::atomic<int> panics{0};
    util::parallelFor(8, 1, [&](size_t, size_t) {
        util::drainPool(); // Caller is the in-flight work: no-op.
        try {
            util::shutdownPool();
        } catch (const util::PanicError &) {
            panics.fetch_add(1);
        }
    });
    EXPECT_EQ(panics.load(), 8);
    util::shutdownPool();
}

} // namespace
