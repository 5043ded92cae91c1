/**
 * @file
 * Cross-cutting parameterized property suites: serializer round trips
 * over the (sparsity x size) grid, accelerator-level invariants over
 * the full zoo, and scheduler/codec fuzzing over seeds.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "accel/accelerator.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "format/codec.hpp"
#include "format/serialize.hpp"
#include "sim/scheduler.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;

// ---------------------------------------------------------------------
// Serializer sweep.
// ---------------------------------------------------------------------

class SerializeSweep
    : public ::testing::TestWithParam<std::tuple<double, size_t>>
{
};

TEST_P(SerializeSweep, RoundTripAcrossGrid)
{
    const auto [sparsity, dim] = GetParam();
    const auto w = workload::synthWeights(
        {"ser-sweep", dim, dim, 1}, 1000 + dim);
    const auto tbs = core::tbsMask(core::magnitudeScores(w), sparsity,
                                   8, core::defaultCandidates(8));
    const auto bytes = format::serializeDdc(w, tbs.mask, tbs.meta);
    const auto parsed = format::deserializeDdc(bytes);

    core::Matrix expect = core::applyMask(w, tbs.mask);
    for (auto &v : expect.data())
        v = util::fp16Round(v);
    EXPECT_EQ(parsed.matrix, expect);
    EXPECT_EQ(parsed.mask, tbs.mask);
}

std::string
serializeSweepName(
    const ::testing::TestParamInfo<std::tuple<double, size_t>> &info)
{
    std::string name = "s";
    name += std::to_string(static_cast<int>(std::get<0>(info.param) * 1000));
    name += "_d";
    name += std::to_string(std::get<1>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SerializeSweep,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75, 0.875),
                       ::testing::Values(size_t{16}, size_t{64},
                                         size_t{136})),
    serializeSweepName);

// ---------------------------------------------------------------------
// Accelerator invariants over the zoo.
// ---------------------------------------------------------------------

class ZooInvariants : public ::testing::TestWithParam<accel::AccelKind>
{
};

TEST_P(ZooInvariants, SanityOfEveryRun)
{
    const auto kind = GetParam();
    accel::RunRequest req;
    req.shape = workload::GemmShape{"zoo", 256, 256, 64};
    req.sparsity = 0.625;
    const auto s = accel::runLayer(kind, req);
    EXPECT_GT(s.cycles, 0.0);
    EXPECT_GT(s.energy.totalJ(), 0.0);
    EXPECT_GT(s.edp, 0.0);
    EXPECT_LE(s.computeUtilisation, 1.0 + 1e-9);
    EXPECT_LE(s.bwUtilisation, 1.0 + 1e-9);
    EXPECT_LE(s.schedUtilisation, 1.0 + 1e-9);
    EXPECT_NEAR(s.breakdown.total, s.cycles, 1e-6);
}

TEST_P(ZooInvariants, MoreSparsityNeverSlower)
{
    const auto kind = GetParam();
    if (kind == accel::AccelKind::STC)
        return; // Hard-wired 4:8 ignores the requested degree.
    double prev = 1e300;
    for (double sp : {0.25, 0.5, 0.75, 0.875}) {
        accel::RunRequest req;
        req.shape = workload::GemmShape{"zoo-mono", 256, 256, 128};
        req.sparsity = sp;
        const auto s = accel::runLayer(kind, req);
        EXPECT_LE(s.cycles, prev * 1.02)
            << accel::accelName(kind) << " at " << sp;
        prev = s.cycles;
    }
}

std::string
zooName(const ::testing::TestParamInfo<accel::AccelKind> &info)
{
    std::string name = accel::accelName(info.param);
    std::erase(name, '-');
    std::erase(name, '+');
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooInvariants,
    ::testing::Values(accel::AccelKind::TC, accel::AccelKind::STC,
                      accel::AccelKind::Vegeta,
                      accel::AccelKind::HighLight,
                      accel::AccelKind::RmStc, accel::AccelKind::Sgcn,
                      accel::AccelKind::TbStc,
                      accel::AccelKind::TbStcFan),
    zooName);

// ---------------------------------------------------------------------
// Scheduler fuzz.
// ---------------------------------------------------------------------

class SchedulerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SchedulerFuzz, AwareDominatesAndBoundsHold)
{
    util::Rng rng(GetParam());
    const size_t n = 64 + rng.below(512);
    const size_t pes = 1 + rng.below(128);
    std::vector<uint64_t> costs(n);
    uint64_t total = 0;
    uint64_t biggest = 0;
    for (auto &c : costs) {
        c = rng.below(17);
        total += c;
        biggest = std::max(biggest, c);
    }
    const auto naive =
        sim::scheduleBlocks(costs, pes, sim::InterSched::Naive, 8);
    const auto aware =
        sim::scheduleBlocks(costs, pes, sim::InterSched::Aware, 8);
    EXPECT_LE(aware.makespan, naive.makespan);
    for (const auto &r : {naive, aware}) {
        EXPECT_GE(r.makespan, (total + pes - 1) / pes);
        EXPECT_GE(r.makespan, biggest);
        EXPECT_LE(r.utilisation, 1.0 + 1e-9);
        EXPECT_DOUBLE_EQ(r.busyBeats, static_cast<double>(total));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------
// Codec fuzz: arbitrary legal blocks always convert losslessly.
// ---------------------------------------------------------------------

class CodecFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CodecFuzz, ConversionIsLossless)
{
    util::Rng rng(GetParam());
    std::vector<format::StorageElem> storage;
    float v = 1.0f;
    for (uint8_t col = 0; col < 8; ++col) {
        const size_t n = rng.below(9);
        const auto rows = rng.permutation(8);
        for (size_t k = 0; k < n; ++k)
            storage.push_back(
                {v++, static_cast<uint8_t>(rows[k]), col});
    }
    const auto out = format::convertToComputation(storage, {8, 2, 2});
    ASSERT_EQ(out.values.size(), storage.size());
    std::multiset<std::tuple<float, uint8_t, uint8_t>> in_set;
    std::multiset<std::tuple<float, uint8_t, uint8_t>> out_set;
    for (const auto &e : storage)
        in_set.emplace(e.value, e.rid, e.iid);
    for (size_t i = 0; i < out.values.size(); ++i)
        out_set.emplace(out.values[i], out.rids[i], out.iids[i]);
    EXPECT_EQ(in_set, out_set);
    if (!storage.empty()) {
        EXPECT_GE(out.cycles, (storage.size() + 1) / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

} // namespace
