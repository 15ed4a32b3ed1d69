/**
 * @file
 * Property tests for trace/aggregate: the cross-scale identities
 * (ms -> hour -> lifetime) must hold exactly for arbitrary traces.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "synth/workload.hh"
#include "trace/aggregate.hh"

namespace dlw
{
namespace trace
{
namespace
{

Request
mk(Tick at, Lba lba, BlockCount blocks, Op op)
{
    Request r;
    r.arrival = at;
    r.lba = lba;
    r.blocks = blocks;
    r.op = op;
    return r;
}

TEST(Aggregate, MsToHourCountsByHour)
{
    MsTrace ms("d", 0, 3 * kHour);
    ms.append(mk(10 * kMinute, 0, 8, Op::Read));
    ms.append(mk(50 * kMinute, 0, 4, Op::Write));
    ms.append(mk(kHour + kMinute, 0, 2, Op::Read));
    // Hour 2 left empty.

    HourTrace h = msToHour(ms);
    ASSERT_EQ(h.hours(), 3u);
    EXPECT_EQ(h.at(0).reads, 1u);
    EXPECT_EQ(h.at(0).writes, 1u);
    EXPECT_EQ(h.at(0).read_blocks, 8u);
    EXPECT_EQ(h.at(0).write_blocks, 4u);
    EXPECT_EQ(h.at(1).reads, 1u);
    EXPECT_EQ(h.at(2).total(), 0u);
    EXPECT_TRUE(consistentMsHour(ms, h));
}

TEST(Aggregate, BusyIntervalsSplitAcrossHourBoundary)
{
    MsTrace ms("d", 0, 2 * kHour);
    std::vector<BusyInterval> busy = {
        {kHour - 10 * kMinute, kHour + 20 * kMinute},
    };
    HourTrace h = msToHour(ms, busy);
    ASSERT_EQ(h.hours(), 2u);
    EXPECT_EQ(h.at(0).busy, 10 * kMinute);
    EXPECT_EQ(h.at(1).busy, 20 * kMinute);
}

TEST(Aggregate, BusyTotalConserved)
{
    MsTrace ms("d", 0, 5 * kHour);
    std::vector<BusyInterval> busy = {
        {5 * kMinute, 10 * kMinute},
        {kHour - kMinute, 3 * kHour + 7 * kMinute},
        {4 * kHour, 4 * kHour + 30 * kMinute},
    };
    Tick total = 0;
    for (auto &iv : busy)
        total += iv.second - iv.first;

    HourTrace h = msToHour(ms, busy);
    Tick sum = 0;
    for (const HourBucket &b : h.buckets()) {
        EXPECT_GE(b.busy, 0);
        EXPECT_LE(b.busy, kHour);
        sum += b.busy;
    }
    EXPECT_EQ(sum, total);
}

TEST(Aggregate, HourToLifetimeIdentity)
{
    HourTrace h("d", 0);
    for (int i = 0; i < 30; ++i) {
        HourBucket b;
        b.reads = static_cast<std::uint64_t>(10 + i);
        b.writes = 5;
        b.read_blocks = b.reads * 8;
        b.write_blocks = b.writes * 16;
        b.busy = (i % 3 == 0) ? kHour : kHour / 10;
        h.append(b);
    }
    LifetimeRecord life = hourToLifetime(h, 0.9);
    EXPECT_TRUE(consistentHourLifetime(h, life));
    EXPECT_EQ(life.power_on, 30 * kHour);
    // Saturated hours are the i % 3 == 0 ones; max run is 1.
    EXPECT_EQ(life.saturated_hours, 10u);
    EXPECT_EQ(life.longest_saturated_run, 1u);
    EXPECT_EQ(life.peak_hour_requests, 39u + 5u);
}

TEST(Aggregate, SaturatedRunCounting)
{
    HourTrace h("d", 0);
    for (double u : {1.0, 1.0, 0.95, 0.2, 1.0, 0.91}) {
        HourBucket b;
        b.busy = static_cast<Tick>(u * static_cast<double>(kHour));
        h.append(b);
    }
    LifetimeRecord life = hourToLifetime(h, 0.9);
    EXPECT_EQ(life.saturated_hours, 5u);
    EXPECT_EQ(life.longest_saturated_run, 3u);
}

TEST(Aggregate, PropertyRandomWorkloadsConsistent)
{
    // Sweep several generated workloads: totals must survive both
    // aggregation hops exactly.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        synth::Workload w =
            synth::Workload::makeFileServer(1 << 20, 30.0, seed);
        MsTrace ms = w.generate(rng, "d", 0, 2 * kHour + 17 * kMinute);
        HourTrace h = msToHour(ms);
        EXPECT_TRUE(consistentMsHour(ms, h)) << "seed " << seed;
        LifetimeRecord life = hourToLifetime(h);
        EXPECT_TRUE(consistentHourLifetime(h, life)) << "seed " << seed;
        // Request conservation end to end.
        EXPECT_EQ(life.total(), ms.size()) << "seed " << seed;
    }
}

TEST(Aggregate, InconsistencyDetected)
{
    MsTrace ms("d", 0, kHour);
    ms.append(mk(1, 0, 8, Op::Read));
    HourTrace h = msToHour(ms);
    h.bucketFor(0).reads += 1; // corrupt
    EXPECT_FALSE(consistentMsHour(ms, h));

    HourTrace h2 = msToHour(ms);
    LifetimeRecord life = hourToLifetime(h2);
    life.writes += 1; // corrupt
    EXPECT_FALSE(consistentHourLifetime(h2, life));
}

TEST(Aggregate, EmptyTraceYieldsEmptyHour)
{
    MsTrace ms("d", 0, 90 * kMinute);
    HourTrace h = msToHour(ms);
    EXPECT_EQ(h.hours(), 2u); // grid still covers the window
    EXPECT_EQ(h.totalRequests(), 0u);
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
