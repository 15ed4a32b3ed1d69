/**
 * @file
 * Randomized property sweep: for a grid of workload classes, seeds,
 * and drive configurations, the end-to-end pipeline must uphold its
 * invariants.  This is the wide net that catches interactions the
 * targeted unit tests miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/idleness.hh"
#include "core/utilization.hh"
#include "disk/drive.hh"
#include "synth/workload.hh"
#include "trace/aggregate.hh"

namespace dlw
{
namespace
{

enum class Wl
{
    Oltp,
    FileServer,
    Streaming,
    Backup,
};

const char *
wlName(Wl w)
{
    switch (w) {
      case Wl::Oltp:
        return "oltp";
      case Wl::FileServer:
        return "fileserver";
      case Wl::Streaming:
        return "streaming";
      case Wl::Backup:
        return "backup";
    }
    return "?";
}

synth::Workload
build(Wl wl, Lba cap, double rate, std::uint64_t seed)
{
    switch (wl) {
      case Wl::Oltp:
        return synth::Workload::makeOltp(cap, rate, seed);
      case Wl::FileServer:
        return synth::Workload::makeFileServer(cap, rate, seed);
      case Wl::Streaming:
        return synth::Workload::makeStreaming(cap, rate);
      case Wl::Backup:
        return synth::Workload::makeBackup(cap, rate);
    }
    dlw_panic("unreachable");
}

using SweepParam =
    std::tuple<Wl, std::uint64_t /*seed*/, bool /*cache*/,
               disk::SchedPolicy>;

class PipelineSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(PipelineSweep, InvariantsHold)
{
    const auto [wl, seed, cache, sched] = GetParam();
    SCOPED_TRACE(wlName(wl));

    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    cfg.cache.enabled = cache;
    cfg.sched = sched;

    Rng rng(seed);
    synth::Workload w =
        build(wl, cfg.geometry.capacityBlocks(), 50.0, seed);
    trace::MsTrace tr = w.generate(rng, "sweep", 0, 10 * kSec);
    ASSERT_TRUE(tr.validate());

    disk::DiskDrive drive(cfg);
    disk::ServiceLog log = drive.service(tr);

    // 1. Every request completes exactly once, never before arrival.
    ASSERT_EQ(log.completions.size(), tr.size());
    std::vector<bool> seen(tr.size(), false);
    for (const disk::Completion &c : log.completions) {
        ASSERT_LT(c.index, tr.size());
        EXPECT_FALSE(seen[c.index]);
        seen[c.index] = true;
        EXPECT_GE(c.finish, c.arrival);
        EXPECT_GE(c.start, c.arrival);
        EXPECT_GE(c.finish, c.start);
    }

    // 2. Busy intervals are sorted, disjoint, inside the window.
    for (std::size_t i = 0; i < log.busy.size(); ++i) {
        EXPECT_LT(log.busy[i].first, log.busy[i].second);
        EXPECT_GE(log.busy[i].first, log.window_start);
        EXPECT_LE(log.busy[i].second, log.window_end);
        if (i > 0) {
            EXPECT_GT(log.busy[i].first, log.busy[i - 1].second);
        }
    }

    // 3. Busy + idle == window; utilization in [0, 1].
    Tick idle = 0;
    for (Tick g : log.idleIntervals())
        idle += g;
    EXPECT_EQ(idle + log.busyTime(),
              log.window_end - log.window_start);
    EXPECT_GE(log.utilization(), 0.0);
    EXPECT_LE(log.utilization(), 1.0);

    // 4. Aggregation identities hold.
    trace::HourTrace ht = trace::msToHour(tr, log.busy);
    EXPECT_TRUE(trace::consistentMsHour(tr, ht));
    trace::LifetimeRecord life = trace::hourToLifetime(ht);
    EXPECT_TRUE(trace::consistentHourLifetime(ht, life));

    // 5. Utilization profiles bounded at every scale.
    for (Tick width : {100 * kMsec, kSec}) {
        core::UtilizationProfile p =
            core::utilizationProfile(log, width);
        EXPECT_GE(p.mean, 0.0);
        EXPECT_LE(p.peak, 1.0 + 1e-9);
    }

    // 6. Idleness mass function is a valid survival curve.
    core::IdlenessAnalysis ia(log);
    double prev = 1.0;
    for (Tick t : {kMsec, 10 * kMsec, 100 * kMsec, kSec}) {
        const double m = ia.idleMassAtLeast(t);
        EXPECT_LE(m, prev + 1e-12);
        EXPECT_GE(m, 0.0);
        prev = m;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ClassesSeedsConfigs, PipelineSweep,
    ::testing::Combine(
        ::testing::Values(Wl::Oltp, Wl::FileServer, Wl::Streaming,
                          Wl::Backup),
        ::testing::Values(1u, 7u, 1234u),
        ::testing::Values(true, false),
        ::testing::Values(disk::SchedPolicy::Fcfs,
                          disk::SchedPolicy::Sstf,
                          disk::SchedPolicy::Elevator)));

using MechParam = std::tuple<Wl, bool /*cache*/, disk::SchedPolicy>;

class WorkConservation : public ::testing::TestWithParam<MechParam>
{
};

/**
 * The drive has one mechanism and never leaves it idle while a
 * request waits for it.  At a load where queues form, for every
 * class, scheduler and cache setting: mechanical services never
 * overlap, each lies inside one busy interval, a request that waited
 * was waiting inside the busy interval it was served in, and a
 * cache-served request takes exactly the controller overhead.  With
 * the cache off, the busy time is the sum of the service times.
 */
TEST_P(WorkConservation, MechanismNeverIdlesWhileARequestWaits)
{
    const auto [wl, cache, sched] = GetParam();
    SCOPED_TRACE(wlName(wl));

    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    cfg.cache.enabled = cache;
    cfg.sched = sched;

    Rng rng(11);
    synth::Workload w =
        build(wl, cfg.geometry.capacityBlocks(), 150.0, 11);
    trace::MsTrace tr = w.generate(rng, "mech", 0, 10 * kSec);
    ASSERT_TRUE(tr.validate());
    disk::ServiceLog log = disk::DiskDrive(cfg).service(tr);
    ASSERT_EQ(log.completions.size(), tr.size());

    std::vector<disk::Completion> mech;
    for (const disk::Completion &c : log.completions) {
        if (c.cache_hit) {
            EXPECT_EQ(c.finish - c.start, cfg.overhead);
        } else {
            mech.push_back(c);
        }
    }
    std::sort(mech.begin(), mech.end(),
              [](const disk::Completion &a, const disk::Completion &b) {
                  return a.start < b.start;
              });

    // The busy interval holding tick t, or log.busy.end().
    auto holding = [&log](Tick t) {
        auto it = std::upper_bound(
            log.busy.begin(), log.busy.end(), t,
            [](Tick v, const trace::BusyInterval &iv) {
                return v < iv.second;
            });
        return it != log.busy.end() && it->first <= t ? it
                                                      : log.busy.end();
    };

    Tick served = 0;
    std::size_t waited = 0;
    for (std::size_t i = 0; i < mech.size(); ++i) {
        const disk::Completion &c = mech[i];
        ASSERT_GT(c.finish, c.start);
        if (i > 0) {
            ASSERT_GE(c.start, mech[i - 1].finish)
                << "request " << c.index;
        }
        const auto iv = holding(c.start);
        ASSERT_NE(iv, log.busy.end()) << "request " << c.index;
        EXPECT_LE(c.finish, iv->second) << "request " << c.index;
        if (c.start > c.arrival) {
            ++waited;
            EXPECT_LE(iv->first, c.arrival) << "request " << c.index;
        }
        served += c.finish - c.start;
    }
    EXPECT_GT(waited, 0u) << "no queue formed; the check is empty";
    if (!cache) {
        EXPECT_EQ(mech.size(), tr.size());
        EXPECT_EQ(log.destages, 0u);
        EXPECT_EQ(log.busyTime(), served);
    } else {
        EXPECT_GE(log.busyTime(), served);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ClassesConfigs, WorkConservation,
    ::testing::Combine(
        ::testing::Values(Wl::Oltp, Wl::FileServer, Wl::Streaming,
                          Wl::Backup),
        ::testing::Values(true, false),
        ::testing::Values(disk::SchedPolicy::Fcfs,
                          disk::SchedPolicy::Sstf,
                          disk::SchedPolicy::Elevator)),
    [](const ::testing::TestParamInfo<MechParam> &p) {
        return std::string(wlName(std::get<0>(p.param))) +
               (std::get<1>(p.param) ? "_cache_" : "_nocache_") +
               disk::schedPolicyName(std::get<2>(p.param));
    });

} // anonymous namespace
} // namespace dlw
