/**
 * @file
 * Tests for core/utilization.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/utilization.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace core
{
namespace
{

disk::ServiceLog
logWith(Tick window, std::vector<trace::BusyInterval> busy)
{
    disk::ServiceLog log;
    log.window_start = 0;
    log.window_end = window;
    log.busy = std::move(busy);
    return log;
}

TEST(Utilization, HandBuiltProfile)
{
    // 10 s window, busy [0,1s) and [5s,9s): mean util 0.5.
    auto log = logWith(10 * kSec,
                       {{0, kSec}, {5 * kSec, 9 * kSec}});
    UtilizationProfile p = utilizationProfile(log, kSec);
    ASSERT_EQ(p.series.size(), 10u);
    EXPECT_NEAR(p.mean, 0.5, 1e-9);
    EXPECT_NEAR(p.peak, 1.0, 1e-9);
    EXPECT_NEAR(p.idle_fraction, 0.5, 1e-9);
    EXPECT_NEAR(p.saturated_fraction, 0.5, 1e-9);
    EXPECT_EQ(p.bin_width, kSec);
}

/** utilizationProfile() of one log at each width, in order. */
std::vector<UtilizationProfile>
profilesAt(const disk::ServiceLog &log, const std::vector<Tick> &widths)
{
    std::vector<UtilizationProfile> out;
    for (Tick w : widths)
        out.push_back(utilizationProfile(log, w));
    return out;
}

TEST(Utilization, MeanInvariantAcrossScales)
{
    auto log = logWith(100 * kSec,
                       {{3 * kSec, 17 * kSec},
                        {40 * kSec, 41 * kSec},
                        {80 * kSec, 99 * kSec}});
    auto profiles = profilesAt(
        log, {100 * kMsec, kSec, 10 * kSec, 100 * kSec});
    ASSERT_EQ(profiles.size(), 4u);
    for (const auto &p : profiles)
        EXPECT_NEAR(p.mean, profiles[0].mean, 1e-6);
}

TEST(Utilization, PeakGrowsAsWindowShrinks)
{
    // One 1-second burst in 100 s: invisible at coarse scale.
    auto log = logWith(100 * kSec, {{50 * kSec, 51 * kSec}});
    auto profiles = profilesAt(
        log, {100 * kMsec, 10 * kSec, 100 * kSec});
    EXPECT_NEAR(profiles[0].peak, 1.0, 1e-9);
    EXPECT_NEAR(profiles[1].peak, 0.1, 1e-9);
    EXPECT_NEAR(profiles[2].peak, 0.01, 1e-9);
    // Monotone non-increasing peaks with coarser bins.
    EXPECT_GE(profiles[0].peak, profiles[1].peak);
    EXPECT_GE(profiles[1].peak, profiles[2].peak);
}

TEST(Utilization, FromHourTrace)
{
    trace::HourTrace t("d", 0);
    for (double u : {0.0, 0.25, 0.5, 1.0}) {
        trace::HourBucket b;
        b.busy = static_cast<Tick>(u * static_cast<double>(kHour));
        t.append(b);
    }
    UtilizationProfile p = utilizationProfile(t);
    EXPECT_EQ(p.bin_width, kHour);
    EXPECT_NEAR(p.mean, 0.4375, 1e-9);
    EXPECT_NEAR(p.idle_fraction, 0.25, 1e-9);
    EXPECT_NEAR(p.saturated_fraction, 0.25, 1e-9);
}

TEST(Utilization, EmptyLog)
{
    auto log = logWith(0, {});
    UtilizationProfile p = utilizationProfile(log, kSec);
    EXPECT_TRUE(p.series.empty());
    EXPECT_DOUBLE_EQ(p.mean, 0.0);
}

TEST(Utilization, ModerateWorkloadIsModeratelyUtilized)
{
    // The paper's headline: realistic enterprise load leaves the
    // drive moderately utilized with idle bins present.
    Rng rng(1);
    synth::Workload w =
        synth::Workload::makeOltp(1 << 22, 60.0);
    trace::MsTrace tr = w.generate(rng, "d", 0, 60 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    disk::ServiceLog log = drive.service(tr);
    UtilizationProfile p = utilizationProfile(log, kSec);
    EXPECT_GT(p.mean, 0.02);
    EXPECT_LT(p.mean, 0.8);
    EXPECT_GT(p.peak, p.mean);
}

} // anonymous namespace
} // namespace core
} // namespace dlw
