/**
 * @file
 * Tests for the synth/family population generator.
 */

#include <gtest/gtest.h>

#include <map>

#include "synth/family.hh"
#include "trace/aggregate.hh"

namespace dlw
{
namespace synth
{
namespace
{

FamilyConfig
config(std::uint64_t seed = 42)
{
    FamilyConfig c;
    c.family = "TEST-FAM";
    c.seed = seed;
    return c;
}

TEST(Family, ProfilesDeterministicPerIndex)
{
    FamilyModel m1(config()), m2(config());
    for (std::size_t i = 0; i < 10; ++i) {
        DriveProfile a = m1.sampleProfile(i);
        DriveProfile b = m2.sampleProfile(i);
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_DOUBLE_EQ(a.base_rate, b.base_rate);
        EXPECT_DOUBLE_EQ(a.read_fraction, b.read_fraction);
    }
}

TEST(Family, SeedChangesPopulation)
{
    FamilyModel m1(config(1)), m2(config(2));
    int differing = 0;
    for (std::size_t i = 0; i < 20; ++i) {
        if (m1.sampleProfile(i).base_rate !=
            m2.sampleProfile(i).base_rate)
            ++differing;
    }
    EXPECT_GT(differing, 15);
}

TEST(Family, ClassMixtureApproximatesWeights)
{
    FamilyModel m(config());
    std::map<DriveClass, int> counts;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        ++counts[m.sampleProfile(static_cast<std::size_t>(i)).cls];
    // Weights: 0.15/0.30/0.35/0.14/0.06.
    EXPECT_NEAR(static_cast<double>(counts[DriveClass::Archival]) / n,
                0.15, 0.03);
    EXPECT_NEAR(static_cast<double>(counts[DriveClass::Moderate]) / n,
                0.35, 0.04);
    EXPECT_NEAR(static_cast<double>(counts[DriveClass::Streamer]) / n,
                0.06, 0.02);
}

TEST(Family, HourTraceIsValidAndDiurnal)
{
    FamilyModel m(config());
    DriveProfile p = m.sampleProfile(3);
    trace::HourTrace t = m.generateHourTrace(p, 24 * 14);
    EXPECT_EQ(t.hours(), 24u * 14u);
    for (const trace::HourBucket &b : t.buckets()) {
        EXPECT_GE(b.busy, 0);
        EXPECT_LE(b.busy, kHour);
        EXPECT_TRUE(b.reads > 0 || b.read_blocks == 0);
        EXPECT_TRUE(b.writes > 0 || b.write_blocks == 0);
    }
    EXPECT_GT(t.totalRequests(), 0u);
}

TEST(Family, HourTraceDeterministic)
{
    FamilyModel m(config());
    DriveProfile p = m.sampleProfile(5);
    trace::HourTrace a = m.generateHourTrace(p, 100);
    trace::HourTrace b = m.generateHourTrace(p, 100);
    for (std::size_t h = 0; h < 100; ++h)
        EXPECT_TRUE(a.at(h) == b.at(h)) << "hour " << h;
}

TEST(Family, StreamersSaturateForHours)
{
    FamilyModel m(config());
    // Find streamer profiles and confirm at least one long
    // saturated run over a month.
    std::size_t with_runs = 0, streamers = 0;
    for (std::size_t i = 0; i < 200 && streamers < 8; ++i) {
        DriveProfile p = m.sampleProfile(i);
        if (p.cls != DriveClass::Streamer)
            continue;
        ++streamers;
        trace::HourTrace t = m.generateHourTrace(p, 24 * 30);
        if (t.longestBusyRun(0.9) >= 3)
            ++with_runs;
    }
    ASSERT_GT(streamers, 0u);
    EXPECT_GT(with_runs, 0u);
}

TEST(Family, NonStreamersRarelySaturate)
{
    FamilyModel m(config());
    std::size_t checked = 0;
    for (std::size_t i = 0; i < 100 && checked < 10; ++i) {
        DriveProfile p = m.sampleProfile(i);
        if (p.cls != DriveClass::Light &&
            p.cls != DriveClass::Archival)
            continue;
        ++checked;
        trace::HourTrace t = m.generateHourTrace(p, 24 * 14);
        EXPECT_LT(t.busyHourFraction(0.9), 0.05) << p.id;
    }
    EXPECT_GT(checked, 0u);
}

TEST(Family, LifetimeMatchesStreamedHourProcess)
{
    FamilyModel m(config());
    DriveProfile p = m.sampleProfile(7);
    // Lifetime generation must equal aggregating the hour trace
    // generated from the same profile (same rng seeding).
    const std::size_t hours = 500;
    trace::HourTrace ht = m.generateHourTrace(p, hours);
    trace::LifetimeRecord direct = m.generateLifetime(p, hours);
    trace::LifetimeRecord via = trace::hourToLifetime(ht, 0.9);
    via.drive_id = direct.drive_id;
    EXPECT_EQ(direct.reads, via.reads);
    EXPECT_EQ(direct.writes, via.writes);
    EXPECT_EQ(direct.read_blocks, via.read_blocks);
    EXPECT_EQ(direct.busy, via.busy);
    EXPECT_EQ(direct.saturated_hours, via.saturated_hours);
    EXPECT_EQ(direct.longest_saturated_run,
              via.longest_saturated_run);
}

TEST(Family, LifetimeTracePopulation)
{
    FamilyModel m(config());
    trace::LifetimeTrace lt = m.generateLifetimeTrace(64, 1000, 2000);
    EXPECT_EQ(lt.size(), 64u);
    EXPECT_EQ(lt.family(), "TEST-FAM");
    EXPECT_TRUE(lt.validate(true));
    for (const trace::LifetimeRecord &r : lt.records()) {
        EXPECT_GE(r.power_on, 1000 * kHour);
        EXPECT_LE(r.power_on, 2000 * kHour);
    }
}

TEST(Family, PopulationShowsVariability)
{
    FamilyModel m(config());
    trace::LifetimeTrace lt = m.generateLifetimeTrace(128, 2000, 2000);
    auto us = lt.utilizations();
    double lo = 1.0, hi = 0.0;
    for (double u : us) {
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    // Heterogeneous family: utilization spread must be wide.
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.2);
}

TEST(FamilyDeathTest, BadConfig)
{
    FamilyConfig c;
    c.class_weights = {1.0, 2.0};
    EXPECT_DEATH(FamilyModel{c}, "five class weights");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
