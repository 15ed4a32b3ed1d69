/**
 * @file
 * Tests for core/family population analysis.
 */

#include <gtest/gtest.h>

#include "core/family.hh"
#include "synth/family.hh"

namespace dlw
{
namespace core
{
namespace
{

trace::HourTrace
flatTrace(const std::string &id, double util, std::size_t hours,
          std::uint64_t reqs_per_hour = 100)
{
    trace::HourTrace t(id, 0);
    for (std::size_t h = 0; h < hours; ++h) {
        trace::HourBucket b;
        b.reads = reqs_per_hour / 2;
        b.writes = reqs_per_hour - b.reads;
        b.read_blocks = b.reads;
        b.write_blocks = b.writes;
        b.busy = static_cast<Tick>(util * static_cast<double>(kHour));
        t.append(b);
    }
    return t;
}

TEST(Tier, Boundaries)
{
    EXPECT_EQ(tierOf(0.0), UtilizationTier::Idle);
    EXPECT_EQ(tierOf(0.009), UtilizationTier::Idle);
    EXPECT_EQ(tierOf(0.05), UtilizationTier::Light);
    EXPECT_EQ(tierOf(0.2), UtilizationTier::Moderate);
    EXPECT_EQ(tierOf(0.5), UtilizationTier::Heavy);
    EXPECT_EQ(tierOf(0.95), UtilizationTier::Saturated);
    EXPECT_STREQ(tierName(UtilizationTier::Moderate), "moderate");
}

TEST(Gini, KnownValues)
{
    EXPECT_DOUBLE_EQ(giniCoefficient({1.0, 1.0, 1.0, 1.0}), 0.0);
    // All mass on one drive of n: gini = (n-1)/n.
    EXPECT_NEAR(giniCoefficient({0.0, 0.0, 0.0, 100.0}), 0.75, 1e-12);
    EXPECT_DOUBLE_EQ(giniCoefficient({5.0}), 0.0);
    // More unequal -> larger gini.
    EXPECT_GT(giniCoefficient({1.0, 1.0, 8.0}),
              giniCoefficient({2.0, 3.0, 5.0}));
}

TEST(FamilyAnalysis, HourPopulationSummaries)
{
    std::vector<trace::HourTrace> pop;
    pop.push_back(flatTrace("idle", 0.0, 100, 0));
    pop.push_back(flatTrace("moderate", 0.2, 100));
    pop.push_back(flatTrace("hot", 0.95, 100, 10000));

    FamilyReport rep = analyzeFamily(pop, 0.9);
    EXPECT_EQ(rep.drives, 3u);
    ASSERT_EQ(rep.summaries.size(), 3u);
    EXPECT_EQ(rep.summaries[0].tier, UtilizationTier::Idle);
    EXPECT_EQ(rep.summaries[1].tier, UtilizationTier::Moderate);
    EXPECT_EQ(rep.summaries[2].tier, UtilizationTier::Saturated);
    EXPECT_DOUBLE_EQ(rep.tierFraction(UtilizationTier::Idle),
                     1.0 / 3.0);
    // Hot drive is saturated every hour: run of 100.
    EXPECT_EQ(rep.summaries[2].longest_saturated_run, 100u);
    EXPECT_DOUBLE_EQ(rep.saturated_run_ccdf[23], 1.0 / 3.0);
    // Idle drive never saturates.
    EXPECT_EQ(rep.summaries[0].longest_saturated_run, 0u);
    // Volume concentration is extreme.
    EXPECT_GT(rep.activity_gini, 0.5);
}

TEST(FamilyAnalysis, PercentilesOrdered)
{
    std::vector<trace::HourTrace> pop;
    for (int i = 0; i < 20; ++i) {
        pop.push_back(flatTrace(std::string("d").append(std::to_string(i)),
                                0.05 * static_cast<double>(i), 10));
    }
    FamilyReport rep = analyzeFamily(pop);
    EXPECT_LT(rep.util_p10, rep.util_p50);
    EXPECT_LT(rep.util_p50, rep.util_p90);
}

TEST(FamilyAnalysis, LifetimeVariant)
{
    trace::LifetimeTrace lt("FAM");
    trace::LifetimeRecord a;
    a.drive_id = "a";
    a.power_on = 1000 * kHour;
    a.busy = 50 * kHour;
    a.reads = 3000;
    a.writes = 1000;
    a.longest_saturated_run = 7;
    lt.append(a);
    trace::LifetimeRecord b;
    b.drive_id = "b";
    b.power_on = 1000 * kHour;
    b.busy = 900 * kHour;
    b.reads = 500000;
    b.writes = 500000;
    lt.append(b);

    FamilyReport rep = analyzeFamily(lt);
    EXPECT_EQ(rep.drives, 2u);
    EXPECT_EQ(rep.summaries[0].tier, UtilizationTier::Light);
    EXPECT_EQ(rep.summaries[1].tier, UtilizationTier::Saturated);
    EXPECT_DOUBLE_EQ(rep.summaries[0].read_fraction, 0.75);
    EXPECT_DOUBLE_EQ(rep.saturated_run_ccdf[6], 0.5);
}

TEST(FamilyAnalysis, HourlyPercentileBands)
{
    std::vector<trace::HourTrace> pop;
    for (int i = 1; i <= 9; ++i) {
        pop.push_back(flatTrace(std::string("d").append(std::to_string(i)),
                                0.1, 5,
                                static_cast<std::uint64_t>(i * 100)));
    }
    auto bands = hourlyPercentileBands(pop, 5);
    ASSERT_EQ(bands.size(), 5u);
    for (const auto &b : bands) {
        EXPECT_LE(b[0], b[1]);
        EXPECT_LE(b[1], b[2]);
        EXPECT_NEAR(b[1], 500.0, 1.0); // median of 100..900
    }
}

TEST(FamilyAnalysis, SyntheticFamilyEndToEnd)
{
    // The population generator plus analysis must reproduce the
    // paper's qualitative findings: wide spread and a minority of
    // streamers with multi-hour saturated runs.
    synth::FamilyConfig cfg;
    cfg.seed = 11;
    synth::FamilyModel model(cfg);
    auto traces = model.generateHourTraces(64, 24 * 21);
    FamilyReport rep = analyzeFamily(traces, 0.9);

    EXPECT_EQ(rep.drives, 64u);
    // Spread: p90 well above p10.
    EXPECT_GT(rep.util_p90, rep.util_p10 * 5.0);
    // A minority (but not zero) of drives hold >= 3 saturated hours.
    const double f3 = rep.saturated_run_ccdf[2];
    EXPECT_GT(f3, 0.0);
    EXPECT_LT(f3, 0.4);
    // Most drives are not saturated on average.
    EXPECT_LT(rep.tierFraction(UtilizationTier::Saturated), 0.2);
}

TEST(FamilyAnalysisDeathTest, BandsNeedLongTraces)
{
    std::vector<trace::HourTrace> pop;
    pop.push_back(flatTrace("short", 0.1, 3));
    EXPECT_DEATH(hourlyPercentileBands(pop, 5), "shorter");
    std::vector<trace::HourTrace> empty;
    EXPECT_DEATH(hourlyPercentileBands(empty, 1), "empty population");
}

} // anonymous namespace
} // namespace core
} // namespace dlw
