/**
 * @file
 * Tests for core/idleness.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/idleness.hh"

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

TEST(Idleness, ExtractsGaps)
{
    // Busy [1,2), [5,6): idle gaps 1, 3, 4 (tail).
    auto log = logWith(10, {{1, 2}, {5, 6}});
    IdlenessAnalysis a(log);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.totalIdle(), 8);
    EXPECT_DOUBLE_EQ(a.idleFraction(), 0.8);
    EXPECT_EQ(a.longestInterval(), 4);
    EXPECT_EQ(a.meanInterval(), 8 / 3);
}

TEST(Idleness, FullyIdleWindow)
{
    auto log = logWith(100, {});
    IdlenessAnalysis a(log);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.idleFraction(), 1.0);
    EXPECT_EQ(a.longestInterval(), 100);
}

TEST(Idleness, FullyBusyWindow)
{
    auto log = logWith(100, {{0, 100}});
    IdlenessAnalysis a(log);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.idleFraction(), 0.0);
    EXPECT_EQ(a.longestInterval(), 0);
    EXPECT_EQ(a.meanInterval(), 0);
}

TEST(Idleness, IdleMassWeightsByDuration)
{
    auto log = logWith(100, {{10, 20}, {22, 30}, {80, 90}});
    // Gaps {2, 10, 10, 50}, total 72.
    IdlenessAnalysis a(log);
    EXPECT_NEAR(a.idleMassAtLeast(1), 1.0, 1e-12);
    EXPECT_NEAR(a.idleMassAtLeast(10), 70.0 / 72.0, 1e-12);
    EXPECT_NEAR(a.idleMassAtLeast(50), 50.0 / 72.0, 1e-12);
    EXPECT_NEAR(a.idleMassAtLeast(51), 0.0, 1e-12);
}

TEST(Idleness, QuantilesSorted)
{
    auto log = logWith(1000,
                       {{100, 200}, {300, 400}, {500, 900}});
    IdlenessAnalysis a(log);
    EXPECT_LE(a.intervalQuantile(0.0), a.intervalQuantile(0.5));
    EXPECT_LE(a.intervalQuantile(0.5), a.intervalQuantile(1.0));
    EXPECT_EQ(a.intervalQuantile(1.0), a.longestInterval());
}

TEST(Idleness, LengthCdfMonotone)
{
    auto log = logWith(1000, {{100, 105}, {600, 610}});
    IdlenessAnalysis a(log);
    auto cdf = a.lengthCdf(11);
    ASSERT_EQ(cdf.size(), 11u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
}

TEST(Idleness, MassCurveDecreasing)
{
    auto log = logWith(60 * kSec,
                       {{kSec, 2 * kSec}, {30 * kSec, 31 * kSec}});
    IdlenessAnalysis a(log);
    auto curve = a.massCurve(16);
    ASSERT_FALSE(curve.empty());
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].first, curve[i - 1].first);
        EXPECT_LE(curve[i].second, curve[i - 1].second + 1e-12);
    }
}

TEST(Idleness, LongStretchDominatesMass)
{
    // The paper's claim: most idle time lives in long intervals.
    // 1 hour window, tiny 1 ms busy blips every second for 10 s,
    // then nothing: the tail interval carries almost all idle mass.
    std::vector<trace::BusyInterval> busy;
    for (int i = 0; i < 10; ++i) {
        const Tick t = static_cast<Tick>(i) * kSec;
        busy.emplace_back(t, t + kMsec);
    }
    auto log = logWith(kHour, busy);
    IdlenessAnalysis a(log);
    EXPECT_GT(a.idleMassAtLeast(kMinute), 0.98);
    EXPECT_GT(a.idleFraction(), 0.99);
}

TEST(IdleFigures, MatchTheSortedAnalysis)
{
    std::vector<disk::ServiceLog> logs = {
        logWith(10, {{1, 2}, {5, 6}}), logWith(100, {}),
        logWith(100, {{0, 100}}), logWith(0, {}),
        logWith(100, {{10, 20}, {22, 30}, {80, 90}})};
    // Busy intervals at seeded random spots, some gaps past 1 s.
    Rng rng(5);
    for (int k = 0; k < 20; ++k) {
        std::vector<trace::BusyInterval> busy;
        Tick at = 0;
        for (int i = 0; i < 200; ++i) {
            at += rng.uniformInt(0, 3 * kSec);
            const Tick end = at + rng.uniformInt(1, 50 * kMsec);
            busy.emplace_back(at, end);
            at = end;
        }
        logs.push_back(logWith(at + rng.uniformInt(0, kMinute), busy));
    }
    for (const disk::ServiceLog &log : logs) {
        const IdlenessAnalysis a(log);
        for (Tick t : {Tick{0}, Tick{1}, kSec, 10 * kSec}) {
            IdleFold fold(log.window_start, t);
            for (const trace::BusyInterval &iv : log.busy)
                fold.add(iv);
            const IdleFigures f = fold.finish(log.window_end);
            EXPECT_EQ(f.fraction, a.idleFraction());
            EXPECT_EQ(f.mean_interval, a.meanInterval());
            EXPECT_EQ(f.mass_at_least, a.idleMassAtLeast(t)) << t;
        }
    }
}

} // anonymous namespace
} // namespace core
} // namespace dlw
