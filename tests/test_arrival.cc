/**
 * @file
 * Tests for synth/arrival: every process must hit its declared mean
 * rate (parameterized sweep) and the bursty processes must be
 * measurably burstier than Poisson.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "stats/summary.hh"
#include "synth/arrival.hh"

namespace dlw
{
namespace synth
{
namespace
{

std::unique_ptr<ArrivalProcess>
makeProcess(const std::string &kind, double rate)
{
    if (kind == "poisson")
        return std::make_unique<PoissonArrivals>(rate);
    if (kind == "onoff")
        return std::make_unique<OnOffArrivals>(rate / 0.25, 500 * kMsec,
                                               1500 * kMsec);
    if (kind == "mmpp")
        return std::make_unique<MmppArrivals>(rate * 0.4, rate * 2.8,
                                              3 * kSec, kSec);
    if (kind == "pareto")
        return std::make_unique<ParetoRenewal>(1.8, rate);
    return nullptr;
}

class RateSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(RateSweep, MeanRateMatchesDeclared)
{
    const auto [kind, rate] = GetParam();
    auto proc = makeProcess(kind, rate);
    ASSERT_NE(proc, nullptr);
    EXPECT_NEAR(proc->meanRate(), rate, rate * 0.01) << kind;

    Rng rng(1234);
    const Tick window = 2000 * kSec;
    auto arrivals = proc->generate(rng, 0, window);
    const double measured = static_cast<double>(arrivals.size()) /
                            ticksToSeconds(window);
    // Renewal processes with heavy tails converge slowly: 15%.
    EXPECT_NEAR(measured, rate, rate * 0.15) << kind;
}

INSTANTIATE_TEST_SUITE_P(
    AllProcesses, RateSweep,
    ::testing::Combine(
        ::testing::Values("poisson", "onoff", "mmpp", "pareto"),
        ::testing::Values(5.0, 50.0)));

double
gapCv(ArrivalProcess &proc, std::uint64_t seed)
{
    Rng rng(seed);
    stats::Summary s;
    for (int i = 0; i < 200000; ++i)
        s.add(static_cast<double>(proc.nextGap(rng)));
    return s.cv();
}

TEST(Arrival, PoissonGapCvIsOne)
{
    PoissonArrivals p(100.0);
    EXPECT_NEAR(gapCv(p, 1), 1.0, 0.05);
}

TEST(Arrival, BurstyProcessesExceedPoissonCv)
{
    OnOffArrivals onoff(400.0, 500 * kMsec, 1500 * kMsec);
    MmppArrivals mmpp(20.0, 500.0, 3 * kSec, kSec);
    EXPECT_GT(gapCv(onoff, 2), 1.5);
    EXPECT_GT(gapCv(mmpp, 3), 1.3);
}

TEST(Arrival, GenerateStaysInWindow)
{
    PoissonArrivals p(1000.0);
    Rng rng(5);
    auto arrivals = p.generate(rng, 500, kSec);
    ASSERT_FALSE(arrivals.empty());
    for (Tick t : arrivals) {
        EXPECT_GE(t, 500);
        EXPECT_LT(t, 500 + kSec);
    }
    // Sorted by construction.
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1]);
}

TEST(Arrival, GenerateEmptyWindow)
{
    PoissonArrivals p(1000.0);
    Rng rng(6);
    EXPECT_TRUE(p.generate(rng, 0, 0).empty());
}

TEST(Arrival, OnOffDutyCycleControlsRate)
{
    // Same burst rate, different OFF lengths: longer OFF = lower rate.
    OnOffArrivals busy(100.0, kSec, kSec);
    OnOffArrivals sparse(100.0, kSec, 9 * kSec);
    EXPECT_NEAR(busy.meanRate(), 50.0, 1e-9);
    EXPECT_NEAR(sparse.meanRate(), 10.0, 1e-9);
}

TEST(Arrival, MmppSilentStateProducesNoArrivals)
{
    // State 1 is silent; all gaps must still be finite and the rate
    // equals rate0 weighted by state-0 occupancy.
    MmppArrivals m(100.0, 0.0, kSec, kSec);
    EXPECT_NEAR(m.meanRate(), 50.0, 1e-9);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(m.nextGap(rng), 0);
}

TEST(Arrival, ResetRestoresInitialState)
{
    OnOffArrivals a(200.0, kSec, kSec);
    Rng r1(9), r2(9);
    std::vector<Tick> first, second;
    for (int i = 0; i < 100; ++i)
        first.push_back(a.nextGap(r1));
    a.reset();
    for (int i = 0; i < 100; ++i)
        second.push_back(a.nextGap(r2));
    EXPECT_EQ(first, second);
}

TEST(ArrivalDeathTest, InvalidParameters)
{
    EXPECT_DEATH(PoissonArrivals(0.0), "positive");
    EXPECT_DEATH(OnOffArrivals(10.0, 0, kSec), "positive");
    EXPECT_DEATH(ParetoRenewal(1.0, 10.0), "shape > 1");
    EXPECT_DEATH(MmppArrivals(0.0, 0.0, kSec, kSec),
                 "at least one active state");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
