/**
 * @file
 * Round-trip tests for workload-model extraction: generate from a
 * known model, extract, regenerate, and compare the statistics that
 * the model claims to capture.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "stats/summary.hh"
#include "synth/extract.hh"

namespace dlw
{
namespace synth
{
namespace
{

constexpr Lba kCap = 1 << 22;
constexpr Tick kWindow = 120 * kSec;

double
gapCvOf(const trace::MsTrace &tr)
{
    stats::Summary s;
    for (double g : tr.interarrivals())
        s.add(g);
    return s.cv();
}

TEST(Extract, PoissonStreamStaysPoisson)
{
    Rng rng(1);
    Workload src;
    src.setArrival(std::make_unique<PoissonArrivals>(80.0));
    src.setSize(std::make_unique<FixedSize>(8));
    src.setSpatial(std::make_unique<UniformSpatial>(kCap));
    src.setMix(0.7);
    trace::MsTrace tr = src.generate(rng, "p", 0, kWindow);

    ExtractedModel m = extractModel(tr, kCap);
    EXPECT_FALSE(m.bursty);
    EXPECT_NEAR(m.rate, 80.0, 8.0);
    EXPECT_NEAR(m.read_fraction, 0.7, 0.03);
    EXPECT_NEAR(m.persistence, 0.0, 0.1);
    EXPECT_EQ(m.size_median, 8u);
    EXPECT_LT(m.size_sigma, 0.05);
}

TEST(Extract, OnOffStructureRecovered)
{
    Rng rng(2);
    Workload src;
    src.setArrival(std::make_unique<OnOffArrivals>(
        400.0, 500 * kMsec, 2 * kSec));
    src.setSize(std::make_unique<FixedSize>(16));
    src.setSpatial(std::make_unique<UniformSpatial>(kCap));
    src.setMix(0.5);
    trace::MsTrace tr = src.generate(rng, "b", 0, kWindow);

    ExtractedModel m = extractModel(tr, kCap);
    EXPECT_TRUE(m.bursty);
    EXPECT_GT(m.interarrival_cv, 1.3);
    // Burst rate within 35% (gap-threshold splitting is approximate).
    EXPECT_NEAR(m.burst_rate, 400.0, 140.0);
    EXPECT_GT(m.mean_off, m.mean_on);
}

TEST(Extract, PersistenceRecovered)
{
    Rng rng(3);
    Workload src;
    src.setArrival(std::make_unique<PoissonArrivals>(100.0));
    src.setSize(std::make_unique<FixedSize>(8));
    src.setSpatial(std::make_unique<UniformSpatial>(kCap));
    src.setMix(0.5, 0.8);
    trace::MsTrace tr = src.generate(rng, "pers", 0, kWindow);

    ExtractedModel m = extractModel(tr, kCap);
    EXPECT_NEAR(m.persistence, 0.8, 0.08);
}

TEST(Extract, SizesAndSequentialityRecovered)
{
    Rng rng(4);
    Workload src;
    src.setArrival(std::make_unique<PoissonArrivals>(60.0));
    src.setSize(std::make_unique<LognormalSize>(32, 0.8, 2048));
    src.setSpatial(std::make_unique<SequentialRuns>(kCap, 0.6));
    src.setMix(0.9);
    trace::MsTrace tr = src.generate(rng, "sz", 0, kWindow);

    ExtractedModel m = extractModel(tr, kCap);
    EXPECT_NEAR(static_cast<double>(m.size_median), 32.0, 6.0);
    EXPECT_NEAR(m.size_sigma, 0.8, 0.15);
    EXPECT_NEAR(m.sequential_fraction, 0.6, 0.1);
}

/**
 * Full round trip, parameterized over preset classes: the
 * regenerated trace must match the source on the extracted
 * statistics.
 */
class ExtractRoundTrip
    : public ::testing::TestWithParam<const char *>
{
  public:
    static Workload
    preset(const std::string &name)
    {
        if (name == "oltp")
            return Workload::makeOltp(kCap, 70.0);
        if (name == "fileserver")
            return Workload::makeFileServer(kCap, 50.0);
        if (name == "backup")
            return Workload::makeBackup(kCap, 40.0);
        return Workload::makeStreaming(kCap, 30.0);
    }
};

TEST_P(ExtractRoundTrip, RegeneratedMatchesSource)
{
    const std::string name = GetParam();
    Rng rng(5);
    Workload src = preset(name);
    trace::MsTrace original = src.generate(rng, name, 0, kWindow);

    ExtractedModel m = extractModel(original, kCap);
    Workload regen = m.build();
    Rng rng2(99);
    trace::MsTrace copy = regen.generate(rng2, name + "-re", 0,
                                         kWindow);
    ASSERT_TRUE(copy.validate());

    // Rate within 20%.
    EXPECT_NEAR(copy.arrivalRate(), original.arrivalRate(),
                0.2 * original.arrivalRate())
        << m.describe();
    // Mix within 5 points.
    EXPECT_NEAR(copy.readFraction(), original.readFraction(), 0.05);
    // Mean size within 25%.
    EXPECT_NEAR(copy.meanRequestBlocks(),
                original.meanRequestBlocks(),
                0.25 * original.meanRequestBlocks());
    // Sequentiality within 12 points.
    EXPECT_NEAR(copy.sequentialFraction(),
                original.sequentialFraction(), 0.12);
    // Burstiness class preserved: bursty stays bursty (CV > 1.3),
    // smooth stays smooth.
    const double cv_orig = gapCvOf(original);
    const double cv_copy = gapCvOf(copy);
    if (cv_orig > 1.5) {
        EXPECT_GT(cv_copy, 1.3) << m.describe();
    }
    if (cv_orig < 1.2) {
        EXPECT_LT(cv_copy, 1.4) << m.describe();
    }
}

INSTANTIATE_TEST_SUITE_P(Presets, ExtractRoundTrip,
                         ::testing::Values("oltp", "fileserver",
                                           "backup", "streaming"));

TEST(ExtractDeathTest, TooFewRequests)
{
    trace::MsTrace tr("tiny", 0, kSec);
    trace::Request r;
    r.arrival = 0;
    r.lba = 0;
    r.blocks = 8;
    r.op = trace::Op::Read;
    tr.append(r);
    EXPECT_DEATH(extractModel(tr, kCap), "at least 100");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
