/**
 * @file
 * Tests for core/burstiness: the instruments must separate Poisson
 * from ON/OFF and cascade traffic.
 */

#include <gtest/gtest.h>

#include "common/binenc.hh"
#include "common/rng.hh"
#include "core/burstiness.hh"
#include "stats/acf.hh"
#include "stats/dispersion.hh"
#include "stats/hurst.hh"
#include "synth/arrival.hh"
#include "synth/bmodel.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace core
{
namespace
{

trace::MsTrace
traceFromArrivals(const std::vector<Tick> &arrivals, Tick duration)
{
    trace::MsTrace tr("t", 0, duration);
    for (Tick at : arrivals) {
        trace::Request r;
        r.arrival = at;
        r.lba = 0;
        r.blocks = 8;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    return tr;
}

TEST(Burstiness, PoissonIsNotBurstyAcrossScales)
{
    Rng rng(1);
    synth::PoissonArrivals p(500.0);
    auto tr = traceFromArrivals(p.generate(rng, 0, 300 * kSec),
                                300 * kSec);
    BurstinessReport rep = analyzeBurstiness(tr);
    EXPECT_NEAR(rep.interarrival_cv, 1.0, 0.05);
    EXPECT_FALSE(rep.burstyAcrossScales(4.0));
    for (const auto &pt : rep.idc)
        EXPECT_NEAR(pt.idc, 1.0, 0.6) << "window " << pt.window;
    EXPECT_NEAR(rep.hurst_var.h, 0.5, 0.12);
}

TEST(Burstiness, BModelIsBurstyAcrossScales)
{
    Rng rng(2);
    synth::BModel bm(0.85, 15);
    auto tr = traceFromArrivals(
        bm.arrivals(rng, 0, 300 * kSec, 150000), 300 * kSec);
    BurstinessReport rep = analyzeBurstiness(tr);
    EXPECT_TRUE(rep.burstyAcrossScales(4.0));
    ASSERT_GE(rep.idc.size(), 3u);
    // IDC grows monotonically in order of magnitude.
    EXPECT_GT(rep.idc.back().idc, rep.idc.front().idc * 10.0);
    EXPECT_GT(rep.peak_to_mean, 5.0);
}

TEST(Burstiness, OnOffElevatesCvAndIdc)
{
    Rng rng(3);
    synth::OnOffArrivals onoff(2000.0, 200 * kMsec, 1800 * kMsec);
    auto tr = traceFromArrivals(onoff.generate(rng, 0, 300 * kSec),
                                300 * kSec);
    BurstinessReport rep = analyzeBurstiness(tr);
    EXPECT_GT(rep.interarrival_cv, 1.5);
    EXPECT_TRUE(rep.burstyAcrossScales(2.0));
}

TEST(Burstiness, AcfDecaysSlowerForCorrelatedTraffic)
{
    Rng rng(4);
    synth::PoissonArrivals p(500.0);
    synth::OnOffArrivals onoff(2000.0, 500 * kMsec, 1500 * kMsec);
    auto tp = traceFromArrivals(p.generate(rng, 0, 120 * kSec),
                                120 * kSec);
    auto to = traceFromArrivals(onoff.generate(rng, 0, 120 * kSec),
                                120 * kSec);
    BurstinessReport rp = analyzeBurstiness(tp);
    BurstinessReport ro = analyzeBurstiness(to);
    EXPECT_GT(ro.decorrelation_lag, rp.decorrelation_lag);
}

TEST(Burstiness, CountSeriesPathMatchesTracePath)
{
    Rng rng(5);
    synth::PoissonArrivals p(200.0);
    auto arrivals = p.generate(rng, 0, 120 * kSec);
    auto tr = traceFromArrivals(arrivals, 120 * kSec);
    BurstinessReport via_trace = analyzeBurstiness(tr, 10 * kMsec);
    BurstinessReport via_series =
        analyzeCountSeries(tr.binCounts(10 * kMsec));
    ASSERT_EQ(via_trace.idc.size(), via_series.idc.size());
    for (std::size_t i = 0; i < via_trace.idc.size(); ++i)
        EXPECT_DOUBLE_EQ(via_trace.idc[i].idc, via_series.idc[i].idc);
    // Only the trace path can compute interarrival CV.
    EXPECT_DOUBLE_EQ(via_series.interarrival_cv, 0.0);
}

TEST(Burstiness, FannedOutFinishMatchesEachEstimator)
{
    // Twice the fan-out threshold: every field must still be exactly
    // what the estimator gives when called on its own.
    Rng rng(8);
    stats::BinnedSeries counts(0, 10 * kMsec, 2 * kFanOutBins);
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts.at(i) = static_cast<double>(rng.poisson(2.0));
    const std::vector<std::size_t> scales = {1, 4, 16, 64, 256};
    const BurstinessReport rep = analyzeCountSeries(counts, scales);
    const std::vector<double> &v = counts.values();

    const auto idc = stats::idcAcrossScales(counts, scales);
    ASSERT_EQ(rep.idc.size(), idc.size());
    for (std::size_t i = 0; i < idc.size(); ++i)
        EXPECT_EQ(rep.idc[i].idc, idc[i].idc);
    const stats::HurstEstimate hv = stats::hurstAggregatedVariance(v);
    EXPECT_EQ(rep.hurst_var.h, hv.h);
    EXPECT_EQ(rep.hurst_var.r2, hv.r2);
    const stats::HurstEstimate hr = stats::hurstRescaledRange(v);
    EXPECT_EQ(rep.hurst_rs.h, hr.h);
    EXPECT_EQ(rep.hurst_rs.r2, hr.r2);
    EXPECT_EQ(rep.acf, stats::autocorrelation(v, 200));
    EXPECT_EQ(rep.decorrelation_lag,
              stats::decorrelationLag(rep.acf, 0.1));
}

TEST(Burstiness, CliCorpusCoversTheFanOut)
{
    // scripts/check_cli_golden.sh checks that repeated `analyze` runs
    // of a 20-minute trace agree: 120 000 bins of 10 ms, which must
    // take the fanned-out finish for that check to cover it.
    EXPECT_LE(kFanOutBins, std::size_t{120000});
}

TEST(Burstiness, LoadStateRejectsZeroScale)
{
    // An aggregation factor of 0 would stop finish() on its assert
    // (in dlwd, at the first report of a restored session).
    trace::MsStreamHeader meta;
    meta.duration = 10 * kSec;
    for (const std::vector<std::size_t> &scales :
         {std::vector<std::size_t>{0}, std::vector<std::size_t>{1, 0, 4}}) {
        BurstinessAccumulator acc(10 * kMsec, scales);
        acc.begin(meta);
        std::string blob;
        BinEnc enc(blob);
        acc.saveState(enc);
        BinDec dec(blob);
        BurstinessAccumulator back;
        EXPECT_FALSE(back.loadState(dec)) << scales.size() << " scales";
    }
    BurstinessAccumulator acc(10 * kMsec, {1, 4});
    acc.begin(meta);
    std::string blob;
    BinEnc enc(blob);
    acc.saveState(enc);
    BinDec dec(blob);
    BurstinessAccumulator back;
    EXPECT_TRUE(back.loadState(dec));
}

TEST(Burstiness, CustomScalesRespected)
{
    Rng rng(6);
    synth::PoissonArrivals p(100.0);
    auto tr = traceFromArrivals(p.generate(rng, 0, 60 * kSec),
                                60 * kSec);
    BurstinessReport rep =
        analyzeBurstiness(tr, 10 * kMsec, {1, 10, 100});
    ASSERT_EQ(rep.idc.size(), 3u);
    EXPECT_EQ(rep.idc[0].window, 10 * kMsec);
    EXPECT_EQ(rep.idc[2].window, kSec);
}

TEST(Burstiness, EmptyReportOnTinyTrace)
{
    trace::MsTrace tr("t", 0, 50 * kMsec);
    trace::Request r;
    r.arrival = 0;
    r.lba = 0;
    r.blocks = 1;
    r.op = trace::Op::Read;
    tr.append(r);
    BurstinessReport rep = analyzeBurstiness(tr);
    // Too short for Hurst; defaults reported, no crash.
    EXPECT_DOUBLE_EQ(rep.hurst_var.h, 0.5);
    EXPECT_FALSE(rep.burstyAcrossScales());
}

} // anonymous namespace
} // namespace core
} // namespace dlw
