/**
 * @file
 * Tests for core/rwmix.
 */

#include <gtest/gtest.h>

#include "common/binenc.hh"
#include "common/rng.hh"
#include "core/rwmix.hh"
#include "stats/timeseries.hh"
#include "synth/workload.hh"
#include "trace/batch.hh"

namespace dlw
{
namespace core
{
namespace
{

trace::MsTrace
patternTrace(const std::string &pattern, Tick gap = 10 * kMsec)
{
    trace::MsTrace tr("t", 0,
                      static_cast<Tick>(pattern.size() + 1) * gap);
    Tick at = 0;
    for (char c : pattern) {
        trace::Request r;
        r.arrival = at;
        r.lba = 0;
        r.blocks = 1;
        r.op = c == 'R' ? trace::Op::Read : trace::Op::Write;
        tr.append(r);
        at += gap;
    }
    return tr;
}

TEST(RwMix, ReadFractionAndRuns)
{
    // RRWWWWRRRR: runs of 2, 4, 4; mean run length 10/3.
    auto tr = patternTrace("RRWWWWRRRR");
    RwDynamics d = analyzeRwDynamics(tr, kSec);
    EXPECT_DOUBLE_EQ(d.read_fraction, 0.6);
    EXPECT_NEAR(d.mean_run_length, 10.0 / 3.0, 1e-9);
    EXPECT_EQ(d.longest_write_run, 4u);
    EXPECT_EQ(d.write_bursts, 0u); // bursts need >= 8 writes
}

TEST(RwMix, WriteBurstDetection)
{
    auto tr = patternTrace("RWWWWWWWWWR"); // 9-write run
    RwDynamics d = analyzeRwDynamics(tr, kSec);
    EXPECT_EQ(d.longest_write_run, 9u);
    EXPECT_EQ(d.write_bursts, 1u);
}

TEST(RwMix, TrailingWriteRunCounted)
{
    auto tr = patternTrace("RWWWWWWWW"); // trailing 8-write run
    RwDynamics d = analyzeRwDynamics(tr, kSec);
    EXPECT_EQ(d.longest_write_run, 8u);
    EXPECT_EQ(d.write_bursts, 1u);
}

TEST(RwMix, PerBinSeriesMarksInactiveBins)
{
    // Two requests in bin 0, nothing in bin 1, one write in bin 2.
    trace::MsTrace tr("t", 0, 3 * kSec);
    auto add = [&tr](Tick at, trace::Op op) {
        trace::Request r;
        r.arrival = at;
        r.lba = 0;
        r.blocks = 1;
        r.op = op;
        tr.append(r);
    };
    add(100 * kMsec, trace::Op::Read);
    add(200 * kMsec, trace::Op::Write);
    add(2 * kSec + 100 * kMsec, trace::Op::Write);

    RwDynamics d = analyzeRwDynamics(tr, kSec);
    ASSERT_EQ(d.read_fraction_series.size(), 3u);
    EXPECT_DOUBLE_EQ(d.read_fraction_series[0], 0.5);
    EXPECT_DOUBLE_EQ(d.read_fraction_series[1], -1.0);
    EXPECT_DOUBLE_EQ(d.read_fraction_series[2], 0.0);
    EXPECT_DOUBLE_EQ(d.write_dominated_fraction, 0.5);
}

TEST(RwMix, AllReadsDegenerate)
{
    auto tr = patternTrace("RRRRRRRR");
    RwDynamics d = analyzeRwDynamics(tr, kSec);
    EXPECT_DOUBLE_EQ(d.read_fraction, 1.0);
    EXPECT_EQ(d.longest_write_run, 0u);
    EXPECT_DOUBLE_EQ(d.mean_run_length, 8.0);
    EXPECT_DOUBLE_EQ(d.write_dominated_fraction, 0.0);
}

TEST(RwMix, EmptyTrace)
{
    trace::MsTrace tr("t", 0, kSec);
    RwDynamics d = analyzeRwDynamics(tr, kSec);
    EXPECT_DOUBLE_EQ(d.read_fraction, 0.0);
    EXPECT_DOUBLE_EQ(d.mean_run_length, 0.0);
}

TEST(RwMix, HourTraceVariant)
{
    trace::HourTrace t("d", 0);
    auto add = [&t](std::uint64_t reads, std::uint64_t writes) {
        trace::HourBucket b;
        b.reads = reads;
        b.writes = writes;
        b.read_blocks = reads;
        b.write_blocks = writes;
        t.append(b);
    };
    add(90, 10); // read heavy
    add(0, 0);   // idle
    add(10, 90); // write heavy

    RwDynamics d = analyzeRwDynamics(t);
    EXPECT_EQ(d.bin_width, kHour);
    EXPECT_DOUBLE_EQ(d.read_fraction, 0.5);
    ASSERT_EQ(d.read_fraction_series.size(), 3u);
    EXPECT_DOUBLE_EQ(d.read_fraction_series[1], -1.0);
    EXPECT_DOUBLE_EQ(d.write_dominated_fraction, 0.5);
    EXPECT_GT(d.read_fraction_stddev, 0.3);
}

TEST(RwMix, PersistenceRaisesRunLength)
{
    Rng rng(1);
    auto mk = [&rng](double persistence) {
        synth::Workload w;
        w.setArrival(std::make_unique<synth::PoissonArrivals>(200.0));
        w.setSize(std::make_unique<synth::FixedSize>(8));
        w.setSpatial(std::make_unique<synth::UniformSpatial>(1 << 20));
        w.setMix(0.5, persistence);
        return w.generate(rng, "d", 0, 120 * kSec);
    };
    RwDynamics indep = analyzeRwDynamics(mk(0.0), kSec);
    RwDynamics persist = analyzeRwDynamics(mk(0.85), kSec);
    EXPECT_GT(persist.mean_run_length, indep.mean_run_length * 2.0);
    EXPECT_GT(persist.write_bursts, indep.write_bursts);
}

/** An RwMixAccumulator blob with the given read and total series. */
std::string
rwMixBlob(const stats::BinnedSeries &reads, const stats::BinnedSeries &all)
{
    std::string blob;
    BinEnc enc(blob);
    enc.i64(kMinute);
    reads.saveState(enc);
    all.saveState(enc);
    for (int i = 0; i < 6; ++i)
        enc.u64(0);
    enc.u8(0);
    return blob;
}

TEST(RwMix, CheckpointRoundTrip)
{
    trace::MsStreamHeader meta;
    meta.start = 5 * kSec;
    meta.duration = 3 * kMinute;
    RwMixAccumulator acc;
    acc.begin(meta);
    std::string blob;
    BinEnc enc(blob);
    acc.saveState(enc);
    BinDec dec(blob);
    RwMixAccumulator back;
    ASSERT_TRUE(back.loadState(dec));
    back.finish();
    EXPECT_EQ(back.report().read_fraction_series.size(), 3u);
}

/** The requests of patternTrace(pattern) in [from, to) as one batch. */
trace::RequestBatch
patternBatch(const trace::MsTrace &tr, std::size_t from, std::size_t to)
{
    trace::RequestBatch b(to - from);
    for (std::size_t i = from; i < to; ++i)
        b.append(tr.requests()[i]);
    return b;
}

TEST(RwMix, RestoreKeepsClosedWriteRuns)
{
    // Two write bursts (9 and 12 writes) close before the checkpoint
    // and a 3-write run stays open across it; the restored fold must
    // report what the uninterrupted one does.
    const std::string pattern = "RWWWWWWWWWRRWWWWWWWWWWWWRWWWWWRRWR";
    const std::size_t cut = 28;
    const trace::MsTrace tr = patternTrace(pattern);
    trace::MsStreamHeader meta;
    meta.start = tr.start();
    meta.duration = tr.duration();

    RwMixAccumulator whole(kSec);
    whole.begin(meta);
    whole.observe(patternBatch(tr, 0, pattern.size()));
    whole.finish();
    ASSERT_EQ(whole.report().longest_write_run, 12u);
    ASSERT_EQ(whole.report().write_bursts, 2u);

    RwMixAccumulator first(kSec);
    first.begin(meta);
    first.observe(patternBatch(tr, 0, cut));
    std::string blob;
    BinEnc enc(blob);
    first.saveState(enc);
    BinDec dec(blob);
    RwMixAccumulator back;
    ASSERT_TRUE(back.loadState(dec));
    back.observe(patternBatch(tr, cut, pattern.size()));
    back.finish();
    const RwDynamics &got = back.report();
    EXPECT_EQ(got.longest_write_run, whole.report().longest_write_run);
    EXPECT_EQ(got.write_bursts, whole.report().write_bursts);
    EXPECT_EQ(got.mean_run_length, whole.report().mean_run_length);
    EXPECT_EQ(got.read_fraction_series,
              whole.report().read_fraction_series);
}

TEST(RwMix, LoadStateRejectsMismatchedSeries)
{
    // Only a read grows the read series, so it may be shorter than the
    // total series (a write past the window) but never longer, and the
    // two share a start and a width.
    const stats::BinnedSeries all(0, kMinute, 3);
    const stats::BinnedSeries bad[] = {
        stats::BinnedSeries(0, kMinute, 4),
        stats::BinnedSeries(kSec, kMinute, 3),
        stats::BinnedSeries(0, kSec, 3),
    };
    for (const stats::BinnedSeries &reads : bad) {
        const std::string blob = rwMixBlob(reads, all);
        BinDec dec(blob);
        RwMixAccumulator acc;
        EXPECT_FALSE(acc.loadState(dec))
            << reads.size() << " bins from " << reads.start() << " by "
            << reads.binWidth();
    }
    for (const stats::BinnedSeries &reads :
         {all, stats::BinnedSeries(0, kMinute, 2)}) {
        const std::string good = rwMixBlob(reads, all);
        BinDec dec(good);
        RwMixAccumulator acc;
        EXPECT_TRUE(acc.loadState(dec)) << reads.size() << " bins";
        EXPECT_EQ(acc.current().read_fraction_series.size(), 3u);
    }
}

} // anonymous namespace
} // namespace core
} // namespace dlw
