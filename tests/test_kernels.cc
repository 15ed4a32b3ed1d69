/**
 * @file
 * The characterization folds, checked element by element.
 *
 * The per-request folds (arrival counts, interarrival gaps, the
 * read/write series, read counts) are plain loops in their
 * accumulators; each is checked against its per-element definition
 * on adversarial streams: unsorted ticks, series growth, bin edges,
 * gaps past 2^53, and every batch shape.  The two binned-series
 * kernels that keep an AVX2 table (the ACF lag sums and the R/S
 * blocks) run the same input through the scalar reference and the
 * AVX2 table when this build + CPU supports it, and must agree to
 * the last bit: that is the contract that lets dispatch follow
 * CPUID.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/binenc.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "disk/drive.hh"
#include "stats/simd/kernels.hh"
#include "stats/simd/simd.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace stats
{
namespace simd
{
namespace
{

/** Every ISA this build + CPU can actually dispatch. */
std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
        if (supported(isa))
            out.push_back(isa);
    }
    return out;
}

/** Restore auto dispatch when a test body returns. */
struct IsaGuard
{
    ~IsaGuard() { force(bestSupported()); }
};

/** Deterministic xorshift — tests must not depend on libc rand. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    double
    uniform(double lo, double hi)
    {
        const double u = static_cast<double>(next() >> 11) *
                         0x1.0p-53;
        return lo + u * (hi - lo);
    }
};

/** Bursty sorted arrivals with duplicate ticks and long runs. */
std::vector<Tick>
burstyArrivals(std::size_t n, Tick start)
{
    std::vector<Tick> t;
    t.reserve(n);
    Rng rng(0xdeadbeef);
    Tick now = start;
    while (t.size() < n) {
        // A burst: many requests in one or two bins.
        const std::size_t burst = 1 + rng.next() % 37;
        for (std::size_t i = 0; i < burst && t.size() < n; ++i) {
            t.push_back(now);
            if (rng.next() % 4 == 0)
                now += static_cast<Tick>(rng.next() % 3);
        }
        now += static_cast<Tick>(rng.next() % (20 * kMsec));
    }
    return t;
}

/** Raw bits of every element, so -0.0, NaN and inf compare exactly. */
std::vector<std::uint64_t>
rawBits(const std::vector<double> &xs)
{
    std::vector<std::uint64_t> out(xs.size());
    std::memcpy(out.data(), xs.data(), xs.size() * sizeof(double));
    return out;
}

/** Gap-like positive samples, including denormals. */
std::vector<double>
welfordSamples(std::size_t n)
{
    Rng rng(0xfeed);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = rng.uniform(0.0, 1e9);
        if (i % 97 == 0)
            v = std::numeric_limits<double>::denorm_min();
        if (i % 131 == 0)
            v = 0.0;
        xs.push_back(v);
    }
    return xs;
}

bool
lanesBitEqual(const SummaryLanes &a, const SummaryLanes &b)
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        if (std::memcmp(&a.n[i], &b.n[i], sizeof(double)) != 0 ||
            std::memcmp(&a.mean[i], &b.mean[i], sizeof(double)) != 0 ||
            std::memcmp(&a.m2[i], &b.m2[i], sizeof(double)) != 0)
            return false;
    }
    return a.next == b.next;
}

/** One batch holding requests [from, to) of the given columns. */
trace::RequestBatch
batchOf(const std::vector<Tick> &t, const std::vector<trace::Op> &op,
        std::size_t from, std::size_t to)
{
    trace::RequestBatch b(to - from);
    for (std::size_t i = from; i < to; ++i) {
        trace::Request r;
        r.arrival = t[i];
        r.blocks = 1;
        r.op = op[i];
        b.append(r);
    }
    return b;
}

/** Begin acc on [start, start + duration), then observe in batches. */
void
feed(core::TraceAccumulator &acc, Tick start, Tick duration,
     const std::vector<Tick> &t, const std::vector<trace::Op> &op,
     std::size_t batch)
{
    trace::MsStreamHeader meta;
    meta.start = start;
    meta.duration = duration;
    ASSERT_TRUE(acc.begin(meta).ok());
    for (std::size_t i = 0; i < t.size(); i += batch)
        acc.observe(batchOf(t, op, i, std::min(t.size(), i + batch)));
}

/** The batch sizes every fold is checked at. */
constexpr std::size_t kBatchSizes[] = {1, 7, 1024};

/** A BurstinessAccumulator's counts and gap lanes, from its state. */
struct BurstState
{
    BinnedSeries counts{0, 1};
    SummaryLanes gaps;
};

BurstState
burstState(const core::BurstinessAccumulator &acc)
{
    std::string blob;
    BinEnc enc(blob);
    acc.saveState(enc);
    BinDec dec(blob);
    dec.i64(); // base bin
    for (std::uint64_t scales = dec.u64(); scales > 0; --scales)
        dec.u64();
    BurstState s;
    EXPECT_TRUE(s.counts.loadState(dec) && s.gaps.loadState(dec));
    return s;
}

TEST(BurstinessFold, CountsUnsortedTicksAndGrowsTheSeries)
{
    // Scrambled arrivals, and a window that covers only the first
    // half of their span, so the series grows mid-batch.
    const Tick start = 5000;
    const Tick width = 10 * kMsec;
    std::vector<Tick> t = burstyArrivals(1500, start);
    const Tick last = t.back();
    Rng rng(7);
    for (std::size_t i = t.size(); i > 1; --i)
        std::swap(t[i - 1], t[rng.next() % i]);
    const std::vector<trace::Op> op(t.size(), trace::Op::Write);

    // Per element: one count in bin (t - start) / width, the series
    // as long as its last counted bin.
    const Tick duration = (last - start) / 2;
    std::vector<double> want(
        static_cast<std::size_t>((duration + width - 1) / width), 0.0);
    for (Tick x : t) {
        const auto idx = static_cast<std::size_t>((x - start) / width);
        if (idx >= want.size())
            want.resize(idx + 1, 0.0);
        want[idx] += 1.0;
    }
    for (std::size_t batch : kBatchSizes) {
        core::BurstinessAccumulator acc(width);
        feed(acc, start, duration, t, op, batch);
        EXPECT_EQ(burstState(acc).counts.values(), want)
            << "batch " << batch;
    }
}

TEST(BurstinessFold, GapsConvertExactlyPastTwoToThe53)
{
    // Gaps around and far beyond 2^53, of both signs, between ticks
    // that are themselves past 2^53 in magnitude: only the exact
    // int64 difference, converted once, gives these bits.
    const Tick p53 = Tick{1} << 53;
    const Tick start = -(Tick{1} << 60);
    const Tick steps[] = {p53 + 1,          p53 - 1,
                          p53 + 3,          -(p53 + 1),
                          2 * p53 + 5,      1,
                          -(p53 - 1),       (Tick{1} << 59) + 12345,
                          -((Tick{1} << 57) + 7), 3,
                          8 * p53 + 1,      0};
    std::vector<Tick> t = {start + 1};
    for (int round = 0; round < 3; ++round) {
        for (Tick step : steps)
            t.push_back(t.back() + step);
    }
    const std::vector<trace::Op> op(t.size(), trace::Op::Read);

    SummaryLanes want;
    bool rounds = false;
    for (std::size_t i = 1; i < t.size(); ++i) {
        ASSERT_GE(t[i], start);
        want.add(static_cast<double>(t[i] - t[i - 1]));
        rounds = rounds || static_cast<double>(t[i]) -
                                   static_cast<double>(t[i - 1]) !=
                               static_cast<double>(t[i] - t[i - 1]);
    }
    // Converting the ticks before subtracting would change a gap.
    ASSERT_TRUE(rounds);

    const Tick width = Tick{1} << 56;
    const Tick duration =
        *std::max_element(t.begin(), t.end()) - start + 1;
    for (std::size_t batch : kBatchSizes) {
        core::BurstinessAccumulator acc(width);
        feed(acc, start, duration, t, op, batch);
        EXPECT_TRUE(lanesBitEqual(burstState(acc).gaps, want))
            << "batch " << batch;
    }
}

TEST(RwMixFold, MatchesPerElementCountsAcrossBinEdges)
{
    // Arrivals on both sides of every bin edge, late arrivals three
    // bins back, and a read and then a write past the pre-sized
    // window, so the all series grows further than the reads series.
    // The window starts before tick 0.
    const Tick start = -3 * kSec;
    const Tick width = 250 * kMsec;
    const std::size_t bins = 300;
    std::vector<Tick> t;
    for (std::size_t k = 1; k < bins; ++k) {
        const Tick edge = start + static_cast<Tick>(k) * width;
        for (Tick x : {edge - 1, edge, edge, edge + 1, edge + width / 2})
            t.push_back(x);
        if (k % 5 == 0)
            t.push_back(edge - 3 * width + 7);
    }
    t.push_back(start + static_cast<Tick>(bins) * width + 3);
    t.push_back(start + static_cast<Tick>(bins + 2) * width + 1);
    std::vector<trace::Op> op(t.size());
    Rng rng(0x7711);
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool read = rng.next() % 3 == 0 && (i < 100 || i >= 130);
        op[i] = read ? trace::Op::Read : trace::Op::Write;
    }
    op[t.size() - 2] = trace::Op::Read;
    op[t.size() - 1] = trace::Op::Write;

    // Per element: every request counts in its bin of the all
    // series, a read also in the reads series; a series grows only
    // to its own last counted bin.
    std::vector<double> all_want(bins, 0.0), reads_want(bins, 0.0);
    std::size_t reads = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const auto idx = static_cast<std::size_t>((t[i] - start) / width);
        all_want.resize(std::max(all_want.size(), idx + 1), 0.0);
        all_want[idx] += 1.0;
        if (op[i] == trace::Op::Read) {
            reads_want.resize(std::max(reads_want.size(), idx + 1), 0.0);
            reads_want[idx] += 1.0;
            ++reads;
        }
    }
    // Direction runs, maximal stretches of one direction; the last
    // is still open.
    std::vector<std::pair<trace::Op, std::size_t>> runs;
    for (trace::Op o : op) {
        if (runs.empty() || runs.back().first != o)
            runs.emplace_back(o, 0);
        ++runs.back().second;
    }
    std::size_t longest_write = 0, write_bursts = 0;
    for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
        if (runs[r].first == trace::Op::Write) {
            longest_write = std::max(longest_write, runs[r].second);
            write_bursts += runs[r].second >= 8 ? 1 : 0;
        }
    }
    ASSERT_GE(longest_write, 30u);
    // The per-bin read fraction: a bin the reads series never grew
    // into holds no reads.
    ASSERT_LT(reads_want.size(), all_want.size());
    std::vector<double> fraction_want(all_want.size(), -1.0);
    for (std::size_t i = 0; i < all_want.size(); ++i) {
        const double r = i < reads_want.size() ? reads_want[i] : 0.0;
        if (all_want[i] > 0.0)
            fraction_want[i] = r / all_want[i];
    }

    for (std::size_t batch : kBatchSizes) {
        core::RwMixAccumulator rw(width);
        feed(rw, start, static_cast<Tick>(bins) * width, t, op, batch);
        std::string blob;
        BinEnc enc(blob);
        rw.saveState(enc);
        BinDec dec(blob);
        dec.i64(); // bin width
        BinnedSeries reads_got(0, 1), all_got(0, 1);
        ASSERT_TRUE(reads_got.loadState(dec) && all_got.loadState(dec));
        EXPECT_EQ(all_got.values(), all_want) << "batch " << batch;
        EXPECT_EQ(reads_got.values(), reads_want) << "batch " << batch;
        EXPECT_EQ(dec.u64(), t.size()) << "batch " << batch;
        EXPECT_EQ(dec.u64(), reads) << "batch " << batch;
        EXPECT_EQ(dec.u64(), runs.size() - 1) << "batch " << batch;
        EXPECT_EQ(dec.u64(), runs.back().second) << "batch " << batch;
        EXPECT_EQ(dec.u64(), longest_write) << "batch " << batch;
        EXPECT_EQ(dec.u64(), write_bursts) << "batch " << batch;
        EXPECT_EQ(dec.u8(), 0) << "batch " << batch; // ends on a write
        EXPECT_TRUE(dec.ok() && dec.remaining() == 0);

        // The report over the grown window, live and from the saved
        // state.
        EXPECT_EQ(rw.current().read_fraction_series, fraction_want)
            << "batch " << batch;
        BinDec again(blob);
        core::RwMixAccumulator back;
        ASSERT_TRUE(back.loadState(again)) << "batch " << batch;
        EXPECT_EQ(back.current().read_fraction_series, fraction_want)
            << "batch " << batch;

        core::TraceTotalsAccumulator totals;
        feed(totals, start, static_cast<Tick>(bins) * width, t, op, batch);
        EXPECT_EQ(totals.count(), t.size()) << "batch " << batch;
        EXPECT_EQ(totals.readCount(), reads) << "batch " << batch;
    }
}

TEST(BurstinessFold, SortedStreamsOfEveryLengthMatchPerElement)
{
    // Sorted bursty arrivals, from the empty stream up: counts are one
    // accumulateAt per request, gaps one add() per request after the
    // first.
    const Tick start = 1000;
    const Tick width = 10 * kMsec;
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{15},
                          std::size_t{64}, std::size_t{1000}}) {
        const std::vector<Tick> t = burstyArrivals(n, start);
        const std::vector<trace::Op> op(n, trace::Op::Read);
        // A one-bin window, so every later bin is grown into.
        BinnedSeries counts(start, width, 1);
        SummaryLanes gaps;
        for (std::size_t i = 0; i < n; ++i) {
            counts.accumulateAt(t[i], 1.0);
            if (i > 0)
                gaps.add(static_cast<double>(t[i] - t[i - 1]));
        }
        for (std::size_t batch : kBatchSizes) {
            core::BurstinessAccumulator acc(width);
            feed(acc, start, width, t, op, batch);
            const BurstState got = burstState(acc);
            EXPECT_EQ(got.counts.values(), counts.values())
                << "n " << n << " batch " << batch;
            EXPECT_TRUE(lanesBitEqual(got.gaps, gaps))
                << "n " << n << " batch " << batch;
        }
    }
}

TEST(WelfordKernel, BatchSplitInvariant)
{
    // Lane membership follows the global element index, not the batch
    // shape: from any cursor, element j lands in lane
    // (cursor + j) % 4, and each lane runs the plain Welford update.
    // BurstinessFold.* feed the gaps at several batch sizes.
    const std::vector<double> xs = welfordSamples(613);
    for (std::uint32_t cursor = 0; cursor < kSummaryLanes; ++cursor) {
        SummaryLanes ones;
        MeanM2 lane[kSummaryLanes];
        for (std::uint32_t c = 0; c < cursor; ++c) {
            ones.add(3.5);
            lane[c].add(3.5);
        }
        for (std::size_t j = 0; j < xs.size(); ++j) {
            ones.add(xs[j]);
            lane[(cursor + j) % kSummaryLanes].add(xs[j]);
        }
        for (std::size_t l = 0; l < kSummaryLanes; ++l) {
            ASSERT_EQ(rawBits({ones.n[l], ones.mean[l], ones.m2[l]}),
                      rawBits({lane[l].n, lane[l].mean, lane[l].m2}))
                << "cursor " << cursor << " lane " << l;
        }
        ASSERT_EQ(ones.next, (cursor + xs.size()) % kSummaryLanes);
    }
}

/** A RwMixAccumulator's two series and its request and read counts. */
struct RwState
{
    BinnedSeries reads{0, 1};
    BinnedSeries all{0, 1};
    std::uint64_t n = 0;
    std::uint64_t read_n = 0;
};

RwState
rwState(const core::RwMixAccumulator &rw)
{
    std::string blob;
    BinEnc enc(blob);
    rw.saveState(enc);
    BinDec dec(blob);
    dec.i64(); // bin width
    RwState s;
    EXPECT_TRUE(s.reads.loadState(dec) && s.all.loadState(dec));
    s.n = dec.u64();
    s.read_n = dec.u64();
    EXPECT_TRUE(dec.ok());
    return s;
}

TEST(RwMixFold, ScrambledTicksCountInTheirBins)
{
    // Scrambled arrivals in a window that starts before tick 0: the
    // next tick is as often in an earlier bin as in a later one, and
    // every 50th request is followed by one exactly a width behind
    // it, then one a tick short of a width ahead of that.
    const Tick start = -40 * kMsec;
    const Tick width = 10 * kMsec;
    std::vector<Tick> t = burstyArrivals(900, start);
    Rng rng(0x3c3c);
    for (std::size_t i = t.size(); i > 1; --i)
        std::swap(t[i - 1], t[rng.next() % i]);
    for (std::size_t i = 0; i + 2 < t.size(); i += 50) {
        t[i + 1] = std::max(t[i] - width, start);
        t[i + 2] = t[i + 1] + width - 1;
    }
    std::vector<trace::Op> op(t.size());
    for (trace::Op &o : op)
        o = rng.next() % 2 == 0 ? trace::Op::Read : trace::Op::Write;

    const std::size_t bins = 4;
    BinnedSeries all_want(start, width, bins), reads_want(start, width, bins);
    std::uint64_t reads = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        all_want.accumulateAt(t[i], 1.0);
        if (op[i] == trace::Op::Read) {
            reads_want.accumulateAt(t[i], 1.0);
            ++reads;
        }
    }
    for (std::size_t batch : kBatchSizes) {
        core::RwMixAccumulator rw(width);
        feed(rw, start, static_cast<Tick>(bins) * width, t, op, batch);
        const RwState got = rwState(rw);
        EXPECT_EQ(got.all.values(), all_want.values()) << "batch " << batch;
        EXPECT_EQ(got.reads.values(), reads_want.values())
            << "batch " << batch;
        EXPECT_EQ(got.n, t.size()) << "batch " << batch;
        EXPECT_EQ(got.read_n, reads) << "batch " << batch;
    }
}

TEST(RwMixFold, OneDirectionStreams)
{
    // All reads: the reads series is the all series.  All writes: the
    // reads series keeps its pre-sized zeros while all grows past it.
    const Tick start = 0;
    const Tick width = 10 * kMsec;
    const std::size_t bins = 8;
    const std::vector<Tick> t = burstyArrivals(400, start);
    ASSERT_GT(t.back(), static_cast<Tick>(bins) * width);
    BinnedSeries all_want(start, width, bins);
    for (Tick x : t)
        all_want.accumulateAt(x, 1.0);
    for (std::size_t batch : kBatchSizes) {
        core::RwMixAccumulator rd(width);
        feed(rd, start, static_cast<Tick>(bins) * width, t,
             std::vector<trace::Op>(t.size(), trace::Op::Read), batch);
        const RwState r = rwState(rd);
        EXPECT_EQ(r.all.values(), all_want.values()) << "batch " << batch;
        EXPECT_EQ(r.reads.values(), all_want.values()) << "batch " << batch;
        EXPECT_EQ(r.read_n, t.size()) << "batch " << batch;

        core::RwMixAccumulator wr(width);
        feed(wr, start, static_cast<Tick>(bins) * width, t,
             std::vector<trace::Op>(t.size(), trace::Op::Write), batch);
        const RwState w = rwState(wr);
        EXPECT_EQ(w.all.values(), all_want.values()) << "batch " << batch;
        EXPECT_EQ(w.reads.values(), std::vector<double>(bins, 0.0))
            << "batch " << batch;
        EXPECT_EQ(w.read_n, 0u) << "batch " << batch;
    }
}

TEST(TraceTotalsFold, CountsReadsAtEveryLength)
{
    // Every stream length up to 70, then every 37th: the read count
    // is one test per request, whatever the batch shape.
    Rng rng(0x515151);
    const std::size_t most = 517;
    const std::vector<Tick> t = burstyArrivals(most, 0);
    std::vector<trace::Op> op(most);
    for (trace::Op &o : op)
        o = rng.next() % 3 == 1 ? trace::Op::Read : trace::Op::Write;
    for (std::size_t n = 0; n <= most; n += (n < 70 ? 1 : 37)) {
        const std::vector<Tick> tn(t.begin(), t.begin() + n);
        const std::vector<trace::Op> opn(op.begin(), op.begin() + n);
        const std::size_t reads = static_cast<std::size_t>(
            std::count(opn.begin(), opn.end(), trace::Op::Read));
        for (std::size_t batch : kBatchSizes) {
            core::TraceTotalsAccumulator totals;
            feed(totals, 0, t.back() + 1, tn, opn, batch);
            ASSERT_EQ(totals.count(), n) << "batch " << batch;
            ASSERT_EQ(totals.readCount(), reads)
                << "n " << n << " batch " << batch;
            ASSERT_EQ(totals.readFraction(),
                      n == 0 ? 0.0
                             : static_cast<double>(reads) /
                                   static_cast<double>(n))
                << "n " << n << " batch " << batch;
        }
    }
}

TEST(SummaryLanesState, SaveLoadRoundTrip)
{
    const std::vector<double> xs = welfordSamples(41);
    SummaryLanes a;
    for (double x : xs)
        a.add(x);
    std::string blob;
    BinEnc enc(blob);
    a.saveState(enc);
    BinDec dec(blob.data(), blob.size());
    SummaryLanes b;
    ASSERT_TRUE(b.loadState(dec));
    ASSERT_TRUE(lanesBitEqual(a, b));
    ASSERT_EQ(a.combined().count(), b.combined().count());

    // Truncated blob fails cleanly.
    BinDec short_dec(blob.data(), blob.size() - 1);
    SummaryLanes c;
    ASSERT_FALSE(c.loadState(short_dec));
}

TEST(SummaryLanesState, LoadStateRejectsNonWholeCounts)
{
    // combined() converts each lane count to an integer, which is
    // undefined for these doubles (in dlwd, at the first report of a
    // restored session).
    const std::vector<double> xs = welfordSamples(41);
    SummaryLanes a;
    for (double x : xs)
        a.add(x);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          -1.0,
                          2.5,
                          0x1p53,
                          1e300,
                          std::numeric_limits<double>::infinity()};
    for (double n : bad) {
        for (std::size_t lane = 0; lane < kSummaryLanes; ++lane) {
            SummaryLanes garbled = a;
            garbled.n[lane] = n;
            std::string blob;
            BinEnc enc(blob);
            garbled.saveState(enc);
            BinDec dec(blob);
            SummaryLanes back;
            EXPECT_FALSE(back.loadState(dec))
                << "n " << n << " in lane " << lane;
        }
    }
    SummaryLanes largest = a;
    largest.n[3] = 0x1p53 - 1.0;
    std::string blob;
    BinEnc enc(blob);
    largest.saveState(enc);
    BinDec dec(blob);
    SummaryLanes back;
    EXPECT_TRUE(back.loadState(dec));
}

/** Adversarial series for the ACF kernel: signs, denormals, spikes. */
std::vector<double>
acfSamples(std::size_t n)
{
    Rng rng(0xacf);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.next() % 16) {
          case 0:
            xs[i] = std::numeric_limits<double>::denorm_min() *
                    static_cast<double>(rng.next() % 7);
            break;
          case 1:
            xs[i] = -std::numeric_limits<double>::denorm_min();
            break;
          case 2:
            xs[i] = i % 2 ? 1e300 : -1e300;
            break;
          default:
            xs[i] = rng.uniform(-50.0, 50.0);
            break;
        }
    }
    return xs;
}

/**
 * acf_lags over lags [k, max_lag] and t < t_end on every table,
 * continuing nonzero incoming chains, against scalar.
 */
void
expectAcfLagsMatchScalar(const std::vector<double> &d,
                         std::size_t max_lag, std::size_t k,
                         std::size_t t_end)
{
    const std::size_t n = d.size();
    const std::size_t lags = max_lag + 1 - k;
    std::vector<double> in(lags);
    for (std::size_t j = 0; j < lags; ++j)
        in[j] = 0.375 * static_cast<double>(j) - 3.0;
    std::vector<double> ref = in;
    detail::kScalarOps.acf_lags(d.data(), n, t_end, k, lags,
                                ref.data());
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        std::vector<double> got = in;
        ops().acf_lags(d.data(), n, t_end, k, lags, got.data());
        EXPECT_EQ(rawBits(ref), rawBits(got))
            << "isa=" << isaName(isa) << " n=" << n
            << " max_lag=" << max_lag << " k=" << k
            << " t_end=" << t_end;
    }
}

TEST(AcfLagsKernel, BitIdenticalAcrossIsas)
{
    for (std::size_t n : {std::size_t{2}, std::size_t{3},
                          std::size_t{17}, std::size_t{4101}}) {
        // A constant series is the c0 == 0 case of autocorrelation.
        for (const std::vector<double> &d :
             {acfSamples(n), std::vector<double>(n, 7.25)}) {
            // Lags up to n + 5 reach past the window: those chains
            // take no term.
            for (std::size_t max_lag :
                 {std::size_t{1}, std::size_t{15}, std::size_t{16},
                  std::size_t{17}, std::size_t{31}, std::size_t{32},
                  std::size_t{33}, std::size_t{48}, std::size_t{200},
                  n - 1, n + 5}) {
                // The whole window, as the last chunk runs it, and a
                // chunk that stops short of it.
                for (std::size_t t_end : {n, n / 2 + 1}) {
                    // Lags 1..max_lag, as autocorrelation asks, and
                    // a block starting at lag 0.
                    expectAcfLagsMatchScalar(d, max_lag, 1, t_end);
                    expectAcfLagsMatchScalar(d, max_lag, 0, t_end);
                }
            }
        }
    }
}

TEST(AcfLagsKernel, ScalarIsThePerLagSum)
{
    const std::vector<double> d = acfSamples(61);
    std::vector<double> got(60, 0.0);
    detail::kScalarOps.acf_lags(d.data(), d.size(), d.size(), 1,
                                got.size(), got.data());
    for (std::size_t k = 1; k <= got.size(); ++k) {
        double ck = 0.0;
        for (std::size_t t = 0; t + k < d.size(); ++t)
            ck += d[t] * d[t + k];
        EXPECT_EQ(rawBits({ck}), rawBits({got[k - 1]})) << "lag " << k;
    }
}

TEST(AcfLagsKernel, ChunksCarryEachLagsChain)
{
    // Two calls over [0, 40) and [40, 61) of windows that start at
    // t = 0 and t = 40 continue every lag's chain: the same bits as
    // one call over the whole series.
    const std::vector<double> d = acfSamples(61);
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        std::vector<double> whole(60, 0.0), chunked(60, 0.0);
        ops().acf_lags(d.data(), d.size(), d.size(), 1, whole.size(),
                       whole.data());
        ops().acf_lags(d.data(), d.size(), 40, 1, chunked.size(),
                       chunked.data());
        ops().acf_lags(d.data() + 40, d.size() - 40, d.size() - 40, 1,
                       chunked.size(), chunked.data());
        EXPECT_EQ(rawBits(whole), rawBits(chunked))
            << "isa=" << isaName(isa);
    }
}

/**
 * Blocks for the R/S kernel: acfSamples' adversarial mix, with -0.0
 * entries and, from `constant_from` on, a constant tail whose blocks
 * have s == 0 and are skipped.
 */
std::vector<double>
rsSamples(std::size_t n, std::size_t constant_from)
{
    std::vector<double> xs = acfSamples(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= constant_from)
            xs[i] = 3.5;
        else if (i % 9 == 4)
            xs[i] = -0.0;
    }
    return xs;
}

/** The per-block R/S loop KernelOps::rescaled_range stands for. */
double
rsReference(const std::vector<double> &xs, std::size_t n,
            std::size_t blocks)
{
    double total = 0.0;
    std::size_t used = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const double *block = xs.data() + b * n;
        double mean = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            mean += block[j];
        mean /= static_cast<double>(n);
        double cum = 0.0, lo = 0.0, hi = 0.0, ss = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double d = block[j] - mean;
            cum += d;
            lo = std::min(lo, cum);
            hi = std::max(hi, cum);
            ss += d * d;
        }
        const double s = std::sqrt(ss / static_cast<double>(n));
        if (s > 0.0) {
            total += (hi - lo) / s;
            ++used;
        }
    }
    return used ? total / static_cast<double>(used) : 0.0;
}

TEST(RescaledRangeKernel, ScalarIsTheBlockLoop)
{
    for (std::size_t n : {1, 2, 3, 5, 8, 13}) {
        for (std::size_t blocks = 0; blocks <= 11; ++blocks) {
            const std::vector<double> xs =
                rsSamples(n * blocks, n * blocks / 2);
            EXPECT_EQ(rawBits({rsReference(xs, n, blocks)}),
                      rawBits({detail::kScalarOps.rescaled_range(
                          xs.data(), n, blocks)}))
                << "n=" << n << " blocks=" << blocks;
        }
    }
}

TEST(RescaledRangeKernel, BitIdenticalAcrossIsas)
{
    // Block lengths around the vector tables' four-element steps and
    // block counts around their lane groups, plus a long block.
    for (std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 1001}) {
        for (std::size_t blocks = 0; blocks <= 19; ++blocks) {
            const std::size_t len = n * blocks + n / 2;
            for (std::size_t constant_from : {len, len / 3}) {
                const std::vector<double> xs = rsSamples(len, constant_from);
                const double ref = detail::kScalarOps.rescaled_range(
                    xs.data(), n, blocks);
                for (Isa isa : supportedIsas()) {
                    IsaGuard guard;
                    force(isa);
                    EXPECT_EQ(rawBits({ref}),
                              rawBits({ops().rescaled_range(xs.data(), n,
                                                            blocks)}))
                        << "isa=" << isaName(isa) << " n=" << n
                        << " blocks=" << blocks
                        << " constant_from=" << constant_from;
                }
            }
        }
    }
}

TEST(Dispatch, ForceClampsUnsupported)
{
    IsaGuard guard;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
        force(isa);
        EXPECT_EQ(activeIsa(), supported(isa) ? isa : Isa::kScalar);
    }
    force(Isa::kScalar);
    EXPECT_EQ(&ops(), &detail::kScalarOps);
    EXPECT_EQ(isaName(Isa::kScalar), std::string("scalar"));
    EXPECT_EQ(isaName(Isa::kAvx2), std::string("avx2"));
}

/** Synthesize a bursty trace for the accumulator-level checks. */
trace::MsTrace
syntheticTrace(std::size_t n)
{
    std::vector<Tick> arrivals = burstyArrivals(n, 0);
    trace::MsTrace tr;
    Rng rng(0xabcdef);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        trace::Request r;
        r.arrival = arrivals[i];
        r.lba = rng.next() % (1u << 24);
        r.blocks = 1 + static_cast<BlockCount>(rng.next() % 256);
        r.op = rng.next() % 3 ? trace::Op::Write : trace::Op::Read;
        tr.appendExtending(r);
    }
    return tr;
}

TEST(AccumulatorIdentity, FullReportsMatchAcrossIsas)
{
    const trace::MsTrace tr = syntheticTrace(6000);

    struct Result
    {
        core::BurstinessReport burst;
        core::RwDynamics rw;
        std::size_t totals_n = 0;
        core::DriveCharacterization drive;
    };
    std::vector<Result> results;
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        core::BurstinessAccumulator burst;
        core::RwMixAccumulator rw;
        core::TraceTotalsAccumulator totals;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(burst);
        pass.add(rw);
        pass.add(totals);
        ASSERT_TRUE(pass.run(src).ok());
        Result r;
        r.burst = burst.report();
        r.rw = rw.report();
        r.totals_n = totals.count();
        // What analyze prints: the drive, the fused fold, Hurst and
        // the ACF lag sums, all under this table.
        disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
        trace::MsTraceSource drive_src(tr);
        StatusOr<core::DriveCharacterization> c =
            core::serviceAndCharacterize(drive, drive_src);
        ASSERT_TRUE(c.ok()) << c.status().toString();
        r.drive = std::move(c).value();
        results.push_back(std::move(r));
    }
    ASSERT_FALSE(results.empty());
    const Result &ref = results.front();
    for (std::size_t i = 1; i < results.size(); ++i) {
        const Result &got = results[i];
        // Byte-identity: every derived figure must match exactly.
        EXPECT_EQ(ref.burst.interarrival_cv, got.burst.interarrival_cv);
        EXPECT_EQ(ref.burst.peak_to_mean, got.burst.peak_to_mean);
        ASSERT_EQ(ref.burst.idc.size(), got.burst.idc.size());
        for (std::size_t j = 0; j < ref.burst.idc.size(); ++j)
            EXPECT_EQ(ref.burst.idc[j].idc, got.burst.idc[j].idc);
        EXPECT_EQ(ref.rw.read_fraction, got.rw.read_fraction);
        EXPECT_EQ(ref.rw.mean_run_length, got.rw.mean_run_length);
        EXPECT_EQ(ref.rw.longest_write_run, got.rw.longest_write_run);
        EXPECT_EQ(ref.rw.write_bursts, got.rw.write_bursts);
        EXPECT_EQ(ref.rw.read_fraction_series,
                  got.rw.read_fraction_series);
        EXPECT_EQ(ref.totals_n, got.totals_n);
        EXPECT_EQ(ref.drive.render(), got.drive.render());
        ASSERT_TRUE(ref.drive.ms_burstiness && got.drive.ms_burstiness);
        const core::BurstinessReport &rb = *ref.drive.ms_burstiness;
        const core::BurstinessReport &gb = *got.drive.ms_burstiness;
        ASSERT_FALSE(rb.acf.empty());
        EXPECT_EQ(rawBits(rb.acf), rawBits(gb.acf));
        EXPECT_EQ(rb.decorrelation_lag, gb.decorrelation_lag);
        EXPECT_EQ(rawBits({rb.hurst_var.h, rb.hurst_rs.h}),
                  rawBits({gb.hurst_var.h, gb.hurst_rs.h}));
    }
}

TEST(AccumulatorIdentity, BatchSizeDoesNotChangeBurstiness)
{
    const trace::MsTrace tr = syntheticTrace(5000);
    std::vector<double> cvs;
    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{4096}}) {
        core::BurstinessAccumulator acc;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, batch).ok());
        cvs.push_back(acc.report().interarrival_cv);
    }
    for (std::size_t i = 1; i < cvs.size(); ++i)
        EXPECT_EQ(cvs[0], cvs[i]);
}

} // anonymous namespace
} // namespace simd
} // namespace stats
} // namespace dlw
