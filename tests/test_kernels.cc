/**
 * @file
 * Bit-identity of the SIMD characterization kernels.
 *
 * Every test runs the same input through the scalar reference table
 * and the AVX2 table when this build + CPU supports it, and demands
 * the results be identical to the last bit — that is the contract
 * that lets dispatch follow CPUID.  Inputs are chosen to be
 * adversarial: denormals, exact bin edges, tail batches of every
 * length below two vector widths, empty batches, duplicate ticks,
 * and unsorted arrivals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
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

TEST(CountSortedKernel, MatchesPerElementLoop)
{
    const Tick start = 1000;
    const Tick width = 10 * kMsec;
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{15},
                          std::size_t{64}, std::size_t{1000}}) {
        std::vector<Tick> t = burstyArrivals(n, start);
        BinnedSeries ref(start, width);
        for (Tick x : t)
            ref.accumulateAt(x, 1.0); // exercises the growth path too
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            BinnedSeries got(start, width);
            got.countSorted(t.data(), t.size());
            ASSERT_EQ(ref.values(), got.values())
                << "isa=" << isaName(isa) << " n=" << n;
        }
    }
}

TEST(CountSortedKernel, UnsortedInputStillCorrect)
{
    // Correctness must not depend on sort order: an out-of-run
    // element just opens a new run (or takes the growth path).
    std::vector<Tick> t = burstyArrivals(300, 5000);
    // Scramble deterministically.
    Rng rng(7);
    for (std::size_t i = t.size(); i > 1; --i)
        std::swap(t[i - 1], t[rng.next() % i]);
    const Tick width = 10 * kMsec;
    BinnedSeries ref(5000, width);
    for (Tick x : t)
        ref.accumulateAt(x, 1.0);
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        BinnedSeries got(5000, width);
        got.countSorted(t.data(), t.size());
        ASSERT_EQ(ref.values(), got.values()) << "isa=" << isaName(isa);
    }
}

TEST(CountSortedIfKernel, MatchesFilteredPerElementLoop)
{
    const Tick start = 0;
    const Tick width = 10 * kMsec;
    std::vector<Tick> t = burstyArrivals(777, start);
    std::vector<std::uint8_t> flags(t.size());
    Rng rng(99);
    for (auto &f : flags)
        f = static_cast<std::uint8_t>(rng.next() % 2);

    BinnedSeries ref(start, width);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (flags[i] == 1)
            ref.accumulateAt(t[i], 1.0);
    }
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        BinnedSeries got(start, width);
        got.countSortedIf(t.data(), flags.data(), 1, t.size());
        ASSERT_EQ(ref.values(), got.values()) << "isa=" << isaName(isa);
    }
}

TEST(GapsKernel, ExactInt64Conversion)
{
    // Ticks chosen so the difference exercises > 2^52 magnitudes,
    // where int64 -> double conversion actually rounds.
    std::vector<Tick> t = {
        0, 1, 2, 4503599627370497LL, 4503599627370499LL,
        9007199254740993LL, 9007199254741995LL, 9007199254741997LL,
        123456789012345678LL, 123456789012345679LL,
        223456789012345678LL,
    };
    for (std::size_t n = 0; n <= t.size(); ++n) {
        std::vector<double> ref(n + 1, -1.0), got(n + 1, -1.0);
        detail::kScalarOps.gaps_i64(t.data(), n, -17, ref.data());
        for (std::size_t i = 0; i < n; ++i) {
            const Tick prev = i == 0 ? -17 : t[i - 1];
            ASSERT_EQ(ref[i], static_cast<double>(t[i] - prev));
        }
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            ops().gaps_i64(t.data(), n, -17, got.data());
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(ref[i], got[i])
                    << "isa=" << isaName(isa) << " i=" << i;
        }
    }
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

TEST(WelfordKernel, BitIdenticalAcrossIsasAndTails)
{
    const std::vector<double> xs = welfordSamples(1000);
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8},
                          std::size_t{15}, std::size_t{1000}}) {
        // Start from a non-trivial cursor to exercise the peel.
        for (std::uint32_t cursor = 0; cursor < kSummaryLanes;
             ++cursor) {
            SummaryLanes ref;
            for (std::uint32_t c = 0; c < cursor; ++c)
                ref.add(3.5); // advance the cursor the slow way
            SummaryLanes seed = ref;
            detail::kScalarOps.welford_add(ref, xs.data(), n);
            for (Isa isa : supportedIsas()) {
                IsaGuard guard;
                force(isa);
                SummaryLanes got = seed;
                ops().welford_add(got, xs.data(), n);
                ASSERT_TRUE(lanesBitEqual(ref, got))
                    << "isa=" << isaName(isa) << " n=" << n
                    << " cursor=" << cursor;
            }
        }
    }
}

TEST(WelfordKernel, BatchSplitInvariant)
{
    // Chunking must not change a single bit: lane membership follows
    // the global element index, not the batch shape.
    const std::vector<double> xs = welfordSamples(613);
    SummaryLanes whole;
    whole.addBatch(xs.data(), xs.size());
    for (std::size_t cut : {std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{100},
                            std::size_t{612}}) {
        SummaryLanes split;
        split.addBatch(xs.data(), cut);
        split.addBatch(xs.data() + cut, xs.size() - cut);
        ASSERT_TRUE(lanesBitEqual(whole, split)) << "cut=" << cut;
    }
    // And the one-element path is the same tree again.
    SummaryLanes ones;
    for (double x : xs)
        ones.add(x);
    ASSERT_TRUE(lanesBitEqual(whole, ones));
}

TEST(SummaryLanesState, SaveLoadRoundTrip)
{
    const std::vector<double> xs = welfordSamples(41);
    SummaryLanes a;
    a.addBatch(xs.data(), xs.size());
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
    a.addBatch(xs.data(), xs.size());
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

TEST(CountEqKernel, MatchesScalar)
{
    Rng rng(0x515151);
    std::vector<std::uint8_t> flags(517);
    for (std::uint8_t &f : flags)
        f = static_cast<std::uint8_t>(rng.next() % 3);
    for (std::size_t n = 0; n <= flags.size();
         n += (n < 70 ? 1 : 37)) {
        const std::uint64_t ref_cnt =
            detail::kScalarOps.count_eq_u8(flags.data(), n, 1);
        std::uint64_t expect_cnt = 0;
        for (std::size_t i = 0; i < n; ++i)
            expect_cnt += flags[i] == 1 ? 1 : 0;
        ASSERT_EQ(ref_cnt, expect_cnt);
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            ASSERT_EQ(ops().count_eq_u8(flags.data(), n, 1), ref_cnt)
                << "isa=" << isaName(isa) << " n=" << n;
        }
    }
}

/** Raw bits of every element, so -0.0, NaN and inf compare exactly. */
std::vector<std::uint64_t>
rawBits(const std::vector<double> &xs)
{
    std::vector<std::uint64_t> out(xs.size());
    std::memcpy(out.data(), xs.data(), xs.size() * sizeof(double));
    return out;
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
