/**
 * @file
 * Pins the bits of the burstiness finish: the IDC curve, the two
 * Hurst estimators and the count ACF that analyzeCountSeries() runs.
 *
 * Two kinds of check, both bit for bit:
 *  - reference copies of the original estimator loops (per-scale
 *    passes folded through a full stats::Summary), compared against
 *    the library on adversarial inputs;
 *  - FNV-1a digests over every double of the reports, recorded once
 *    from the original implementation, so a rewrite that changes a
 *    bit anywhere (the fanned-out finish included) fails here even
 *    when it agrees with itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "core/burstiness.hh"
#include "stats/dispersion.hh"
#include "stats/hurst.hh"
#include "stats/regression.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"
#include "synth/bmodel.hh"

namespace dlw
{
namespace
{

// ---------------------------------------------------------------------
// Reference copies of the original estimator loops.

std::vector<std::size_t>
refGeometricFactors(std::size_t lo, std::size_t hi, std::size_t points)
{
    std::vector<std::size_t> out;
    if (lo < 1)
        lo = 1;
    if (hi < lo)
        return out;
    const double llo = std::log(static_cast<double>(lo));
    const double lhi = std::log(static_cast<double>(hi));
    for (std::size_t i = 0; i < points; ++i) {
        double f = points == 1
            ? llo
            : llo + (lhi - llo) * static_cast<double>(i) /
                  static_cast<double>(points - 1);
        auto v = static_cast<std::size_t>(std::lround(std::exp(f)));
        v = std::clamp<std::size_t>(v, lo, hi);
        if (out.empty() || out.back() != v)
            out.push_back(v);
    }
    return out;
}

double
refAggregatedVariance(const std::vector<double> &xs, std::size_t m)
{
    stats::Summary s;
    const std::size_t blocks = xs.size() / m;
    for (std::size_t b = 0; b < blocks; ++b) {
        double acc = 0.0;
        for (std::size_t j = 0; j < m; ++j)
            acc += xs[b * m + j];
        s.add(acc / static_cast<double>(m));
    }
    return s.sampleVariance();
}

double
refMeanRescaledRange(const std::vector<double> &xs, std::size_t n)
{
    const std::size_t blocks = xs.size() / n;
    double total = 0.0;
    std::size_t used = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const double *block = xs.data() + b * n;
        double mean = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            mean += block[j];
        mean /= static_cast<double>(n);

        double cum = 0.0;
        double lo = 0.0, hi = 0.0;
        double ss = 0.0;
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

stats::HurstEstimate
refHurstAggregatedVariance(const std::vector<double> &xs,
                           std::size_t min_factor, std::size_t max_factor,
                           std::size_t points)
{
    if (max_factor == 0)
        max_factor = xs.size() / 8;
    max_factor = std::min(max_factor, xs.size() / 8);
    if (max_factor < min_factor)
        max_factor = min_factor;

    stats::HurstEstimate est;
    for (std::size_t m :
         refGeometricFactors(min_factor, max_factor, points)) {
        double var = refAggregatedVariance(xs, m);
        if (var <= 0.0)
            continue;
        est.log_scale.push_back(std::log10(static_cast<double>(m)));
        est.log_value.push_back(std::log10(var));
    }
    if (est.log_scale.size() < 2)
        return est;
    stats::LineFit fit = stats::leastSquares(est.log_scale, est.log_value);
    est.h = std::clamp(1.0 + fit.slope / 2.0, 0.0, 1.0);
    est.r2 = fit.r2;
    est.points = est.log_scale.size();
    return est;
}

stats::HurstEstimate
refHurstRescaledRange(const std::vector<double> &xs, std::size_t points)
{
    stats::HurstEstimate est;
    for (std::size_t n : refGeometricFactors(8, xs.size() / 4, points)) {
        double rs = refMeanRescaledRange(xs, n);
        if (rs <= 0.0)
            continue;
        est.log_scale.push_back(std::log10(static_cast<double>(n)));
        est.log_value.push_back(std::log10(rs));
    }
    if (est.log_scale.size() < 2)
        return est;
    stats::LineFit fit = stats::leastSquares(est.log_scale, est.log_value);
    est.h = std::clamp(fit.slope, 0.0, 1.0);
    est.r2 = fit.r2;
    est.points = est.log_scale.size();
    return est;
}

double
refIdcOf(const stats::Summary &s)
{
    if (s.count() == 0 || s.mean() == 0.0)
        return 0.0;
    return s.sampleVariance() / s.mean();
}

std::vector<stats::IdcPoint>
refIdcAcrossScales(const stats::BinnedSeries &base,
                   const std::vector<std::size_t> &factors,
                   std::size_t min_windows)
{
    const std::vector<double> &v = base.values();
    std::vector<stats::IdcPoint> out;
    for (std::size_t f : factors) {
        const std::size_t windows = v.size() / f;
        if (windows < min_windows)
            continue;
        stats::Summary s;
        if (f == 1) {
            for (std::size_t i = 0; i < windows; ++i)
                s.add(v[i]);
        } else {
            for (std::size_t i = 0; i < windows * f; i += f) {
                double sum = 0.0;
                for (std::size_t j = i; j < i + f; ++j)
                    sum += v[j];
                s.add(sum);
            }
        }
        stats::IdcPoint p;
        p.window = base.binWidth() * static_cast<Tick>(f);
        p.idc = refIdcOf(s);
        p.windows = windows;
        out.push_back(p);
    }
    return out;
}

// ---------------------------------------------------------------------
// Bit comparison and digests.

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

::testing::AssertionResult
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (bitsOf(a[i]) != bitsOf(b[i]))
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
    }
    return ::testing::AssertionSuccess();
}

void
expectSameEstimate(const stats::HurstEstimate &ref,
                   const stats::HurstEstimate &got)
{
    EXPECT_EQ(bitsOf(ref.h), bitsOf(got.h)) << ref.h << " vs " << got.h;
    EXPECT_EQ(bitsOf(ref.r2), bitsOf(got.r2));
    EXPECT_EQ(ref.points, got.points);
    EXPECT_TRUE(sameBits(ref.log_scale, got.log_scale));
    EXPECT_TRUE(sameBits(ref.log_value, got.log_value));
}

void
expectSameCurve(const std::vector<stats::IdcPoint> &ref,
                const std::vector<stats::IdcPoint> &got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].window, got[i].window) << "point " << i;
        EXPECT_EQ(ref[i].windows, got[i].windows) << "point " << i;
        EXPECT_EQ(bitsOf(ref[i].idc), bitsOf(got[i].idc))
            << "point " << i << ": " << ref[i].idc << " vs "
            << got[i].idc;
    }
}

/** 64-bit FNV-1a over the bytes of what is fed to it. */
class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= c[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void f64(double x) { bytes(&x, sizeof x); }
    void
    u64(std::uint64_t x)
    {
        bytes(&x, sizeof x);
    }
    void
    f64s(const std::vector<double> &xs)
    {
        u64(xs.size());
        for (double x : xs)
            f64(x);
    }
    void
    estimate(const stats::HurstEstimate &e)
    {
        f64(e.h);
        f64(e.r2);
        u64(e.points);
        f64s(e.log_scale);
        f64s(e.log_value);
    }
    void
    curve(const std::vector<stats::IdcPoint> &c)
    {
        u64(c.size());
        for (const stats::IdcPoint &p : c) {
            u64(static_cast<std::uint64_t>(p.window));
            f64(p.idc);
            u64(p.windows);
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
reportDigest(const core::BurstinessReport &r)
{
    Fnv h;
    h.f64(r.peak_to_mean);
    h.curve(r.idc);
    h.estimate(r.hurst_var);
    h.estimate(r.hurst_rs);
    h.f64s(r.acf);
    h.u64(r.decorrelation_lag);
    return h.value();
}

// ---------------------------------------------------------------------
// Inputs.

/** b-model cascade counts, 2^17 + 3 bins: the fan-out path, with a
 *  partial tail block at most aggregation factors. */
stats::BinnedSeries
bmodelCounts()
{
    Rng rng(23);
    const synth::BModel bm(0.75, 18);
    const std::vector<std::uint64_t> c = bm.counts(rng, 400000);
    stats::BinnedSeries s(0, 10 * kMsec, (std::size_t{1} << 17) + 3);
    for (std::size_t i = 0; i < s.size(); ++i)
        s.at(i) = static_cast<double>(c[i]);
    return s;
}

/** Poisson counts, 6 000 bins: one minute at 10 ms, the serial path. */
stats::BinnedSeries
poissonCounts()
{
    Rng rng(29);
    stats::BinnedSeries s(0, 10 * kMsec, 6000);
    for (std::size_t i = 0; i < s.size(); ++i)
        s.at(i) = static_cast<double>(rng.poisson(3.0));
    return s;
}

/**
 * A non-integer series with -0.0 entries and subnormal values.  5 003
 * bins leave 1 to 3 R/S blocks beyond a multiple of four at several
 * block sizes (5003 / 8 = 625, / 19 = 263, / 44 = 113, ...).
 */
stats::BinnedSeries
oddValues()
{
    Rng rng(31);
    const double tiny = std::numeric_limits<double>::denorm_min();
    stats::BinnedSeries s(0, kMsec, 5003);
    for (std::size_t i = 0; i < s.size(); ++i) {
        double x = rng.uniform(-0.25, 4.0) * 1.7;
        if (i % 7 == 3)
            x = -0.0;
        else if (i % 11 == 5)
            x = tiny * static_cast<double>(i % 97 + 1);
        else if (i % 13 == 8)
            x = -tiny * 3.0;
        s.at(i) = x;
    }
    return s;
}

const std::vector<std::size_t> kPinnedFactors = {1, 2, 3, 5, 7, 10, 33};

struct Pinned
{
    const char *name;
    stats::BinnedSeries (*make)();
    std::uint64_t report;
    std::uint64_t hurst_var;
    std::uint64_t hurst_rs;
    std::uint64_t idc;
};

// Recorded from the original per-scale implementation.
const Pinned kPinned[] = {
    {"bmodel", bmodelCounts, 9784210893929615040ULL,
     9673147337027410272ULL, 6675108971604134407ULL,
     11958230288341394957ULL},
    {"poisson", poissonCounts, 9710724386781772442ULL,
     2878104219230849323ULL, 5058851706020285314ULL,
     3028502572743233430ULL},
    {"odd", oddValues, 17799058778249227415ULL, 9996047782782234679ULL,
     7363295797923403611ULL, 9925783309938931330ULL},
};

// ---------------------------------------------------------------------

TEST(FinishBits, DigestsMatchTheOriginalEstimators)
{
    for (const Pinned &p : kPinned) {
        const stats::BinnedSeries s = p.make();
        const std::vector<double> &v = s.values();

        EXPECT_EQ(reportDigest(core::analyzeCountSeries(s)), p.report)
            << p.name << " analyzeCountSeries";

        Fnv hv;
        hv.estimate(stats::hurstAggregatedVariance(v, 2, 500, 20));
        EXPECT_EQ(hv.value(), p.hurst_var) << p.name;

        Fnv hr;
        hr.estimate(stats::hurstRescaledRange(v, 30));
        EXPECT_EQ(hr.value(), p.hurst_rs) << p.name;

        Fnv idc;
        idc.curve(stats::idcAcrossScales(s, kPinnedFactors, 2));
        EXPECT_EQ(idc.value(), p.idc) << p.name;
    }
}

TEST(FinishBits, ReportMatchesReferenceLoops)
{
    for (const Pinned &p : kPinned) {
        SCOPED_TRACE(p.name);
        const stats::BinnedSeries s = p.make();
        const std::vector<double> &v = s.values();
        const core::BurstinessReport r = core::analyzeCountSeries(s);
        expectSameCurve(
            refIdcAcrossScales(s, {1, 4, 16, 64, 256, 1024, 4096, 16384,
                                   65536},
                               8),
            r.idc);
        expectSameEstimate(refHurstAggregatedVariance(v, 1, 0, 12),
                           r.hurst_var);
        expectSameEstimate(refHurstRescaledRange(v, 12), r.hurst_rs);
    }
}

TEST(FinishBits, IdcMatchesReferenceLoops)
{
    for (const Pinned &p : kPinned) {
        SCOPED_TRACE(p.name);
        const stats::BinnedSeries s = p.make();
        // Unsorted, repeated and too-coarse factors; min_windows 0
        // keeps a factor with no whole window at all.
        const std::vector<std::vector<std::size_t>> lists = {
            kPinnedFactors,
            {7, 125, 126, 200, 333},
            {64, 1, 3, 3, 1000, 2, 100000, 6000, 5003, 5004, 200000},
        };
        for (const std::vector<std::size_t> &f : lists) {
            for (std::size_t mw : {std::size_t{0}, std::size_t{2},
                                   std::size_t{8}}) {
                expectSameCurve(refIdcAcrossScales(s, f, mw),
                                stats::idcAcrossScales(s, f, mw));
            }
        }
    }
}

TEST(FinishBits, HurstMatchesReferenceLoops)
{
    for (const Pinned &p : kPinned) {
        SCOPED_TRACE(p.name);
        const stats::BinnedSeries s = p.make();
        const std::vector<double> &v = s.values();
        for (std::size_t points : {std::size_t{1}, std::size_t{2},
                                   std::size_t{12}, std::size_t{30}}) {
            expectSameEstimate(
                refHurstRescaledRange(v, points),
                stats::hurstRescaledRange(v, points));
            expectSameEstimate(
                refHurstAggregatedVariance(v, 1, 0, points),
                stats::hurstAggregatedVariance(v, 1, 0, points));
        }
        expectSameEstimate(refHurstAggregatedVariance(v, 2, 500, 20),
                           stats::hurstAggregatedVariance(v, 2, 500, 20));
        expectSameEstimate(refHurstAggregatedVariance(v, 3, 7, 5),
                           stats::hurstAggregatedVariance(v, 3, 7, 5));
    }
}

TEST(FinishBits, ShortSeriesMatchReferenceLoops)
{
    // Every length from the estimators' minimums up to a few R/S
    // lanes' worth of blocks at the smallest block size.
    const stats::BinnedSeries odd = oddValues();
    for (std::size_t n = 64; n <= 64 + 8 * 17; ++n) {
        SCOPED_TRACE(n);
        std::vector<double> v(odd.values().begin(),
                              odd.values().begin() +
                                  static_cast<std::ptrdiff_t>(n));
        stats::BinnedSeries s(0, kMsec, n);
        for (std::size_t i = 0; i < n; ++i)
            s.at(i) = v[i];
        expectSameEstimate(refHurstRescaledRange(v, 12),
                           stats::hurstRescaledRange(v, 12));
        expectSameEstimate(refHurstAggregatedVariance(v, 1, 0, 12),
                           stats::hurstAggregatedVariance(v, 1, 0, 12));
        expectSameCurve(refIdcAcrossScales(s, kPinnedFactors, 2),
                        stats::idcAcrossScales(s, kPinnedFactors, 2));
    }
}

} // anonymous namespace
} // namespace dlw
