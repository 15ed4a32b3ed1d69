/**
 * @file
 * stats::Summary and the SummaryLanes fold against the 4-moment
 * accumulators they were cut down from.
 *
 * Summary and SummaryLanes once also kept m3 and m4 (and the lanes a
 * min and a max) that no report read.  The copies below are those
 * accumulators as they were; the mean and m2 updates never read the
 * dropped moments, so every figure a report uses must come out bit
 * for bit the same: count, mean, m2, variance, sampleVariance, cv,
 * min and max of a Summary, each lane's count, mean and m2 and
 * combined().cv().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/simd/simd.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace stats
{
namespace
{

/** The 4-moment Summary, as it was. */
class Summary4
{
  public:
    static Summary4
    fromRaw(std::uint64_t n, double mean, double m2, double m3,
            double m4, double min, double max)
    {
        Summary4 s;
        s.n_ = n;
        s.mean_ = mean;
        s.m2_ = m2;
        s.m3_ = m3;
        s.m4_ = m4;
        s.min_ = min;
        s.max_ = max;
        return s;
    }

    void
    add(double x)
    {
        const double n1 = static_cast<double>(n_);
        ++n_;
        const double n = static_cast<double>(n_);
        const double delta = x - mean_;
        const double delta_n = delta / n;
        const double delta_n2 = delta_n * delta_n;
        const double term1 = delta * delta_n * n1;

        mean_ += delta_n;
        m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
               6.0 * delta_n2 * m2_ - 4.0 * delta_n * m3_;
        m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
        m2_ += term1;

        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    void
    merge(const Summary4 &other)
    {
        if (other.n_ == 0)
            return;
        if (n_ == 0) {
            *this = other;
            return;
        }

        const double na = static_cast<double>(n_);
        const double nb = static_cast<double>(other.n_);
        const double nx = na + nb;
        const double delta = other.mean_ - mean_;
        const double delta2 = delta * delta;
        const double delta3 = delta2 * delta;
        const double delta4 = delta2 * delta2;

        const double m2x = m2_ + other.m2_ + delta2 * na * nb / nx;
        const double m3x = m3_ + other.m3_ +
            delta3 * na * nb * (na - nb) / (nx * nx) +
            3.0 * delta * (na * other.m2_ - nb * m2_) / nx;
        const double m4x = m4_ + other.m4_ +
            delta4 * na * nb * (na * na - na * nb + nb * nb) /
                (nx * nx * nx) +
            6.0 * delta2 *
                (na * na * other.m2_ + nb * nb * m2_) / (nx * nx) +
            4.0 * delta * (na * other.m3_ - nb * m3_) / nx;

        mean_ = (na * mean_ + nb * other.mean_) / nx;
        m2_ = m2x;
        m3_ = m3x;
        m4_ = m4x;
        n_ += other.n_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double m2() const { return m2_; }
    double min() const { return min_; }
    double max() const { return max_; }

    double
    variance() const
    {
        if (n_ < 1)
            return 0.0;
        return m2_ / static_cast<double>(n_);
    }

    double
    sampleVariance() const
    {
        if (n_ < 2)
            return 0.0;
        return m2_ / static_cast<double>(n_ - 1);
    }

    double
    cv() const
    {
        if (n_ == 0 || mean_ == 0.0)
            return 0.0;
        return std::sqrt(variance()) / std::fabs(mean_);
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double m3_ = 0.0;
    double m4_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** The 7-field SummaryLanes, as it was. */
struct Lanes4
{
    static constexpr std::size_t kLanes = simd::kSummaryLanes;
    double n[kLanes] = {};
    double mean[kLanes] = {};
    double m2[kLanes] = {};
    double m3[kLanes] = {};
    double m4[kLanes] = {};
    double mn[kLanes] = {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity()};
    double mx[kLanes] = {-std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
    std::uint32_t next = 0;

    /** The lane step, as it was (welfordOne). */
    void
    add(double x)
    {
        const std::uint32_t lane = next;
        const double n1 = n[lane];
        const double nn = n1 + 1.0;
        n[lane] = nn;
        const double delta = x - mean[lane];
        const double delta_n = delta / nn;
        const double delta_n2 = delta_n * delta_n;
        const double term1 = delta * delta_n * n1;

        mean[lane] += delta_n;
        m4[lane] += term1 * delta_n2 * (nn * nn - 3.0 * nn + 3.0) +
                    6.0 * delta_n2 * m2[lane] -
                    4.0 * delta_n * m3[lane];
        m3[lane] += term1 * delta_n * (nn - 2.0) -
                    3.0 * delta_n * m2[lane];
        m2[lane] += term1;

        mn[lane] = x < mn[lane] ? x : mn[lane];
        mx[lane] = x > mx[lane] ? x : mx[lane];
        next = (next + 1) % kLanes;
    }

    Summary4
    combined() const
    {
        Summary4 out;
        for (std::size_t i = 0; i < kLanes; ++i) {
            if (n[i] == 0.0)
                continue;
            out.merge(Summary4::fromRaw(static_cast<std::uint64_t>(n[i]),
                                        mean[i], m2[i], m3[i], m4[i],
                                        mn[i], mx[i]));
        }
        return out;
    }
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult
summariesMatch(const Summary4 &want, const Summary &got)
{
    const std::pair<const char *, std::pair<double, double>> fields[] = {
        {"mean", {want.mean(), got.mean()}},
        {"m2", {want.m2(), got.m2()}},
        {"variance", {want.variance(), got.variance()}},
        {"sampleVariance", {want.sampleVariance(), got.sampleVariance()}},
        {"cv", {want.cv(), got.cv()}},
        {"min", {want.min(), got.min()}},
        {"max", {want.max(), got.max()}},
    };
    if (want.count() != got.count())
        return ::testing::AssertionFailure()
               << "count " << got.count() << " != " << want.count();
    for (const auto &[name, v] : fields) {
        if (!sameBits(v.first, v.second))
            return ::testing::AssertionFailure()
                   << name << " " << v.second << " != " << v.first;
    }
    return ::testing::AssertionSuccess();
}

/** xorshift64 draws: the series must not depend on libc. */
std::vector<double>
series(std::size_t n, std::uint64_t seed, double scale)
{
    std::vector<double> xs;
    xs.reserve(n);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < n; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        double v = static_cast<double>(s >> 11) * 0x1p-53 * scale;
        if (i % 97 == 0)
            v = std::numeric_limits<double>::denorm_min();
        if (i % 131 == 0)
            v = 0.0;
        if (i % 211 == 5)
            v = 1e-310; // another denormal
        xs.push_back(v);
    }
    return xs;
}

/** The fixed inputs: zeros, denormals, signs, wide magnitudes. */
std::vector<std::vector<double>>
fixedSeries()
{
    const double dmin = std::numeric_limits<double>::denorm_min();
    std::vector<std::vector<double>> out = {
        {},
        {0.0},
        {dmin},
        {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0},
        {0.0, 0.0, dmin, 0.0, 1e-310, dmin, 0.0},
        {-3.5, 1e15, -0.0, 2.25, dmin, -1e-300, 7.0, 0.0, 1e-5},
        series(1000, 0xfeed, 1e9),
        series(613, 0x1234567, 1.0),
    };
    std::vector<double> negative = series(257, 0xbeef, 1e6);
    for (double &v : negative)
        v -= 5e5;
    out.push_back(negative);
    return out;
}

TEST(MomentsOracle, SummaryAddMatchesFourMomentSummary)
{
    for (const std::vector<double> &xs : fixedSeries()) {
        Summary4 want;
        Summary got;
        ASSERT_TRUE(summariesMatch(want, got));
        for (std::size_t i = 0; i < xs.size(); ++i) {
            want.add(xs[i]);
            got.add(xs[i]);
            ASSERT_TRUE(summariesMatch(want, got))
                << "after " << i + 1 << " of " << xs.size();
        }
    }
}

TEST(MomentsOracle, SummaryMergeMatchesFourMomentSummary)
{
    for (const std::vector<double> &xs : fixedSeries()) {
        const std::size_t n = xs.size();
        // Uneven splits: empty parts, single values, ragged thirds.
        const std::vector<std::vector<std::size_t>> splits = {
            {0, n},
            {0, 0, n},
            {0, std::min<std::size_t>(1, n), n},
            {0, n / 3, n / 3 + std::min<std::size_t>(1, n), n},
            {0, n / 7, n / 2, n - std::min<std::size_t>(2, n), n},
        };
        for (const std::vector<std::size_t> &cuts : splits) {
            Summary4 want;
            Summary got;
            // Fold the parts left to right, then right to left.
            for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
                Summary4 w;
                Summary g;
                for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
                    w.add(xs[i]);
                    g.add(xs[i]);
                }
                want.merge(w);
                got.merge(g);
                ASSERT_TRUE(summariesMatch(want, got))
                    << "part " << p << " of " << cuts.size() - 1
                    << ", n " << n;
            }
            Summary4 want_r;
            Summary got_r;
            for (std::size_t p = cuts.size() - 1; p > 0; --p) {
                Summary4 w;
                Summary g;
                for (std::size_t i = cuts[p - 1]; i < cuts[p]; ++i) {
                    w.add(xs[i]);
                    g.add(xs[i]);
                }
                w.merge(want_r);
                g.merge(got_r);
                want_r = w;
                got_r = g;
            }
            ASSERT_TRUE(summariesMatch(want_r, got_r)) << "n " << n;
        }
    }
}

TEST(MomentsOracle, LanesMatchFourMomentLanes)
{
    const std::vector<double> xs = series(1000, 0xfeed, 1e9);
    const std::size_t tails[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 1000};
    for (std::size_t n : tails) {
        for (std::uint32_t cursor = 0; cursor < simd::kSummaryLanes;
             ++cursor) {
            Lanes4 want;
            simd::SummaryLanes got;
            for (std::uint32_t c = 0; c < cursor; ++c) {
                want.add(3.5);
                got.add(3.5);
            }
            for (std::size_t i = 0; i < n; ++i) {
                want.add(xs[i]);
                got.add(xs[i]);
            }
            for (std::size_t l = 0; l < simd::kSummaryLanes; ++l) {
                ASSERT_TRUE(sameBits(want.n[l], got.n[l]) &&
                            sameBits(want.mean[l], got.mean[l]) &&
                            sameBits(want.m2[l], got.m2[l]))
                    << "n " << n << " cursor " << cursor << " lane "
                    << l;
            }
            ASSERT_EQ(want.next, got.next);
            const Summary4 w = want.combined();
            const Summary g = got.combined();
            ASSERT_EQ(w.count(), g.count());
            ASSERT_TRUE(sameBits(w.cv(), g.cv()))
                << "n " << n << " cursor " << cursor << ": " << g.cv()
                << " != " << w.cv();
            ASSERT_TRUE(sameBits(w.mean(), g.mean()));
            ASSERT_TRUE(sameBits(w.m2(), g.m2()));
        }
    }
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
