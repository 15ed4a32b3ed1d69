/**
 * @file
 * Tests for stats/windowfold: every chain must equal, bit for bit, a
 * stats::Summary fed that width's whole windows one by one.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "stats/summary.hh"
#include "stats/windowfold.hh"

namespace dlw
{
namespace stats
{
namespace
{

/** Non-integer values with -0.0 entries and subnormals. */
std::vector<double>
oddSeries(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.uniformInt(0, 7)) {
          case 0:
            v[i] = -0.0;
            break;
          case 1:
            v[i] = std::numeric_limits<double>::denorm_min() *
                   static_cast<double>(rng.uniformInt(0, 4));
            break;
          default:
            v[i] = rng.uniform(-1.0, 9.0);
            break;
        }
    }
    return v;
}

/** The per-width loop a chain replaces, folded through a Summary. */
Summary
windowSummary(const std::vector<double> &v, std::size_t w, bool mean)
{
    Summary s;
    const std::size_t windows = v.size() / w;
    for (std::size_t b = 0; b < windows; ++b) {
        double acc = 0.0;
        for (std::size_t j = 0; j < w; ++j)
            acc += v[b * w + j];
        s.add(mean ? acc / static_cast<double>(w) : acc);
    }
    return s;
}

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

void
expectSameMoments(const Summary &ref, const MeanM2 &got,
                  const std::string &what)
{
    EXPECT_EQ(static_cast<double>(ref.count()), got.n) << what;
    EXPECT_EQ(bits(ref.mean()), bits(got.mean)) << what;
    EXPECT_EQ(bits(ref.sampleVariance()), bits(got.sampleVariance()))
        << what;
}

struct Asked
{
    std::size_t w;
    bool mean;
    std::size_t chain;
};

/** Ask for each (width, kind), run, and check every chain. */
void
checkWidths(const std::vector<double> &v,
            const std::vector<std::size_t> &widths, bool with_unit)
{
    WindowFold fold;
    std::vector<Asked> asked;
    if (with_unit)
        asked.push_back({1, false, fold.sums(1)});
    for (std::size_t w : widths) {
        asked.push_back({w, false, fold.sums(w)});
        asked.push_back({w, true, fold.means(w)});
    }
    fold.run(v);
    for (const Asked &a : asked) {
        expectSameMoments(windowSummary(v, a.w, a.mean), fold[a.chain],
                          "n=" + std::to_string(v.size()) +
                              " w=" + std::to_string(a.w) +
                              (a.mean ? " mean" : " sum"));
    }
}

TEST(WindowFold, MatchesPerWidthSummaries)
{
    // Lengths around the walk's 256-bin tiles; widths that divide
    // them, leave a partial tail, exceed them, or have no window.
    const std::vector<std::size_t> widths = {2,   3,   4,   7,   16, 125,
                                             126, 200, 255, 256, 257, 333,
                                             999, 1000, 1001};
    for (std::size_t n : {0, 1, 255, 256, 257, 1000, 4099}) {
        const std::vector<double> v = oddSeries(n, n + 1);
        checkWidths(v, widths, true);
        checkWidths(v, widths, false);
    }
}

TEST(WindowFold, MoreChainsThanOneWalkCarries)
{
    // 2 x 150 windowed chains take several walks; only the first
    // carries the width-1 chain.
    std::vector<std::size_t> widths;
    for (std::size_t w = 2; w < 152; ++w)
        widths.push_back(w);
    const std::vector<double> v = oddSeries(3001, 7);
    checkWidths(v, widths, true);
    checkWidths(v, widths, false);
}

TEST(WindowFold, WidthOneIsOneChain)
{
    WindowFold fold;
    const std::size_t s1 = fold.sums(1);
    EXPECT_EQ(fold.means(1), s1);
    const std::size_t s5 = fold.sums(5);
    EXPECT_EQ(fold.sums(5), s5);
    EXPECT_NE(fold.means(5), s5);
    // The bins folded as they are equal a Summary of the bins.
    const std::vector<double> v = oddSeries(777, 3);
    fold.run(v);
    Summary ref;
    for (double x : v)
        ref.add(x);
    expectSameMoments(ref, fold[s1], "width 1");
    expectSameMoments(windowSummary(v, 1, true), fold[s1],
                      "width 1 as means");
}

TEST(WindowFold, MeanM2MatchesSummary)
{
    const std::vector<double> v = oddSeries(5000, 11);
    Summary ref;
    MeanM2 got;
    for (std::size_t i = 0; i < v.size(); ++i) {
        ref.add(v[i]);
        got.add(v[i]);
        if (i % 97 == 0)
            expectSameMoments(ref, got, "after " + std::to_string(i));
    }
    expectSameMoments(ref, got, "all");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
