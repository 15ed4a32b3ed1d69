/**
 * @file
 * Unit and statistical tests for common/rng.
 *
 * Statistical checks use generous tolerances at large sample sizes
 * so they are deterministic for a fixed seed yet still meaningful.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <random>

#include "common/rng.hh"

namespace dlw
{
namespace
{

constexpr int kN = 200000;

double
sampleMean(Rng &rng, double (Rng::*draw)())
{
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += (rng.*draw)();
    return s / kN;
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(7);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    // Children differ from each other.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (c1.uniform() == c2.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkReproducible)
{
    Rng p1(7), p2(7);
    Rng c1 = p1.fork();
    Rng c2 = p2.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    double m = sampleMean(rng, &Rng::uniform);
    EXPECT_NEAR(m, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(12);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(13);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    int hits = 0;
    for (int i = 0; i < kN; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(14);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += rng.exponential(5.0);
    EXPECT_NEAR(s / kN, 5.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(15);
    double s = 0.0, s2 = 0.0;
    for (int i = 0; i < kN; ++i) {
        double v = rng.normal(2.0, 3.0);
        s += v;
        s2 += v * v;
    }
    const double mean = s / kN;
    const double var = s2 / kN - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ParetoTailAndSupport)
{
    Rng rng(16);
    double s = 0.0;
    for (int i = 0; i < kN; ++i) {
        double v = rng.pareto(3.0, 2.0);
        ASSERT_GE(v, 2.0);
        s += v;
    }
    // Mean of Pareto(3, 2) = 3*2/2 = 3.
    EXPECT_NEAR(s / kN, 3.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInRange)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.boundedPareto(1.2, 1.0, 100.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, WeibullMean)
{
    Rng rng(18);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += rng.weibull(2.0, 1.0);
    // Mean = Gamma(1.5) ~ 0.8862.
    EXPECT_NEAR(s / kN, 0.8862, 0.01);
}

TEST(Rng, PoissonMean)
{
    Rng rng(19);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += static_cast<double>(rng.poisson(4.2));
    EXPECT_NEAR(s / kN, 4.2, 0.05);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, GeometricCertainSuccessIsZeroAndDrawsOnce)
{
    Rng a(26), b(26);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.geometric(1.0), 0);
    for (int i = 0; i < 100; ++i)
        b.engine()();
    EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ZipfSkewOrdersRanks)
{
    Rng rng(20);
    std::map<std::int64_t, int> counts;
    for (int i = 0; i < kN; ++i)
        ++counts[rng.zipf(100, 1.0)];
    // Rank 0 must be the most popular; all ranks inside range.
    for (const auto &[k, c] : counts) {
        EXPECT_GE(k, 0);
        EXPECT_LT(k, 100);
    }
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
    // Zipf(1): P(0)/P(9) ~ 10.
    EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 3.0);
}

TEST(Rng, ZipfZeroSkewIsUniform)
{
    Rng rng(21);
    std::map<std::int64_t, int> counts;
    for (int i = 0; i < kN; ++i)
        ++counts[rng.zipf(10, 0.0)];
    for (int k = 0; k < 10; ++k)
        EXPECT_NEAR(static_cast<double>(counts[k]) / kN, 0.1, 0.01);
}

TEST(Rng, ZipfSingleton)
{
    Rng rng(22);
    EXPECT_EQ(rng.zipf(1, 2.0), 0);
}

/**
 * The per-draw rejection-inversion loop Rng::zipf ran before the
 * envelope moved into ZipfSampler: every constant recomputed on
 * every draw.  The oracle the sampler must match draw for draw.
 */
std::int64_t
zipfPerDraw(Rng &rng, std::int64_t n, double s)
{
    if (n == 1)
        return 0;
    if (s <= 0.0)
        return rng.uniformInt(0, n - 1);
    auto h = [s](double x) { return std::pow(x, -s); };
    auto bigH = [s](double x) {
        if (s == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
    };
    auto bigHinv = [s](double y) {
        if (s == 1.0)
            return std::exp(y);
        return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
    };
    const double nd = static_cast<double>(n);
    const double h_x1 = bigH(1.5) - h(1.0);
    const double big_h_n = bigH(nd + 0.5);
    for (;;) {
        double u = h_x1 + rng.uniform() * (big_h_n - h_x1);
        double x = bigHinv(u);
        std::int64_t k = static_cast<std::int64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double kd = static_cast<double>(k);
        if (kd - x <= 0.5 || u >= bigH(kd + 0.5) - h(kd))
            return k - 1;
    }
}

TEST(ZipfSampler, DrawsMatchRngZipfAndThePerDrawLoop)
{
    for (const double s : {0.0, 0.8, 0.9, 1.0, 1.5}) {
        for (const std::int64_t n : {1, 2, 512, 1024}) {
            const ZipfSampler sampler(n, s);
            Rng a(31), b(31), c(31);
            for (int i = 0; i < 20000; ++i) {
                const std::int64_t k = sampler(a);
                ASSERT_EQ(k, b.zipf(n, s))
                    << "s=" << s << " n=" << n << " draw " << i;
                ASSERT_EQ(k, zipfPerDraw(c, n, s))
                    << "s=" << s << " n=" << n << " draw " << i;
            }
            // Equal consumption: the streams are still in step.
            const double next = a.uniform();
            EXPECT_EQ(next, b.uniform());
            EXPECT_EQ(next, c.uniform());
        }
    }
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(23);
    std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < kN; ++i)
        ++counts[rng.discrete(w)];
    EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.1, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[1]) / kN, 0.3, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.6, 0.01);
}

TEST(Rng, DiscreteZeroWeightNeverChosen)
{
    Rng rng(24);
    std::vector<double> w = {0.0, 1.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.discrete(w), 1u);
}

/** 64-bit FNV-1a over a sequence of integers (8 LE bytes each). */
class Fnv64
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The bit pattern of a double, so digests see every bit of a draw. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// Recorded while Rng wrapped std::mt19937_64 and drew every variate
// through the std:: distributions, so they pin each method's exact
// output stream: any change to the engine, the canonical draw or a
// distribution's arithmetic shows up here.
TEST(RngGolden, DrawDigests)
{
    constexpr int kDraws = 100000;
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::vector<double> weights = {1.0, 0.0, 2.5, 4.0};
    using Draw = std::function<std::uint64_t(Rng &, int)>;
    auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };

    struct Case
    {
        const char *name;
        Draw draw;
        std::uint64_t digest[2];
    };
    const Case cases[] = {
        {"engine", [](Rng &r, int) { return r.engine()(); },
         {0xa779e29a82055ce6ULL, 0x49b9ca2e2fc7e8a1ULL}},
        {"fork", [](Rng &r, int) { return r.fork().engine()(); },
         {0x1d3da88bdbcb8dceULL, 0x76d1f954bfe01b61ULL}},
        {"fork(stream)",
         [](Rng &r, int i) {
             return r.fork(static_cast<std::uint64_t>(i)).engine()();
         },
         {0xbc082ed80da53647ULL, 0x1158fc4341e51576ULL}},
        {"uniform", [](Rng &r, int) { return bitsOf(r.uniform()); },
         {0x3147b4440c95b0b8ULL, 0xff6ffd5a6078163cULL}},
        {"uniform(lo, hi)",
         [](Rng &r, int) { return bitsOf(r.uniform(-3.5, 12.25)); },
         {0xad762db1e0c8c502ULL, 0x9965fcd8af7c633ULL}},
        {"uniformInt",
         [&](Rng &r, int i) {
             switch (i % 4) {
               case 0: return u64(r.uniformInt(0, 1));
               case 1: return u64(r.uniformInt(-7, 1000003));
               case 2: return u64(r.uniformInt(5, 5));
               default: return u64(r.uniformInt(kMin, kMax));
             }
         },
         {0x8347a481ad592c15ULL, 0x6fefb8cde612aaf4ULL}},
        {"bernoulli",
         [](Rng &r, int i) {
             // p <= 0 and p >= 1 draw nothing; the cycle checks that
             // they leave the stream where it was.
             static const double ps[] = {-0.25, 0.0, 0.3, 1.0,
                                         1.75,  0.9, 1e-9};
             return std::uint64_t{r.bernoulli(ps[i % 7])};
         },
         {0xf1f1eae2cf9b7e85ULL, 0x9d165db09a4060e4ULL}},
        {"exponential",
         [](Rng &r, int) { return bitsOf(r.exponential(2.5)); },
         {0x3d174ce0110d233eULL, 0x71f045cae670d91cULL}},
        {"normal", [](Rng &r, int) { return bitsOf(r.normal(1.0, 3.0)); },
         {0x47c5af90dcc74aedULL, 0xd88ac1eb0b956e37ULL}},
        {"lognormal",
         [](Rng &r, int) { return bitsOf(r.lognormal(0.5, 1.2)); },
         {0xd4f52055e47c7cd4ULL, 0x87b345871d8ac4a7ULL}},
        {"pareto", [](Rng &r, int) { return bitsOf(r.pareto(1.5, 2.0)); },
         {0x7f0846cc33320390ULL, 0xd9f41b03a27275f3ULL}},
        {"boundedPareto",
         [](Rng &r, int) {
             return bitsOf(r.boundedPareto(1.2, 1.0, 1000.0));
         },
         {0x2046dee4f80b16f9ULL, 0xdf68276a2b707f1ULL}},
        {"weibull",
         [](Rng &r, int) { return bitsOf(r.weibull(1.7, 4.0)); },
         {0x6f8799d211a7e791ULL, 0x7a6a66053b74f4b7ULL}},
        {"poisson",
         [&](Rng &r, int i) {
             // Below 12 and from 12 up take different algorithms.
             static const double means[] = {0.0,  0.7,  5.5, 11.99,
                                            12.0, 40.0, 1e4};
             return u64(r.poisson(means[i % 7]));
         },
         {0xb81f0022d43b09d7ULL, 0xdfd48ef0b81e1e55ULL}},
        {"geometric",
         [&](Rng &r, int i) {
             static const double ps[] = {0.2, 1.0, 0.999, 1e-3};
             return u64(r.geometric(ps[i % 4]));
         },
         {0xdd0d8066563740f4ULL, 0xd043fab99a089dfdULL}},
        {"zipf",
         [&](Rng &r, int i) {
             static const double ss[] = {0.0, 0.9, 1.0, 1.5};
             return u64(r.zipf(i % 5 == 0 ? 1 : 1000, ss[i % 4]));
         },
         {0x3f68e5f6aa889b0aULL, 0x341ce05d7c85ce4bULL}},
        {"discrete",
         [&](Rng &r, int) { return std::uint64_t{r.discrete(weights)}; },
         {0x6349c5547022cc24ULL, 0x4ec5fe9472cf0ec5ULL}},
    };
    const std::uint64_t seeds[2] = {0x5eedf00dULL, 2009};
    for (const Case &c : cases) {
        for (int s = 0; s < 2; ++s) {
            Rng rng(seeds[s]);
            Fnv64 d;
            for (int i = 0; i < kDraws; ++i)
                d.add(c.draw(rng, i));
            EXPECT_EQ(d.value(), c.digest[s])
                << c.name << " seed " << seeds[s] << std::hex
                << " got 0x" << d.value();
        }
    }
}

TEST(Mt19937_64, TenThousandthOutputOfTheDefaultSeed)
{
    // The value the C++ standard gives for mt19937_64 ([rand.predef]).
    Mt19937_64 e;
    for (int i = 1; i < 10000; ++i)
        e();
    EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(CanonicalDouble, RoundsOnceAndStaysBelowOne)
{
    EXPECT_EQ(bitsOf(canonicalDouble(0)), bitsOf(0.0));
    EXPECT_EQ(canonicalDouble(1), 0x1p-64);
    EXPECT_EQ(canonicalDouble(1ULL << 63), 0.5);
    // 2^63 + 1024 is half an ulp above 2^63: the tie goes to even.
    EXPECT_EQ(canonicalDouble(0x8000000000000400ULL), 0.5);
    EXPECT_EQ(canonicalDouble(0x8000000000000401ULL), 0.5 + 0x1p-53);
    EXPECT_EQ(canonicalDouble(~0ULL), std::nextafter(1.0, 0.0));
}

#ifdef __GLIBCXX__

TEST(Mt19937_64, MatchesTheStandardEngine)
{
    // Past three refills, so the twist's wrap-around words are used.
    constexpr int kWords =
        3 * static_cast<int>(Mt19937_64::kStateWords) + 7;
    const std::uint64_t seeds[] = {0, 1, 5489, 0x5eedf00d, 2009, ~0ULL};
    for (const std::uint64_t seed : seeds) {
        Mt19937_64 ours(seed);
        std::mt19937_64 theirs(seed);
        for (int i = 0; i < kWords; ++i)
            ASSERT_EQ(ours(), theirs())
                << "seed " << seed << " word " << i;
        // Re-seeding mid-block rewinds to a fresh state in both.
        ours.seed(seed ^ 0x9e3779b97f4a7c15ULL);
        theirs.seed(seed ^ 0x9e3779b97f4a7c15ULL);
        for (int i = 0; i < kWords; ++i)
            ASSERT_EQ(ours(), theirs())
                << "reseeded " << seed << " word " << i;

        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 400; ++i)
            ASSERT_EQ(rng.engine()(), oracle());
        rng.reseed(seed + 1);
        oracle.seed(seed + 1);
        for (int i = 0; i < kWords; ++i)
            ASSERT_EQ(rng.engine()(), oracle())
                << "Rng::reseed word " << i;
    }
}

/** A generator that returns one fixed 64-bit word forever. */
struct FixedWord
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return word; }
    result_type word;
};

TEST(CanonicalDouble, MatchesGenerateCanonical)
{
    const std::uint64_t words[] = {
        0,
        1,
        (1ULL << 53) - 1,
        1ULL << 53,
        (1ULL << 53) + 1,
        1ULL << 63,
        0x8000000000000400ULL, // a tie: rounds to even, 2^63
        0x80000000000003ffULL,
        0x8000000000000401ULL,
        ~0ULL - 1023, // 2^64 - 1024
        ~0ULL,        // rounds up to 2^64: mapped below 1
    };
    for (const std::uint64_t x : words) {
        FixedWord g{x};
        EXPECT_EQ(bitsOf(canonicalDouble(x)),
                  bitsOf(std::generate_canonical<double, 53>(g)))
            << std::hex << "0x" << x;
    }
}

// The inline draws against the std:: distributions they replaced,
// each over its own std::mt19937_64 (a fresh distribution per draw,
// as the old Rng constructed one per call).
TEST(Rng, InlineDrawsMatchTheStandardDistributions)
{
    constexpr int kDraws = 20000;
    Rng rng(77);
    std::mt19937_64 e(77);
    using Real = std::uniform_real_distribution<double>;
    for (int i = 0; i < kDraws; ++i) {
        ASSERT_EQ(bitsOf(rng.uniform()), bitsOf(Real(0.0, 1.0)(e)));
        ASSERT_EQ(bitsOf(rng.uniform(-2.0, 7.5)), bitsOf(Real(-2.0, 7.5)(e)));
        const double p = (i % 9) / 8.0 * 0.98 + 0.01;
        ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(e));
        ASSERT_EQ(
            bitsOf(rng.exponential(0.3)),
            bitsOf(std::exponential_distribution<double>(1.0 / 0.3)(e)));
        ASSERT_EQ(bitsOf(rng.normal(-1.0, 2.5)),
                  bitsOf(std::normal_distribution<double>(-1.0, 2.5)(e)));
        ASSERT_EQ(bitsOf(rng.lognormal(1.5, 0.8)),
                  bitsOf(std::lognormal_distribution<double>(1.5, 0.8)(e)));
        ASSERT_EQ(bitsOf(rng.weibull(0.7, 3.0)),
                  bitsOf(std::weibull_distribution<double>(0.7, 3.0)(e)))
            << "draw " << i;
    }
}

#endif // __GLIBCXX__

TEST(RngDeathTest, InvalidParameters)
{
    Rng rng(25);
    EXPECT_DEATH(rng.exponential(0.0), "positive");
    EXPECT_DEATH(rng.pareto(-1.0, 1.0), "invalid");
    EXPECT_DEATH(rng.uniform(2.0, 1.0), "inverted");
    EXPECT_DEATH(rng.discrete({}), "at least one");
    EXPECT_DEATH(rng.discrete({0.0, 0.0}), "sum to zero");
}

} // anonymous namespace
} // namespace dlw
