/**
 * @file
 * Deterministic random-number generation for workload synthesis.
 *
 * Every stochastic component in dlw draws from an Rng handed to it by
 * its owner, so a whole experiment is reproducible from a single seed.
 *
 * The engine is dlw's own MT19937-64 (Mt19937_64): the same seeding
 * and the same outputs as std::mt19937_64, with a refill that picks
 * the twist constant by mask instead of by branch.  The hot
 * distributions (uniform, bernoulli, exponential, normal, lognormal,
 * weibull) are inline here, written as the exact expressions
 * libstdc++'s distributions evaluate over one canonical draw
 * (canonicalDouble), so a stream depends on dlw's code and libm, not
 * on a standard library's distribution internals.  The rest of the
 * menu, including the heavy-tailed variates the standard library does
 * not provide directly, lives in rng.cc.
 */

#ifndef DLW_COMMON_RNG_HH
#define DLW_COMMON_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace dlw
{

/**
 * 64-bit Mersenne Twister with the standard's MT19937-64 parameters.
 *
 * Seeds and outputs match std::mt19937_64 word for word.  operator()
 * is inline; refill() regenerates all 312 words at once, out of line,
 * without a data-dependent branch.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr std::size_t kStateWords = 312;
    static constexpr result_type kDefaultSeed = 5489;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type value = kDefaultSeed) { seed(value); }

    /** Re-seed exactly as std::mt19937_64::seed(value) does. */
    void seed(result_type value);

    /** The next tempered output word. */
    result_type
    operator()()
    {
        if (pos_ >= kStateWords)
            refill();
        result_type z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    /** Twist the whole state and rewind to its first word. */
    void refill();

    result_type state_[kStateWords] = {};
    std::size_t pos_ = kStateWords;
};

/**
 * libstdc++'s generate_canonical<double, 53> over one 64-bit draw:
 * the draw rounded once to double, scaled by 2^-64, and a result that
 * rounds up to 1 mapped to the largest double below 1.
 *
 * The draw is split into two 32-bit halves, each exact as a double,
 * so their sum rounds exactly as the direct conversion would; this
 * avoids the sign-bit branch of a uint64 -> double conversion.
 */
inline double
canonicalDouble(std::uint64_t x)
{
    const double d = static_cast<double>(x >> 32) * 0x1p32 +
                     static_cast<double>(x & 0xffffffffULL);
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

/**
 * Seedable random source with the distribution menu used across dlw.
 */
class Rng
{
  public:
    /** Construct from an explicit seed (default gives a fixed seed). */
    explicit Rng(std::uint64_t seed = 0x5eedf00dULL)
        : engine_(seed), seed_(seed)
    {
    }

    /** Re-seed the underlying engine. */
    void reseed(std::uint64_t seed);

    /**
     * Derive an independent child generator.
     *
     * Each call produces a different stream; used to give every drive
     * in a family its own reproducible source.
     *
     * @return A freshly seeded Rng decorrelated from this one.
     */
    Rng fork();

    /**
     * Derive the child generator for a named stream.
     *
     * Unlike fork(), this is keyed purely on (seed, stream): it does
     * not consume parent state, so the same (seed, stream) pair
     * always yields the same child no matter how much the parent has
     * been used or in what order streams are forked.  This is the
     * seeding contract the fleet engine relies on — drive k's stream
     * is fork(k) of the master seed, so shards may be generated on
     * any thread in any order and still reproduce bit-identically.
     *
     * @param stream Stream index (e.g. a drive index).
     * @return The child Rng for that stream.
     */
    Rng fork(std::uint64_t stream) const;

    /** Uniform double in [0, 1). */
    double uniform() { return canonicalDouble(engine_()); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        dlw_assert(lo <= hi, "uniform bounds inverted");
        return uniform() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Exponential variate with the given mean (mean > 0). */
    double
    exponential(double mean)
    {
        dlw_assert(mean > 0.0, "exponential mean must be positive");
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /**
     * Normal variate by the polar method.  Each call draws a fresh
     * pair and returns its second member; the first is dropped, as a
     * freshly constructed std::normal_distribution would.
     */
    double
    normal(double mean, double stddev)
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
    }

    /** Lognormal variate with the given log-space parameters. */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(sigma * normal(0.0, 1.0) + mu);
    }

    /**
     * Pareto (type I) variate.
     *
     * @param shape Tail index alpha (> 0); alpha <= 1 has no mean.
     * @param scale Minimum value x_m (> 0).
     * @return A sample from P(X > x) = (scale / x)^shape, x >= scale.
     */
    double pareto(double shape, double scale);

    /**
     * Bounded Pareto variate on [scale, bound].
     *
     * Heavy-tailed but with finite support, handy for request sizes
     * and idle periods that are physically capped.
     */
    double boundedPareto(double shape, double scale, double bound);

    /** Weibull variate with the given shape and scale. */
    double
    weibull(double shape, double scale)
    {
        dlw_assert(shape > 0.0 && scale > 0.0,
                   "weibull parameters invalid");
        return scale * std::pow(-std::log(1.0 - uniform()), 1.0 / shape);
    }

    /** Poisson count with the given mean. */
    std::int64_t poisson(double mean);

    /** Geometric count (number of failures before first success). */
    std::int64_t geometric(double p);

    /**
     * Zipf-distributed integer in [0, n): one draw of ZipfSampler(n, s).
     *
     * @param n Population size.
     * @param s Skew exponent (0 = uniform; ~1 = classic Zipf).
     * @return A rank in [0, n) with P(k) proportional to 1/(k+1)^s.
     */
    std::int64_t zipf(std::int64_t n, double s);

    /**
     * Sample an index according to the given non-negative weights.
     *
     * @param weights Relative weights; need not be normalized.
     * @return Index in [0, weights.size()).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Access the raw engine for use with std:: distributions. */
    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
    /** Seed the engine was last (re)seeded with; keys fork(stream). */
    std::uint64_t seed_;
};

/**
 * Zipf-distributed ranks in [0, n) by rejection-inversion sampling
 * (Hormann & Derflinger); exact for any exponent >= 0.
 *
 * The envelope's constants depend only on (n, s), so they are
 * computed once, at construction, rather than on every draw.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Population size (> 0).
     * @param s Skew exponent (0 = uniform; ~1 = classic Zipf).
     */
    ZipfSampler(std::int64_t n, double s);

    /** A rank in [0, n) with P(k) proportional to 1/(k+1)^s. */
    std::int64_t operator()(Rng &rng) const;

  private:
    /** The zipf pmf's kernel x^-s. */
    double h(double x) const;
    /** Integral of h: the envelope, inverted by bigHinv. */
    double bigH(double x) const;
    double bigHinv(double y) const;

    std::int64_t n_;
    double s_;
    double h_x1_ = 0.0;    ///< bigH(1.5) - h(1.0)
    double big_h_n_ = 0.0; ///< bigH(n + 0.5)
};

} // namespace dlw

#endif // DLW_COMMON_RNG_HH
