#include "common/rng.hh"

#include <cmath>
#include <random>

namespace dlw
{

namespace
{

/** SplitMix64 finalizer: bijective avalanche over 64 bits. */
std::uint64_t
splitmix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

void
Mt19937_64::seed(result_type value)
{
    state_[0] = value;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const result_type prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    pos_ = kStateWords;
}

void
Mt19937_64::refill()
{
    constexpr std::size_t kShift = 156;
    constexpr result_type kUpper = ~result_type{0} << 31;
    constexpr result_type kLower = ~kUpper;
    constexpr result_type kTwist = 0xb5026f5aa96619e9ULL;
    // The twist constant is applied when y's low bit is set; the mask
    // 0 - (y & 1) selects it without a branch on that random bit.
    auto twist = [](result_type upper, result_type lower) {
        const result_type y = (upper & kUpper) | (lower & kLower);
        return (y >> 1) ^ ((0 - (y & 1)) & kTwist);
    };
    std::size_t k = 0;
    for (; k < kStateWords - kShift; ++k)
        state_[k] = state_[k + kShift] ^ twist(state_[k], state_[k + 1]);
    for (; k < kStateWords - 1; ++k) {
        state_[k] = state_[k + kShift - kStateWords] ^
                    twist(state_[k], state_[k + 1]);
    }
    state_[k] = state_[kShift - 1] ^ twist(state_[k], state_[0]);
    pos_ = 0;
}

void
Rng::reseed(std::uint64_t seed)
{
    engine_.seed(seed);
    seed_ = seed;
}

Rng
Rng::fork()
{
    // SplitMix-style scramble of a fresh draw keeps forked streams
    // decorrelated from both the parent and each other.
    return Rng(splitmix(engine_() + 0x9e3779b97f4a7c15ULL));
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Keyed on (seed, stream) only: a stateless counter-mode fork.
    // The golden-ratio stride separates consecutive streams before
    // the avalanche so neighbouring drive indices land far apart.
    return Rng(splitmix(seed_ + (stream + 1) * 0x9e3779b97f4a7c15ULL));
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    dlw_assert(lo <= hi, "uniformInt bounds inverted");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double
Rng::pareto(double shape, double scale)
{
    dlw_assert(shape > 0.0 && scale > 0.0, "pareto parameters invalid");
    double u = 1.0 - uniform(); // in (0, 1]
    return scale / std::pow(u, 1.0 / shape);
}

double
Rng::boundedPareto(double shape, double scale, double bound)
{
    dlw_assert(shape > 0.0 && scale > 0.0 && bound > scale,
               "boundedPareto parameters invalid");
    // Inverse-CDF of the truncated Pareto.
    double l_a = std::pow(scale, shape);
    double h_a = std::pow(bound, shape);
    double u = uniform();
    double x = -(u * h_a - u * l_a - h_a) / (h_a * l_a);
    return std::pow(x, -1.0 / shape);
}

std::int64_t
Rng::poisson(double mean)
{
    dlw_assert(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

std::int64_t
Rng::geometric(double p)
{
    dlw_assert(p > 0.0 && p <= 1.0, "geometric probability invalid");
    // std::geometric_distribution requires p < 1.  At p == 1 it would
    // return 0 after one canonical draw; consume that draw so the
    // stream stays where it was.
    if (p == 1.0) {
        engine_();
        return 0;
    }
    return std::geometric_distribution<std::int64_t>(p)(engine_);
}

std::int64_t
Rng::zipf(std::int64_t n, double s)
{
    return ZipfSampler(n, s)(*this);
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    dlw_assert(!weights.empty(), "discrete needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
        dlw_assert(w >= 0.0, "discrete weight must be non-negative");
        total += w;
    }
    dlw_assert(total > 0.0, "discrete weights sum to zero");
    double u = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (u < acc)
            return i;
    }
    return weights.size() - 1;
}

ZipfSampler::ZipfSampler(std::int64_t n, double s) : n_(n), s_(s)
{
    dlw_assert(n > 0, "zipf population must be positive");
    if (n > 1 && s > 0.0) {
        h_x1_ = bigH(1.5) - h(1.0);
        big_h_n_ = bigH(static_cast<double>(n) + 0.5);
    }
}

double
ZipfSampler::h(double x) const
{
    return std::pow(x, -s_);
}

double
ZipfSampler::bigH(double x) const
{
    if (s_ == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double
ZipfSampler::bigHinv(double y) const
{
    if (s_ == 1.0)
        return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::int64_t
ZipfSampler::operator()(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    if (s_ <= 0.0)
        return rng.uniformInt(0, n_ - 1);

    // H is an integrable upper envelope of the zipf pmf over ranks
    // 1..n.
    for (int attempt = 0; attempt < 10000; ++attempt) {
        double u = h_x1_ + rng.uniform() * (big_h_n_ - h_x1_);
        double x = bigHinv(u);
        std::int64_t k = static_cast<std::int64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        double kd = static_cast<double>(k);
        if (kd - x <= 0.5 || u >= bigH(kd + 0.5) - h(kd))
            return k - 1;
    }
    dlw_panic("zipf rejection sampling failed to converge");
}

} // namespace dlw
