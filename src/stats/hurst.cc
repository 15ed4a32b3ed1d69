#include "stats/hurst.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "stats/simd/simd.hh"

namespace dlw
{
namespace stats
{

namespace
{

/**
 * Geometrically spaced integer factors in [lo, hi], deduplicated.
 */
std::vector<std::size_t>
geometricFactors(std::size_t lo, std::size_t hi, std::size_t points)
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

} // anonymous namespace

VarianceTimePlan::VarianceTimePlan(WindowFold &fold, std::size_t n,
                                   std::size_t min_factor,
                                   std::size_t max_factor,
                                   std::size_t points)
{
    dlw_assert(n >= 32, "aggregated-variance Hurst needs >= 32 samples");
    if (max_factor == 0)
        max_factor = n / 8;
    max_factor = std::min(max_factor, n / 8);
    if (max_factor < min_factor)
        max_factor = min_factor;
    factors_ = geometricFactors(min_factor, max_factor, points);
    for (std::size_t m : factors_)
        chains_.push_back(fold.means(m));
}

HurstEstimate
VarianceTimePlan::estimate(const WindowFold &fold) const
{
    HurstEstimate est;
    for (std::size_t i = 0; i < factors_.size(); ++i) {
        const double var = fold[chains_[i]].sampleVariance();
        if (var <= 0.0)
            continue;
        est.log_scale.push_back(
            std::log10(static_cast<double>(factors_[i])));
        est.log_value.push_back(std::log10(var));
    }
    if (est.log_scale.size() < 2)
        return est; // degenerate: report H = 0.5, r2 = 0

    LineFit fit = leastSquares(est.log_scale, est.log_value);
    // slope beta = 2H - 2  =>  H = 1 + beta/2
    est.h = std::clamp(1.0 + fit.slope / 2.0, 0.0, 1.0);
    est.r2 = fit.r2;
    est.points = est.log_scale.size();
    return est;
}

HurstEstimate
hurstAggregatedVariance(const std::vector<double> &xs,
                        std::size_t min_factor, std::size_t max_factor,
                        std::size_t points)
{
    WindowFold fold;
    const VarianceTimePlan plan(fold, xs.size(), min_factor, max_factor,
                                points);
    fold.run(xs);
    return plan.estimate(fold);
}

HurstEstimate
hurstRescaledRange(const std::vector<double> &xs, std::size_t points)
{
    dlw_assert(xs.size() >= 64, "R/S Hurst needs >= 64 samples");

    HurstEstimate est;
    const std::size_t lo = 8;
    const std::size_t hi = xs.size() / 4;
    for (std::size_t n : geometricFactors(lo, hi, points)) {
        const double rs = simd::ops().rescaled_range(xs.data(), n,
                                                     xs.size() / n);
        if (rs <= 0.0)
            continue;
        est.log_scale.push_back(std::log10(static_cast<double>(n)));
        est.log_value.push_back(std::log10(rs));
    }
    if (est.log_scale.size() < 2)
        return est;

    LineFit fit = leastSquares(est.log_scale, est.log_value);
    est.h = std::clamp(fit.slope, 0.0, 1.0);
    est.r2 = fit.r2;
    est.points = est.log_scale.size();
    return est;
}

} // namespace stats
} // namespace dlw
