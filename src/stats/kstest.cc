#include "stats/kstest.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

double
kolmogorovSurvival(double t)
{
    if (t <= 0.0)
        return 1.0;
    // Q(t) = 2 * sum_{k=1..inf} (-1)^(k-1) exp(-2 k^2 t^2)
    double sum = 0.0;
    double sign = 1.0;
    for (int k = 1; k <= 100; ++k) {
        const double term = std::exp(-2.0 * k * k * t * t);
        sum += sign * term;
        sign = -sign;
        if (term < 1e-12)
            break;
    }
    return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult
ksOneSample(const std::vector<double> &xs,
            const std::function<double(double)> &cdf)
{
    dlw_assert(!xs.empty(), "K-S test needs data");
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());

    const double n = static_cast<double>(sorted.size());
    double d = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double f = cdf(sorted[i]);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        d = std::max(d, std::max(std::fabs(f - lo), std::fabs(hi - f)));
    }

    KsResult r;
    r.statistic = d;
    r.effective_n = n;
    const double t = (std::sqrt(n) + 0.12 + 0.11 / std::sqrt(n)) * d;
    r.p_value = kolmogorovSurvival(t);
    return r;
}

} // namespace stats
} // namespace dlw
