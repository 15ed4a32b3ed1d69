#include "stats/acf.hh"

#include <algorithm>

#include "common/logging.hh"
#include "stats/simd/simd.hh"

namespace dlw
{
namespace stats
{

std::vector<double>
autocorrelation(const std::vector<double> &xs, std::size_t max_lag)
{
    dlw_assert(xs.size() >= 2, "autocorrelation needs >= 2 samples");
    max_lag = std::min(max_lag, xs.size() - 1);

    const double n = static_cast<double>(xs.size());
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= n;

    // The centered series, once: the same rounding as subtracting
    // the mean inside every product.
    std::vector<double> d(xs.size());
    double c0 = 0.0;
    for (std::size_t t = 0; t < xs.size(); ++t) {
        d[t] = xs[t] - mean;
        c0 += d[t] * d[t];
    }
    c0 /= n;

    std::vector<double> out(max_lag + 1, 0.0);
    if (c0 == 0.0)
        return out; // constant series: no correlation structure

    out[0] = 1.0;
    simd::ops().acf_lags(d.data(), d.size(), 1, max_lag,
                         out.data() + 1);
    for (std::size_t k = 1; k <= max_lag; ++k)
        out[k] = (out[k] / n) / c0;
    return out;
}

std::size_t
decorrelationLag(const std::vector<double> &acf, double threshold)
{
    for (std::size_t k = 1; k < acf.size(); ++k) {
        if (acf[k] < threshold)
            return k;
    }
    return acf.size();
}

Periodicity
dominantPeriod(const std::vector<double> &xs, std::size_t min_lag,
               std::size_t max_lag)
{
    dlw_assert(min_lag >= 2, "minimum period must be >= 2");
    dlw_assert(max_lag > min_lag, "period range inverted");
    dlw_assert(xs.size() > 2 * max_lag,
               "series too short for the requested period range");

    const std::vector<double> acf = autocorrelation(xs, max_lag);

    Periodicity best;
    for (std::size_t k = min_lag; k < max_lag; ++k) {
        // A local peak that beats everything found so far.
        if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
            acf[k] > best.strength) {
            best.period = k;
            best.strength = acf[k];
        }
    }
    return best;
}

} // namespace stats
} // namespace dlw
