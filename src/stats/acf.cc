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
    const std::size_t size = xs.size();
    max_lag = std::min(max_lag, size - 1);

    const double n = static_cast<double>(size);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= n;

    // Center one chunk at a time into a window that also holds the
    // max_lag bins after it, and carry c0 and every lag's chain from
    // chunk to chunk: the same values, summed in the same order, as
    // centering the whole series once.
    std::vector<double> d(std::min(size, kAcfChunkBins + max_lag));
    std::vector<double> out(max_lag + 1, 0.0);
    double c0 = 0.0;
    for (std::size_t t0 = 0; t0 < size; t0 += kAcfChunkBins) {
        const std::size_t t_end = std::min(kAcfChunkBins, size - t0);
        const std::size_t w = std::min(t_end + max_lag, size - t0);
        for (std::size_t t = 0; t < t_end; ++t) {
            d[t] = xs[t0 + t] - mean;
            c0 += d[t] * d[t];
        }
        for (std::size_t t = t_end; t < w; ++t)
            d[t] = xs[t0 + t] - mean;
        simd::ops().acf_lags(d.data(), w, t_end, 1, max_lag,
                             out.data() + 1);
    }
    c0 /= n;

    if (c0 == 0.0) {
        // Constant series: no correlation structure.
        std::fill(out.begin(), out.end(), 0.0);
        return out;
    }
    out[0] = 1.0;
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

} // namespace stats
} // namespace dlw
