/**
 * @file
 * Scalar reference kernels: the ground truth every vector table must
 * reproduce bit for bit.  These loops are intentionally written as
 * the obvious per-element code — they define the semantics, and they
 * are what runs on CPUs without AVX2, in -DDLW_DISABLE_AVX2=ON builds
 * and on non-x86 targets.
 */

#include "stats/simd/kernels.hh"

#include <algorithm>
#include <cmath>

namespace dlw
{
namespace stats
{
namespace simd
{
namespace detail
{
namespace
{

/**
 * Four lags side by side: each is still its own ascending-t chain,
 * so walking them in lockstep changes no bit, and four independent
 * add chains lift the loop off the add latency one chain waits on.
 * The block runs over the t range its last (longest) lag covers,
 * then each lag finishes its own tail in order.
 */
void
acfLagsScalar(const double *d, std::size_t n, std::size_t t_end,
              std::size_t k, std::size_t lags, double *acc)
{
    std::size_t j = 0;
    for (; j + 4 <= lags; j += 4) {
        const std::size_t k0 = k + j;
        const std::size_t common = acfLagEnd(n, t_end, k0 + 3);
        const double *y = d + k0;
        double a0 = acc[j], a1 = acc[j + 1], a2 = acc[j + 2],
               a3 = acc[j + 3];
        for (std::size_t t = 0; t < common; ++t) {
            const double x = d[t];
            a0 += x * y[t];
            a1 += x * y[t + 1];
            a2 += x * y[t + 2];
            a3 += x * y[t + 3];
        }
        acc[j] = a0;
        acc[j + 1] = a1;
        acc[j + 2] = a2;
        acc[j + 3] = a3;
        for (std::size_t i = 0; i < 4; ++i)
            acc[j + i] = acfLagRange(d, common,
                                     acfLagEnd(n, t_end, k0 + i),
                                     k0 + i, acc[j + i]);
    }
    for (; j < lags; ++j)
        acc[j] = acfLagRange(d, 0, acfLagEnd(n, t_end, k + j), k + j,
                             acc[j]);
}

/**
 * L consecutive R/S blocks from b, side by side: each lane is one
 * block's own serial chains, so walking them in lockstep changes no
 * bit and keeps L independent add chains in flight.  The lane loops
 * are unrolled so the lanes' state stays in registers; two lanes fit
 * them, four spill.
 */
template <std::size_t L>
void
rsLanes(const double *b, std::size_t n, double &total,
        std::size_t &used)
{
    const double *x[L];
    double mean[L];
    for (std::size_t l = 0; l < L; ++l) {
        x[l] = b + l * n;
        mean[l] = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l)
            mean[l] += x[l][j];
    }
    double cum[L], lo[L], hi[L], ss[L];
    for (std::size_t l = 0; l < L; ++l) {
        mean[l] /= static_cast<double>(n);
        cum[l] = lo[l] = hi[l] = ss[l] = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
#pragma GCC unroll 2
        for (std::size_t l = 0; l < L; ++l) {
            const double d = x[l][j] - mean[l];
            cum[l] += d;
            lo[l] = std::min(lo[l], cum[l]);
            hi[l] = std::max(hi[l], cum[l]);
            ss[l] += d * d;
        }
    }
    for (std::size_t l = 0; l < L; ++l)
        rsFold(hi[l] - lo[l], std::sqrt(ss[l] / static_cast<double>(n)),
               total, used);
}

double
rescaledRangeScalar(const double *x, std::size_t n, std::size_t blocks)
{
    double total = 0.0;
    std::size_t used = 0;
    std::size_t b = 0;
    for (; b + 2 <= blocks; b += 2)
        rsLanes<2>(x + b * n, n, total, used);
    for (; b < blocks; ++b)
        rsLanes<1>(x + b * n, n, total, used);
    return rsMean(total, used);
}

} // anonymous namespace

const KernelOps kScalarOps = {acfLagsScalar, rescaledRangeScalar};

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw
