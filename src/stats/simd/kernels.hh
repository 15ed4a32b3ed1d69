/**
 * @file
 * Internal kernel plumbing shared by the per-ISA translation units.
 *
 * The inline helpers here ARE the bit-identity contract: every
 * per-element expression tree a vector kernel reproduces lives in
 * exactly one place, and the vector code mirrors it operation for
 * operation (no FMA contraction — the kernel sources never enable
 * -mfma — and no reassociation).  The AVX2 kernels call these
 * same helpers for lag tails and block folds, so a "vector" result
 * is always a mix of the one scalar definition and its element-wise
 * IEEE equivalents.
 */

#ifndef DLW_STATS_SIMD_KERNELS_HH
#define DLW_STATS_SIMD_KERNELS_HH

#include <algorithm>

#include "stats/simd/simd.hh"

namespace dlw
{
namespace stats
{
namespace simd
{
namespace detail
{

/**
 * End of lag k's t range in one KernelOps::acf_lags call over a
 * window of n values: min(t_end, n - k), 0 when k >= n.
 */
inline std::size_t
acfLagEnd(std::size_t n, std::size_t t_end, std::size_t k)
{
    return k < n ? std::min(t_end, n - k) : 0;
}

/**
 * Continue lag k's cross-product chain c over t in [t0, t1): the
 * reference tree of KernelOps::acf_lags, one serial ascending-t sum.
 */
inline double
acfLagRange(const double *d, std::size_t t0, std::size_t t1,
            std::size_t k, double c)
{
    for (std::size_t t = t0; t < t1; ++t)
        c += d[t] * d[t + k];
    return c;
}

/**
 * Add one R/S block to KernelOps::rescaled_range's total, in block
 * order: the reference tree every table ends each block with.
 */
inline void
rsFold(double range, double s, double &total, std::size_t &used)
{
    if (s > 0.0) {
        total += range / s;
        ++used;
    }
}

/** KernelOps::rescaled_range's result from its total. */
inline double
rsMean(double total, std::size_t used)
{
    return used ? total / static_cast<double>(used) : 0.0;
}

/** The scalar reference table (always built, ground truth). */
extern const KernelOps kScalarOps;

#if defined(DLW_HAVE_AVX2)
/** AVX2 table (built when the toolchain takes -mavx2 and the build
 *  did not pass -DDLW_DISABLE_AVX2=ON; dispatched only when the CPU
 *  reports AVX2). */
extern const KernelOps kAvx2Ops;
#endif

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // DLW_STATS_SIMD_KERNELS_HH
