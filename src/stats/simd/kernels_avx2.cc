/**
 * @file
 * AVX2 kernels (4 doubles per vector).
 *
 * Compiled with -mavx2 for this translation unit only (never -mfma,
 * so no contraction can perturb the scalar expression trees) and
 * dispatched only when the CPU reports AVX2.
 *
 * Every loop mirrors the scalar reference tree from kernels.hh with
 * element-wise IEEE operations (add/sub/mul/div/sqrt/min/max are all
 * correctly rounded per lane, and nothing here emits FMA), so the
 * results are bit-identical to kScalarOps by construction.
 */

#include "stats/simd/kernels.hh"

#if defined(DLW_HAVE_AVX2)

#include <algorithm>

#include <immintrin.h>

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
 * Lags [k0, k0 + 4 * kVecs) side by side, lane j of vector v on lag
 * k0 + 4v + j, each lane continuing its lag's incoming chain: over
 * the t range every one of them covers, then each lag's own tail in
 * scalar code, in order.  Each vector is an independent add chain,
 * which is what lifts the loop off the add latency the one-lag loop
 * waits on; eight keep both vector adders busy through that latency.
 */
template <std::size_t kVecs>
void
acfBlockAvx2(const double *d, std::size_t n, std::size_t t_end,
             std::size_t k0, double *acc)
{
    constexpr std::size_t kLags = 4 * kVecs;
    const std::size_t common = acfLagEnd(n, t_end, k0 + kLags - 1);
    const double *y = d + k0;
    __m256d a[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
        a[v] = _mm256_loadu_pd(acc + 4 * v);
    for (std::size_t t = 0; t < common; ++t) {
        const __m256d x = _mm256_broadcast_sd(d + t);
        // Fully unrolled, so the accumulators stay in registers
        // at -O2 too.
#pragma GCC unroll 8
        for (std::size_t v = 0; v < kVecs; ++v) {
            a[v] = _mm256_add_pd(
                a[v],
                _mm256_mul_pd(x, _mm256_loadu_pd(y + t + 4 * v)));
        }
    }
    for (std::size_t v = 0; v < kVecs; ++v)
        _mm256_storeu_pd(acc + 4 * v, a[v]);
    for (std::size_t j = 0; j < kLags; ++j)
        acc[j] = acfLagRange(d, common, acfLagEnd(n, t_end, k0 + j),
                             k0 + j, acc[j]);
}

void
acfLagsAvx2(const double *d, std::size_t n, std::size_t t_end,
            std::size_t k, std::size_t lags, double *acc)
{
    std::size_t j = 0;
    for (; j + 32 <= lags; j += 32)
        acfBlockAvx2<8>(d, n, t_end, k + j, acc + j);
    for (; j + 16 <= lags; j += 16)
        acfBlockAvx2<4>(d, n, t_end, k + j, acc + j);
    for (; j + 4 <= lags; j += 4)
        acfBlockAvx2<1>(d, n, t_end, k + j, acc + j);
    for (; j < lags; ++j)
        acc[j] = acfLagRange(d, 0, acfLagEnd(n, t_end, k + j), k + j,
                             acc[j]);
}

/**
 * Elements j .. j + 3 of four blocks, transposed: lane l of out[t]
 * is p[l][j + t].
 */
inline void
transpose4(const double *const *p, std::size_t j, __m256d *out)
{
    const __m256d r0 = _mm256_loadu_pd(p[0] + j);
    const __m256d r1 = _mm256_loadu_pd(p[1] + j);
    const __m256d r2 = _mm256_loadu_pd(p[2] + j);
    const __m256d r3 = _mm256_loadu_pd(p[3] + j);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/**
 * Walk element by element through four blocks of n, calling step(x)
 * with x holding element j of each block, lane l from p[l].
 */
template <typename Step>
inline void
walk4(const double *const *p, std::size_t n, Step step)
{
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        __m256d x[4];
        transpose4(p, j, x);
        for (std::size_t t = 0; t < 4; ++t)
            step(x[t]);
    }
    for (; j < n; ++j)
        step(_mm256_set_pd(p[3][j], p[2][j], p[1][j], p[0][j]));
}

/**
 * R/S of `lanes` (<= 4) consecutive blocks from b, one block per
 * lane; spare lanes rerun block 0 and are never folded.  Lane by
 * lane these are rsLanes' operations: sum, mean, then the walk with
 * min/max in the (a < b ? a : b) form std::min and std::max take.
 * (Eight lanes in two vectors measured slower: fewer blocks fill
 * them at the large block sizes.)
 */
void
rsGroupAvx2(const double *b, std::size_t n, std::size_t lanes,
            double &total, std::size_t &used)
{
    const double *p[4];
    for (std::size_t l = 0; l < 4; ++l)
        p[l] = b + (l < lanes ? l : 0) * n;

    __m256d mean = _mm256_setzero_pd();
    walk4(p, n, [&mean](__m256d x) { mean = _mm256_add_pd(mean, x); });
    const __m256d vn = _mm256_set1_pd(static_cast<double>(n));
    mean = _mm256_div_pd(mean, vn);

    __m256d cum = _mm256_setzero_pd();
    __m256d lo = cum, hi = cum, ss = cum;
    walk4(p, n, [&](__m256d x) {
        const __m256d d = _mm256_sub_pd(x, mean);
        cum = _mm256_add_pd(cum, d);
        lo = _mm256_min_pd(cum, lo);
        hi = _mm256_max_pd(cum, hi);
        ss = _mm256_add_pd(ss, _mm256_mul_pd(d, d));
    });

    alignas(32) double range[4], s[4];
    _mm256_store_pd(range, _mm256_sub_pd(hi, lo));
    _mm256_store_pd(s, _mm256_sqrt_pd(_mm256_div_pd(ss, vn)));
    for (std::size_t l = 0; l < lanes; ++l)
        rsFold(range[l], s[l], total, used);
}

double
rescaledRangeAvx2(const double *x, std::size_t n, std::size_t blocks)
{
    double total = 0.0;
    std::size_t used = 0;
    for (std::size_t b = 0; b < blocks; b += 4)
        rsGroupAvx2(x + b * n, n, std::min<std::size_t>(4, blocks - b),
                    total, used);
    return rsMean(total, used);
}

} // anonymous namespace

const KernelOps kAvx2Ops = {acfLagsAvx2, rescaledRangeAvx2};

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // defined(DLW_HAVE_AVX2)
