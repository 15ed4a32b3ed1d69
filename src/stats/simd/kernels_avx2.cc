/**
 * @file
 * AVX2 kernels (4 doubles / 4 ticks per vector).
 *
 * Compiled with -mavx2 for this translation unit only (never -mfma,
 * so no contraction can perturb the scalar expression trees) and
 * dispatched only when the CPU reports AVX2.
 *
 * Every loop mirrors the scalar reference tree from kernels.hh with
 * element-wise IEEE operations (sub/mul/div/min/max/truncate are all
 * correctly rounded per lane, and nothing here emits FMA), so the
 * results are bit-identical to kScalarOps by construction.  Tick
 * comparisons ride on the sign bit of a 64-bit subtraction (valid
 * while ticks stay well inside the int64 range, which nanosecond
 * timestamps do), and the int64 -> double conversion uses the
 * exact split identity x == (hi(x) * 2^32 - 2^52) + (2^52 + lo(x))
 * with one final rounding — the same single rounding static_cast
 * performs.
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

/** Exact int64 -> double conversion, 4 lanes. */
inline __m256d
cvtI64F64(__m256i v)
{
    const __m256i magic_lo =
        _mm256_set1_epi64x(0x4330000000000000LL); // 2^52
    const __m256i magic_hi =
        _mm256_set1_epi64x(0x4530000080000000LL); // 2^84 + 2^63 bias
    const __m256d magic_all = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x4530000080100000LL)); // 2^84+2^63+2^52
    const __m256i low_mask = _mm256_set1_epi64x(0x00000000FFFFFFFFLL);

    __m256i v_lo =
        _mm256_or_si256(_mm256_and_si256(v, low_mask), magic_lo);
    __m256i v_hi =
        _mm256_xor_si256(_mm256_srli_epi64(v, 32), magic_hi);
    __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), magic_all);
    return _mm256_add_pd(hi_d, _mm256_castsi256_pd(v_lo));
}

/** Bit k set when 64-bit lane k of (a - b) is negative, i.e. a < b. */
inline int
ltMask64(__m256i a, __m256i b)
{
    return _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_sub_epi64(a, b)));
}

/**
 * Shared gallop: one past the end of the run starting at t[i] whose
 * ticks all fall inside [bin_lo, bin_hi).
 */
inline std::size_t
runEnd(const Tick *t, std::size_t i, std::size_t n, Tick bin_lo,
       Tick bin_hi)
{
    const __m256i vlo = _mm256_set1_epi64x(bin_lo);
    const __m256i vhi = _mm256_set1_epi64x(bin_hi);
    std::size_t j = i + 1;
    for (; j + 4 <= n; j += 4) {
        const __m256i vt = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + j));
        const int below = ltMask64(vt, vlo);
        const int in_run = ~below & ltMask64(vt, vhi) & 0xf;
        if (in_run != 0xf)
            return j + static_cast<std::size_t>(
                           __builtin_ctz(~in_run & 0xf));
    }
    for (; j < n; ++j) {
        if (t[j] < bin_lo || t[j] >= bin_hi)
            break;
    }
    return j;
}

std::size_t
countSortedAvx2(const Tick *t, std::size_t n, Tick start, Tick width,
                double *bins, std::size_t nbins)
{
    std::size_t i = 0;
    while (i < n) {
        if (t[i] < start)
            return i;
        const auto idx =
            static_cast<std::size_t>((t[i] - start) / width);
        if (idx >= nbins)
            return i;
        const Tick bin_lo = start + static_cast<Tick>(idx) * width;
        const std::size_t j = runEnd(t, i, n, bin_lo, bin_lo + width);
        bins[idx] += static_cast<double>(j - i);
        i = j;
    }
    return n;
}

/** Matching flags in [i, j), 32 bytes at a time. */
inline std::uint64_t
countEqRange(const std::uint8_t *flags, std::size_t i, std::size_t j,
             __m256i vwant, std::uint8_t want)
{
    std::uint64_t c = 0;
    for (; i + 32 <= j; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(flags + i));
        c += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_epi8(
                _mm256_cmpeq_epi8(v, vwant)))));
    }
    for (; i < j; ++i)
        c += flags[i] == want ? 1 : 0;
    return c;
}

std::size_t
countSortedIfAvx2(const Tick *t, const std::uint8_t *flags,
                  std::uint8_t want, std::size_t n, Tick start,
                  Tick width, double *bins, std::size_t nbins)
{
    const __m256i vwant = _mm256_set1_epi8(static_cast<char>(want));
    std::size_t i = 0;
    while (i < n) {
        if (t[i] < start)
            return i;
        const auto idx =
            static_cast<std::size_t>((t[i] - start) / width);
        if (idx >= nbins)
            return i;
        const Tick bin_lo = start + static_cast<Tick>(idx) * width;
        const std::size_t j = runEnd(t, i, n, bin_lo, bin_lo + width);
        const std::uint64_t c = countEqRange(flags, i, j, vwant, want);
        if (c)
            bins[idx] += static_cast<double>(c);
        i = j;
    }
    return n;
}

void
gapsI64Avx2(const Tick *t, std::size_t n, Tick prev, double *out)
{
    if (n == 0)
        return;
    out[0] = static_cast<double>(t[0] - prev);
    std::size_t i = 1;
    for (; i + 4 <= n; i += 4) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + i));
        const __m256i prv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + i - 1));
        _mm256_storeu_pd(out + i,
                         cvtI64F64(_mm256_sub_epi64(cur, prv)));
    }
    for (; i < n; ++i)
        out[i] = static_cast<double>(t[i] - t[i - 1]);
}

void
welfordAddAvx2(SummaryLanes &s, const double *x, std::size_t n)
{
    std::size_t i = 0;
    std::uint32_t lane = s.next;
    // Peel until the cursor sits on lane 0, so vector iterations map
    // elements i..i+3 onto lanes 0..3 exactly.
    while (lane != 0 && i < n) {
        welfordOne(s, lane, x[i]);
        lane = (lane + 1) % kSummaryLanes;
        ++i;
    }

    if (i + kSummaryLanes <= n) {
        const __m256d one = _mm256_set1_pd(1.0);

        __m256d vn = _mm256_load_pd(s.n);
        __m256d mean = _mm256_load_pd(s.mean);
        __m256d m2 = _mm256_load_pd(s.m2);

        // MeanM2::add, one lane per element, in its order.
        for (; i + kSummaryLanes <= n; i += kSummaryLanes) {
            const __m256d vx = _mm256_loadu_pd(x + i);
            const __m256d n1 = vn;
            vn = _mm256_add_pd(n1, one);
            const __m256d delta = _mm256_sub_pd(vx, mean);
            const __m256d delta_n = _mm256_div_pd(delta, vn);
            mean = _mm256_add_pd(mean, delta_n);
            m2 = _mm256_add_pd(
                m2, _mm256_mul_pd(_mm256_mul_pd(delta, delta_n), n1));
        }

        _mm256_store_pd(s.n, vn);
        _mm256_store_pd(s.mean, mean);
        _mm256_store_pd(s.m2, m2);
    }

    for (; i < n; ++i) {
        welfordOne(s, lane, x[i]);
        lane = (lane + 1) % kSummaryLanes;
    }
    s.next = lane;
}

std::uint64_t
countEqU8Avx2(const std::uint8_t *v, std::size_t n, std::uint8_t want)
{
    return countEqRange(v, 0, n,
                        _mm256_set1_epi8(static_cast<char>(want)),
                        want);
}

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

const KernelOps kAvx2Ops = {
    countSortedAvx2, countSortedIfAvx2, gapsI64Avx2,
    welfordAddAvx2,  countEqU8Avx2,     acfLagsAvx2,
    rescaledRangeAvx2,
};

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // defined(DLW_HAVE_AVX2)
