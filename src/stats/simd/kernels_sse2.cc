/**
 * @file
 * SSE2 kernels (x86-64 baseline, 2 doubles / 2 ticks per vector).
 *
 * Every loop mirrors the scalar reference tree from kernels.hh with
 * element-wise IEEE operations (sub/mul/div/min/max/truncate are all
 * correctly rounded per lane, and nothing here emits FMA), so the
 * results are bit-identical to kScalarOps by construction.  SSE2
 * has no 64-bit integer compare, so tick comparisons ride on the
 * sign bit of a 64-bit subtraction (valid while ticks stay well
 * inside the int64 range, which nanosecond timestamps do), and the
 * int64 -> double conversion uses the exact split identity
 * x == (hi(x) * 2^32 - 2^52) + (2^52 + lo(x)) with one final
 * rounding — the same single rounding static_cast performs.
 */

#include "stats/simd/kernels.hh"

#if defined(__SSE2__)

#include <emmintrin.h>

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

/** Exact int64 -> double conversion, 2 lanes. */
inline __m128d
cvtI64F64(__m128i v)
{
    const __m128i magic_lo =
        _mm_set1_epi64x(0x4330000000000000LL); // 2^52
    const __m128i magic_hi =
        _mm_set1_epi64x(0x4530000080000000LL); // 2^84 + 2^63 bias
    const __m128d magic_all = _mm_castsi128_pd(
        _mm_set1_epi64x(0x4530000080100000LL)); // 2^84 + 2^63 + 2^52
    const __m128i low_mask = _mm_set1_epi64x(0x00000000FFFFFFFFLL);

    __m128i v_lo = _mm_or_si128(_mm_and_si128(v, low_mask), magic_lo);
    __m128i v_hi = _mm_xor_si128(_mm_srli_epi64(v, 32), magic_hi);
    __m128d hi_d = _mm_sub_pd(_mm_castsi128_pd(v_hi), magic_all);
    return _mm_add_pd(hi_d, _mm_castsi128_pd(v_lo));
}

/** Bit k set when 64-bit lane k of (a - b) is negative, i.e. a < b. */
inline int
ltMask64(__m128i a, __m128i b)
{
    return _mm_movemask_pd(_mm_castsi128_pd(_mm_sub_epi64(a, b)));
}

void
binLinearSse2(const double *x, std::size_t n, double lo, double hi,
              double inv_width, std::int32_t bins, std::int32_t *idx)
{
    const __m128d vlo = _mm_set1_pd(lo);
    const __m128d vhi = _mm_set1_pd(hi);
    const __m128d vw = _mm_set1_pd(inv_width);
    const __m128i vbm1 = _mm_set1_epi32(bins - 1);

    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d vx = _mm_loadu_pd(x + i);
        const int under = _mm_movemask_pd(_mm_cmplt_pd(vx, vlo));
        const int over = _mm_movemask_pd(_mm_cmpge_pd(vx, vhi));
        const __m128d q = _mm_mul_pd(_mm_sub_pd(vx, vlo), vw);
        __m128i bi = _mm_cvttpd_epi32(q);
        const __m128i too_big = _mm_cmpgt_epi32(bi, vbm1);
        bi = _mm_or_si128(_mm_and_si128(too_big, vbm1),
                          _mm_andnot_si128(too_big, bi));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(idx + i), bi);
        if (under | over) {
            for (int k = 0; k < 2; ++k) {
                if (under & (1 << k))
                    idx[i + k] = kBinUnderflow;
                else if (over & (1 << k))
                    idx[i + k] = kBinOverflow;
            }
        }
    }
    for (; i < n; ++i)
        idx[i] = binLinearOne(x[i], lo, hi, inv_width, bins);
}

/**
 * Log binning is dominated by the scalar libm log10 call (which every
 * ISA must keep for bit-reproducibility), and at 2 lanes the masked
 * per-lane conditional call costs more than it saves: the vectorized
 * variant measured ~0.6x of the plain scalar loop on this kernel's
 * microbenchmark.  The SSE2 table therefore composes the scalar
 * reference here; AVX2 amortizes the classify/divide over 4 lanes and
 * keeps its vector version.
 */
void
binLogSse2(const double *x, std::size_t n, double lo, double hi,
           double log_lo, double inv_log_width, std::int32_t bins,
           std::int32_t *idx)
{
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = binLogOne(x[i], lo, hi, log_lo, inv_log_width, bins);
}

/**
 * Shared gallop: find the length of the run starting at t[i] whose
 * ticks all fall inside [bin_lo, bin_hi).  Returns one past the run.
 */
inline std::size_t
runEnd(const Tick *t, std::size_t i, std::size_t n, Tick bin_lo,
       Tick bin_hi)
{
    const __m128i vlo = _mm_set1_epi64x(bin_lo);
    const __m128i vhi = _mm_set1_epi64x(bin_hi);
    std::size_t j = i + 1;
    for (; j + 2 <= n; j += 2) {
        const __m128i vt = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(t + j));
        const int below = ltMask64(vt, vlo);
        const int in_run = ~below & ltMask64(vt, vhi) & 0x3;
        if (in_run != 0x3)
            return j + static_cast<std::size_t>(
                           __builtin_ctz(~in_run & 0x3));
    }
    for (; j < n; ++j) {
        if (t[j] < bin_lo || t[j] >= bin_hi)
            break;
    }
    return j;
}

std::size_t
countSortedSse2(const Tick *t, std::size_t n, Tick start, Tick width,
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

/** Matching flags in [i, j), 16 bytes at a time. */
inline std::uint64_t
countEqRange(const std::uint8_t *flags, std::size_t i, std::size_t j,
             __m128i vwant, std::uint8_t want)
{
    std::uint64_t c = 0;
    for (; i + 16 <= j; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(flags + i));
        c += static_cast<unsigned>(__builtin_popcount(
            _mm_movemask_epi8(_mm_cmpeq_epi8(v, vwant))));
    }
    for (; i < j; ++i)
        c += flags[i] == want ? 1 : 0;
    return c;
}

std::size_t
countSortedIfSse2(const Tick *t, const std::uint8_t *flags,
                  std::uint8_t want, std::size_t n, Tick start,
                  Tick width, double *bins, std::size_t nbins)
{
    const __m128i vwant = _mm_set1_epi8(static_cast<char>(want));
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
gapsI64Sse2(const Tick *t, std::size_t n, Tick prev, double *out)
{
    if (n == 0)
        return;
    out[0] = static_cast<double>(t[0] - prev);
    std::size_t i = 1;
    for (; i + 2 <= n; i += 2) {
        const __m128i cur = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(t + i));
        const __m128i prv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(t + i - 1));
        _mm_storeu_pd(out + i, cvtI64F64(_mm_sub_epi64(cur, prv)));
    }
    for (; i < n; ++i)
        out[i] = static_cast<double>(t[i] - t[i - 1]);
}

void
welfordAddSse2(SummaryLanes &s, const double *x, std::size_t n)
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

    const __m128d one = _mm_set1_pd(1.0);
    const __m128d two = _mm_set1_pd(2.0);
    const __m128d three = _mm_set1_pd(3.0);
    const __m128d four = _mm_set1_pd(4.0);
    const __m128d six = _mm_set1_pd(6.0);

    for (; i + kSummaryLanes <= n; i += kSummaryLanes) {
        for (int h = 0; h < 2; ++h) { // lane pairs {0,1} and {2,3}
            const std::size_t o = static_cast<std::size_t>(2 * h);
            const __m128d vx = _mm_loadu_pd(x + i + o);
            const __m128d n1 = _mm_load_pd(s.n + o);
            const __m128d nn = _mm_add_pd(n1, one);
            __m128d mean = _mm_load_pd(s.mean + o);
            __m128d m2 = _mm_load_pd(s.m2 + o);
            __m128d m3 = _mm_load_pd(s.m3 + o);
            __m128d m4 = _mm_load_pd(s.m4 + o);

            const __m128d delta = _mm_sub_pd(vx, mean);
            const __m128d delta_n = _mm_div_pd(delta, nn);
            const __m128d delta_n2 = _mm_mul_pd(delta_n, delta_n);
            const __m128d term1 =
                _mm_mul_pd(_mm_mul_pd(delta, delta_n), n1);

            mean = _mm_add_pd(mean, delta_n);
            // K = nn*nn - 3*nn + 3, associated like the scalar tree.
            const __m128d k4 = _mm_add_pd(
                _mm_sub_pd(_mm_mul_pd(nn, nn), _mm_mul_pd(three, nn)),
                three);
            const __m128d a4 =
                _mm_mul_pd(_mm_mul_pd(term1, delta_n2), k4);
            const __m128d b4 =
                _mm_mul_pd(_mm_mul_pd(six, delta_n2), m2);
            const __m128d c4 =
                _mm_mul_pd(_mm_mul_pd(four, delta_n), m3);
            m4 = _mm_add_pd(m4, _mm_sub_pd(_mm_add_pd(a4, b4), c4));
            const __m128d a3 = _mm_mul_pd(_mm_mul_pd(term1, delta_n),
                                          _mm_sub_pd(nn, two));
            const __m128d c3 =
                _mm_mul_pd(_mm_mul_pd(three, delta_n), m2);
            m3 = _mm_add_pd(m3, _mm_sub_pd(a3, c3));
            m2 = _mm_add_pd(m2, term1);

            _mm_store_pd(s.n + o, nn);
            _mm_store_pd(s.mean + o, mean);
            _mm_store_pd(s.m2 + o, m2);
            _mm_store_pd(s.m3 + o, m3);
            _mm_store_pd(s.m4 + o, m4);
            _mm_store_pd(s.mn + o,
                         _mm_min_pd(vx, _mm_load_pd(s.mn + o)));
            _mm_store_pd(s.mx + o,
                         _mm_max_pd(vx, _mm_load_pd(s.mx + o)));
        }
    }

    for (; i < n; ++i) {
        welfordOne(s, lane, x[i]);
        lane = (lane + 1) % kSummaryLanes;
    }
    s.next = lane;
}

std::uint64_t
countEqU8Sse2(const std::uint8_t *v, std::size_t n, std::uint8_t want)
{
    return countEqRange(v, 0, n,
                        _mm_set1_epi8(static_cast<char>(want)), want);
}

std::uint64_t
sumU32Sse2(const std::uint32_t *v, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i q = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(q, zero));
        acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(q, zero));
    }
    alignas(16) std::uint64_t parts[2];
    _mm_store_si128(reinterpret_cast<__m128i *>(parts), acc);
    std::uint64_t s = parts[0] + parts[1];
    for (; i < n; ++i)
        s += v[i];
    return s;
}

/**
 * Lags [k0, k0 + 2 * kVecs) side by side, lane j of vector v on lag
 * k0 + 2v + j: over the t range every one of them covers, then each
 * lag's own tail in scalar code, in order.
 */
template <std::size_t kVecs>
void
acfBlockSse2(const double *d, std::size_t n, std::size_t k0,
             double *acc)
{
    constexpr std::size_t kLags = 2 * kVecs;
    const std::size_t common = n - (k0 + kLags - 1);
    const double *y = d + k0;
    __m128d a[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
        a[v] = _mm_setzero_pd();
    for (std::size_t t = 0; t < common; ++t) {
        const __m128d x = _mm_set1_pd(d[t]);
        // Fully unrolled, so the accumulators stay in registers
        // at -O2 too.
#pragma GCC unroll 4
        for (std::size_t v = 0; v < kVecs; ++v) {
            a[v] = _mm_add_pd(
                a[v], _mm_mul_pd(x, _mm_loadu_pd(y + t + 2 * v)));
        }
    }
    for (std::size_t v = 0; v < kVecs; ++v)
        _mm_storeu_pd(acc + 2 * v, a[v]);
    for (std::size_t j = 0; j < kLags; ++j)
        acc[j] = acfLagFrom(d, n, k0 + j, common, acc[j]);
}

void
acfLagsSse2(const double *d, std::size_t n, std::size_t k,
            std::size_t lags, double *acc)
{
    std::size_t j = 0;
    for (; j + 8 <= lags; j += 8)
        acfBlockSse2<4>(d, n, k + j, acc + j);
    for (; j + 2 <= lags; j += 2)
        acfBlockSse2<1>(d, n, k + j, acc + j);
    for (; j < lags; ++j)
        acc[j] = acfLagFrom(d, n, k + j, 0, 0.0);
}

} // anonymous namespace

const KernelOps kSse2Ops = {
    binLinearSse2,    binLogSse2,  countSortedSse2,
    countSortedIfSse2, gapsI64Sse2, welfordAddSse2,
    countEqU8Sse2,    sumU32Sse2,  acfLagsSse2,
};

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // defined(__SSE2__)
