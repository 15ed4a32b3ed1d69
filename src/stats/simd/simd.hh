/**
 * @file
 * Batch-at-a-time characterization kernels with runtime SIMD
 * dispatch.
 *
 * The hot accumulators — binned arrival counting, the
 * interarrival-gap moment fold, read counting — all reduce
 * to tight loops over one dense column of the SoA
 * trace::RequestBatch; the autocorrelation's lagged sums and the
 * R/S blocks are two more such loops over a binned series.  This layer lifts those loops into two kernel
 * tables, the scalar reference and AVX2; the AVX2 table runs when
 * CPUID reports AVX2, the scalar one everywhere else.
 *
 * The contract that makes dispatch safe everywhere byte-identity is
 * promised (thread counts, batch sizes, daemon checkpoints): every
 * kernel is bit-identical to the scalar reference on the same input.
 * That is achieved by construction, not by tolerance:
 *
 *  - bin-index math and conversions use the exact scalar
 *    expression tree (subtract, IEEE divide, truncate), which SIMD
 *    lanes reproduce bit-for-bit because those operations are
 *    correctly rounded element-wise;
 *  - counts are integers carried in doubles; adding a run length k
 *    equals k unit adds exactly while bins stay below 2^53;
 *  - the one genuinely order-sensitive fold, the Welford moment
 *    update, is defined as a fixed 4-lane round-robin tree
 *    (SummaryLanes) keyed by the global element index, so the scalar
 *    and vector paths walk the identical tree and results cannot
 *    depend on how the stream was chunked into batches.
 *
 * Kernels never touch the metrics registry (obs sits above stats in
 * the link order); core wires in the core.kernel.* metrics.
 */

#ifndef DLW_STATS_SIMD_SIMD_HH
#define DLW_STATS_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace stats
{

class Summary;

namespace simd
{

/** Instruction sets a kernel table can be specialized for. */
enum class Isa : int
{
    kScalar = 0, ///< portable reference path (ground truth)
    kAvx2 = 2,   ///< 256-bit vectors (4 doubles / 4 ticks)
};

/** Number of independent Welford lanes in a SummaryLanes fold. */
constexpr std::size_t kSummaryLanes = 4;

/**
 * Streaming moments folded over a fixed 4-lane round-robin tree.
 *
 * Element j of the observation stream (counted from the first add
 * ever, across batches) lands in lane j % 4; each lane runs the
 * plain Welford update (MeanM2::add), and combined() merges the four
 * lanes in fixed order through Summary::merge.  The lanes keep the
 * count, mean and m2 only: their one reader is the interarrival CV.
 * Because lane membership depends only on the global element index,
 * the result is invariant to batch chunking — and because the
 * per-element update tree is identical in the scalar and SIMD
 * kernels, it is invariant to the dispatched ISA as well.
 *
 * The lane state is public plain-old-data so the per-ISA kernels can
 * load it straight into vector registers.
 */
class SummaryLanes
{
  public:
    SummaryLanes() { clear(); }

    /** Reset to the empty state (cursor back to lane 0). */
    void clear();

    /** Add one observation to the cursor lane and advance. */
    void add(double x);

    /** Add a batch through the dispatched kernel. */
    void addBatch(const double *x, std::size_t n);

    /**
     * Merge the lanes (fixed order) into one Summary.  The lanes keep
     * no extrema, so its min() and max() read +inf and -inf.
     */
    Summary combined() const;

    /** Append the full lane state (bit-exact). */
    void saveState(BinEnc &enc) const;

    /**
     * Restore state written by saveState(); false on a bad blob,
     * including a lane count that is not a whole number below 2^53.
     */
    bool loadState(BinDec &dec);

    // Raw lane state.  Counts are whole numbers carried as doubles
    // so the vector update needs no int<->double traffic; exact
    // below 2^53 observations per lane.
    alignas(32) double n[kSummaryLanes];
    alignas(32) double mean[kSummaryLanes];
    alignas(32) double m2[kSummaryLanes];
    /** Lane the next observation lands in (0..3). */
    std::uint32_t next;
};

/**
 * One ISA's kernel table.  All functions are pure loops over caller
 * storage; none allocate, none touch globals.
 */
struct KernelOps
{
    /**
     * Count arrival ticks into fixed-width bins:
     * bins[(t[i] - start) / width] += 1.0 for a prefix of the input.
     * Returns how many elements were consumed; processing stops
     * early at the first element with t < start or with a bin index
     * >= nbins (the caller grows the series and resumes).  Sorted
     * input is the fast path — the vector kernels batch runs of
     * same-bin ticks into one add — but correctness does not depend
     * on order: an out-of-run element simply starts a new run.
     * Exact while bin values are integral counts below 2^53.
     */
    std::size_t (*count_sorted)(const Tick *t, std::size_t n,
                                Tick start, Tick width, double *bins,
                                std::size_t nbins);

    /**
     * count_sorted, but only elements with flags[i] == want are
     * counted.  Every element still bounds-checks its bin (same
     * early-stop contract), so the consumed prefix is independent of
     * the flag column.
     */
    std::size_t (*count_sorted_if)(const Tick *t,
                                   const std::uint8_t *flags,
                                   std::uint8_t want, std::size_t n,
                                   Tick start, Tick width,
                                   double *bins, std::size_t nbins);

    /**
     * Interarrival gaps: out[0] = double(t[0] - prev), out[i] =
     * double(t[i] - t[i-1]).  The int64 -> double conversion is
     * correctly rounded in every ISA (the vector kernels use the
     * exact split-conversion identity), matching static_cast.
     */
    void (*gaps_i64)(const Tick *t, std::size_t n, Tick prev,
                     double *out);

    /**
     * Fold n observations into the 4-lane Welford tree (gaps and
     * counts; denormals are fine).
     */
    void (*welford_add)(SummaryLanes &lanes, const double *x,
                        std::size_t n);

    /** Number of bytes equal to want (read counting over Op). */
    std::uint64_t (*count_eq_u8)(const std::uint8_t *v, std::size_t n,
                                 std::uint8_t want);

    /**
     * Lagged cross products of a centered series, carried from call
     * to call: for each j < lags, acc[j] += d[t] * d[t + k + j] for
     * t = 0 .. min(t_end, n - k - j) - 1 (no term once k + j >= n),
     * one serial add chain in ascending t that continues from the
     * incoming acc[j].  stats::autocorrelation centers its series
     * one chunk at a time into a scratch window d (the chunk's t_end
     * bins and the max_lag bins after them) and calls this once per
     * chunk, so each lag's chain runs over the whole series in t
     * order, exactly the chain one call over the whole centered
     * series would run from acc[j] = 0.0.  The vector tables run
     * several lags side by side, finish each lag's tail in the same
     * order, and stay bit-identical.
     */
    void (*acf_lags)(const double *d, std::size_t n, std::size_t t_end,
                     std::size_t k, std::size_t lags, double *acc);

    /**
     * Mean rescaled range of `blocks` consecutive n-value blocks of
     * x (n >= 1).  Per block: mean = (0.0 + x0 + ... ) / n; one walk
     * of the deviations d = x - mean keeps the running sum's range
     * hi - lo (both from 0.0) and ss = 0.0 + d * d + ..., every one
     * a serial ascending chain; a block with s = sqrt(ss / n) > 0
     * adds (hi - lo) / s to a total, in block order.  Returns
     * total / used, 0 when no block has s > 0.  Blocks are
     * independent chains, so every table walks several side by side
     * (one per lane), each with its own operations in order, and the
     * tables stay bit-identical.
     */
    double (*rescaled_range)(const double *x, std::size_t n,
                             std::size_t blocks);
};

/** True when this build + CPU can dispatch the given ISA. */
bool supported(Isa isa);

/** AVX2 when supported(), else scalar: what ops() starts on. */
Isa bestSupported();

/** The ISA the active kernel table was built for. */
Isa activeIsa();

/** "scalar" / "avx2". */
const char *isaName(Isa isa);

/**
 * Select the kernel table; an unsupported request falls back to
 * scalar.  This is the seam the identity tests and the kernel bench
 * use to run the scalar reference on an AVX2 host; swapping tables
 * mid-stream is safe because every table computes identical bits.
 */
void force(Isa isa);

/** The active kernel table (bestSupported() until force()). */
const KernelOps &ops();

} // namespace simd
} // namespace stats
} // namespace dlw

#endif // DLW_STATS_SIMD_SIMD_HH
