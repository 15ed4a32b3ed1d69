/**
 * @file
 * The binned-series kernels with runtime SIMD dispatch, and the
 * 4-lane Welford fold.
 *
 * Two characterization loops run over a whole binned series and take
 * a measurable share of the burstiness finish: the
 * autocorrelation's lagged sums and the R/S blocks.  This layer
 * lifts them into two kernel tables, the scalar reference and AVX2;
 * the AVX2 table runs when CPUID reports AVX2, the scalar one
 * everywhere else.  The per-request folds (arrival counting, the
 * interarrival gaps, read counting) are plain loops at their
 * accumulators: vector versions of them sped up a layer that
 * end-to-end time does not wait on (docs/PERFORMANCE.md).
 *
 * The contract that makes dispatch safe everywhere byte-identity is
 * promised (thread counts, batch sizes, daemon checkpoints): every
 * kernel is bit-identical to the scalar reference on the same input.
 * That is achieved by construction, not by tolerance: both kernels
 * run each lag's or block's chains in the scalar order, side by side,
 * with element-wise IEEE operations that SIMD lanes reproduce bit for
 * bit (no FMA contraction, no reassociation).
 *
 * Kernels never touch the metrics registry (obs sits above stats in
 * the link order); core wires in the core.kernel.isa gauge.
 */

#ifndef DLW_STATS_SIMD_SIMD_HH
#define DLW_STATS_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "stats/summary.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace stats
{

namespace simd
{

/** Instruction sets a kernel table can be specialized for. */
enum class Isa : int
{
    kScalar = 0, ///< portable reference path (ground truth)
    kAvx2 = 2,   ///< 256-bit vectors (4 doubles)
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
 * the result is invariant to batch chunking.  Every report's CV and
 * every dlwd checkpoint (DLWCKPT1) carries this tree's bits, so one
 * plain Welford fold would change both.
 */
class SummaryLanes
{
  public:
    SummaryLanes() { clear(); }

    /** Reset to the empty state (cursor back to lane 0). */
    void clear();

    /** Add one observation to the cursor lane and advance. */
    void
    add(double x)
    {
        MeanM2 m{n[next], mean[next], m2[next]};
        m.add(x);
        n[next] = m.n;
        mean[next] = m.mean;
        m2[next] = m.m2;
        next = (next + 1) % kSummaryLanes;
    }

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

    // Raw lane state.  Counts are whole numbers carried as doubles,
    // exact below 2^53 observations per lane.
    double n[kSummaryLanes];
    double mean[kSummaryLanes];
    double m2[kSummaryLanes];
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
