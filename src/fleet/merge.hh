/**
 * @file
 * Mergeable per-drive statistics and the deterministic reduction
 * that turns N drive shards into one fleet-level aggregate.
 *
 * The determinism contract of the fleet engine lives here:
 *
 *  1. every shard is a pure function of (fleet seed, drive index) —
 *     threads never share random state (see Rng::fork(stream));
 *  2. shards land in a pre-sized vector slot owned by their index,
 *     so the parallel phase has no ordering effects;
 *  3. the reduction folds shards serially in ascending index order.
 *
 * Together these make the aggregate bit-identical at any thread
 * count: the same sequence of floating-point operations runs no
 * matter how the parallel phase interleaved.
 */

#ifndef DLW_FLEET_MERGE_HH
#define DLW_FLEET_MERGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/ecdf.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace fleet
{

/** Response-time histogram layout: 1 us .. 100 s, in milliseconds. */
inline stats::LogHistogram
makeResponseHistogram()
{
    return stats::LogHistogram(1e-3, 1e5, 8);
}

/** Idle-interval histogram layout: 1 us .. 10^4 s, in seconds. */
inline stats::LogHistogram
makeIdleHistogram()
{
    return stats::LogHistogram(1e-6, 1e4, 8);
}

/**
 * Saturated-run CCDF edges, in consecutive saturated seconds: the
 * fleet report counts drives whose longest run of >= 90%-utilized
 * seconds reaches each edge (the E8 "pinned for hours" view, at the
 * ms-trace scale).
 */
constexpr std::array<std::size_t, 8> kSaturatedRunEdges = {
    1, 2, 5, 10, 30, 60, 120, 300};

/**
 * Everything one drive contributes to the fleet aggregate.
 */
struct DriveShard
{
    std::size_t index = 0;
    std::string drive_id;
    std::string klass;

    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t cache_hits = 0;
    double utilization = 0.0;        ///< busy fraction of the window
    double arrival_rate = 0.0;       ///< requests per second
    double busy_second_fraction = 0.0; ///< 1 s bins with util >= 0.5
    std::size_t longest_saturated_s = 0; ///< run of 1 s bins >= 0.9

    stats::Summary response_ms;      ///< per-request response times
    stats::LogHistogram response_hist = makeResponseHistogram();
    stats::LogHistogram idle_hist = makeIdleHistogram(); ///< seconds
};

/**
 * Fleet-level aggregate, folded shard by shard in drive order.
 */
struct FleetAggregate
{
    std::size_t drives = 0;
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t cache_hits = 0;

    /** Per-request response times across the whole fleet. */
    stats::Summary response_ms;
    stats::LogHistogram response_hist = makeResponseHistogram();
    /** Idle-interval distribution across the fleet, seconds. */
    stats::LogHistogram idle_hist = makeIdleHistogram();

    /** Per-drive mean utilization (one sample per drive). */
    stats::Summary util;
    /** Exact spread of per-drive utilization (E11 percentiles). */
    stats::Ecdf util_ecdf;
    /** Exact spread of per-drive request volume (Gini input). */
    stats::Ecdf volume_ecdf;

    /** Drives per utilization tier (core::UtilizationTier order). */
    std::array<std::uint64_t, 5> tier_counts{};
    /** Drives whose longest saturated run reaches each edge. */
    std::array<std::uint64_t, kSaturatedRunEdges.size()>
        saturated_counts{};

    /** Fold one drive shard into the aggregate. */
    void accumulate(const DriveShard &shard);

    /** Fleet-wide read fraction. */
    double readFraction() const;

    /** Gini coefficient of per-drive request volume. */
    double volumeGini() const;
};

/**
 * Reduce shards to the fleet aggregate, serially, in ascending index
 * order.  This is the only sanctioned reduction: it fixes the
 * floating-point evaluation order, which is what makes the parallel
 * pipeline's output bit-identical to the serial one.
 *
 * @param shards Per-drive shards, one per index (any storage order;
 *               folded by ascending .index).
 */
FleetAggregate reduceOrdered(const std::vector<DriveShard> &shards);

/**
 * Force-register the stats.* merge metrics so snapshots carry the
 * reduction-layer schema before any merge runs.
 */
void registerMergeMetrics();

} // namespace fleet
} // namespace dlw

#endif // DLW_FLEET_MERGE_HH
