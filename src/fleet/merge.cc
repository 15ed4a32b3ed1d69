#include "fleet/merge.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/family.hh"
#include "obs/metrics.hh"

namespace dlw
{
namespace fleet
{

namespace
{

/**
 * Stats-kernel volume: how much mergeable-statistics work the
 * reduction layer performs.  Counts are a pure function of the shard
 * set, so they are identical at any thread count.
 */
struct MergeMetrics
{
    obs::Counter &shard_merges = obs::counter("stats.shard_merges",
        "shards", "stats",
        "drive shards folded into a fleet aggregate (accumulate calls)");
    obs::Counter &ordered_reductions = obs::counter("stats.ordered_reductions", "reductions", "stats",
        "full index-ordered shard reductions performed");
};

MergeMetrics &
mergeMetrics()
{
    static MergeMetrics *m = new MergeMetrics();
    return *m;
}

} // anonymous namespace

void
registerMergeMetrics()
{
    mergeMetrics();
}

void
FleetAggregate::accumulate(const DriveShard &shard)
{
    mergeMetrics().shard_merges.add(1);
    ++drives;
    requests += shard.requests;
    reads += shard.reads;
    cache_hits += shard.cache_hits;

    response_ms.merge(shard.response_ms);
    response_hist.merge(shard.response_hist);
    idle_hist.merge(shard.idle_hist);

    util.add(shard.utilization);
    util_ecdf.add(shard.utilization);
    volume_ecdf.add(static_cast<double>(shard.requests));

    const auto tier = core::tierOf(shard.utilization);
    ++tier_counts[static_cast<std::size_t>(tier)];
    for (std::size_t i = 0; i < kSaturatedRunEdges.size(); ++i) {
        if (shard.longest_saturated_s >= kSaturatedRunEdges[i])
            ++saturated_counts[i];
    }
}

double
FleetAggregate::readFraction() const
{
    return requests
        ? static_cast<double>(reads) / static_cast<double>(requests)
        : 0.0;
}

double
FleetAggregate::volumeGini() const
{
    return core::giniCoefficient(volume_ecdf.sorted());
}

FleetAggregate
reduceOrdered(const std::vector<DriveShard> &shards)
{
    mergeMetrics().ordered_reductions.add(1);
    // Fold by ascending drive index, not storage order, so the same
    // floating-point operation sequence runs regardless of how the
    // parallel phase scattered the shards.
    std::vector<const DriveShard *> ordered;
    ordered.reserve(shards.size());
    for (const DriveShard &s : shards)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const DriveShard *a, const DriveShard *b) {
                  return a->index < b->index;
              });

    FleetAggregate agg;
    for (const DriveShard *s : ordered)
        agg.accumulate(*s);
    return agg;
}

} // namespace fleet
} // namespace dlw
