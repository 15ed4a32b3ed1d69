/**
 * @file
 * Sharded multi-drive characterization pipeline.
 *
 * Scales the repo's single-drive path (generate a workload, service
 * it through the mechanical drive model, characterize the result) to
 * N drives: each drive is one shard, shards run concurrently on the
 * work-stealing pool, and the merge layer reduces them — in drive
 * order — to a fleet aggregate with the paper's cross-drive views
 * (E11 variability spread, E8 saturated-streaming structure).
 *
 * Output is bit-identical at any thread count; see fleet/merge.hh
 * for the three rules that guarantee it.
 */

#ifndef DLW_FLEET_PIPELINE_HH
#define DLW_FLEET_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "fleet/merge.hh"
#include "trace/batch.hh"

namespace dlw
{
namespace fleet
{

/** Workload class every drive of the fleet runs. */
enum class FleetPreset
{
    Oltp,
    FileServer,
    Streaming,
    Backup,
    /** Rotate the four classes by drive index (the default). */
    Mixed,
};

/** Human-readable preset name. */
const char *fleetPresetName(FleetPreset preset);

/** Parse a preset name; InvalidArgument on an unknown one. */
StatusOr<FleetPreset> parseFleetPreset(const std::string &name);

/**
 * Fleet run configuration.
 */
struct FleetConfig
{
    /** Number of drives to characterize. */
    std::size_t drives = 64;
    /** Worker threads (does not affect output, only wall time). */
    std::size_t threads = 1;
    /** Workload preset. */
    FleetPreset preset = FleetPreset::Mixed;
    /** Master seed; drive k uses stream fork(k). */
    std::uint64_t seed = 20090614;
    /** Mean arrival rate per drive, requests/second. */
    double rate = 60.0;
    /** Observation window per drive. */
    Tick window = 2 * kMinute;
    /** Use the nearline drive model instead of enterprise. */
    bool nearline = false;
    /**
     * Attempts per shard (>= 1).  A shard that keeps failing after
     * max_attempts tries is recorded in FleetResult::failures rather
     * than failing the run.
     */
    std::size_t max_attempts = 3;
    /**
     * Batch capacity (requests) each shard streams its workload in:
     * requests are synthesized per batch and completions distilled
     * into the shard statistics as they happen, so a shard's resident
     * footprint is O(batch).  The report does not depend on it.
     */
    std::size_t batch_requests = trace::kDefaultBatchRequests;
    /**
     * Tenant/class tag the whole run executes under: every shard
     * task lands in this tag's priority lane and every generated
     * batch carries it.  Defaults to the single-tenant identity, so
     * untagged runs are byte-identical to the pre-QoS pipeline.
     */
    qos::TagId tag;
};

/**
 * One drive the fleet could not characterize.
 */
struct ShardFailure
{
    /** Drive index of the failed shard. */
    std::size_t index = 0;
    /** Drive id the shard would have carried. */
    std::string drive_id;
    /** Attempts spent before giving up. */
    std::size_t attempts = 0;
    /** Final error of the last attempt. */
    Status error;
};

/**
 * Everything a fleet run produces.
 *
 * A run with k failed drives still yields the other N - k shards and
 * their aggregate; the failures ride alongside, in drive order, so a
 * report can render both.
 */
struct FleetResult
{
    /** Surviving per-drive shards, ascending by drive index. */
    std::vector<DriveShard> shards;
    /** Ordered reduction of the surviving shards. */
    FleetAggregate aggregate;
    /** Drives that failed every attempt, ascending by index. */
    std::vector<ShardFailure> failures;
    /** Total retry attempts spent across all shards. */
    std::uint64_t retries = 0;
};

/**
 * Characterize one drive of the fleet.
 *
 * Pure function of (config, index): generates the drive's workload
 * from RNG stream fork(index), services it through the disk model,
 * and distils the shard statistics.  Safe to call from any thread.
 * Throws StatusError on failure (including the armed "fleet.shard"
 * fault point, keyed by drive index).
 */
DriveShard characterizeDrive(const FleetConfig &config,
                             std::size_t index);

/**
 * Run the whole fleet on config.threads workers and reduce.
 *
 * Failure isolation: a shard that throws is retried up to
 * config.max_attempts times with capped exponential backoff (the
 * jitter is seeded from config.seed, so the retry schedule is as
 * reproducible as the shards themselves); a shard that exhausts its
 * attempts lands in FleetResult::failures and the rest of the fleet
 * carries on.  The surviving aggregate and the failure list are both
 * byte-identical at any thread count.
 */
FleetResult runFleet(const FleetConfig &config);

/**
 * Render the cross-drive variability report (E8/E11 view).
 *
 * Deliberately excludes thread count and timing so the report is
 * byte-identical across thread counts.  When shards failed, a
 * failure appendix follows the aggregate tables: one table row plus
 * one machine-readable "# failure ..." line per failed drive.
 */
std::string renderFleetReport(const FleetConfig &config,
                              const FleetResult &result);

/**
 * Force-register every fleet.* and stats.* metric (pipeline, pool,
 * and merge layers) so a snapshot taken before — or without — a fleet
 * run still carries the full schema at zero.
 */
void registerFleetMetrics();

} // namespace fleet
} // namespace dlw

#endif // DLW_FLEET_PIPELINE_HH
