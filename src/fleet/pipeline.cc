#include "fleet/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/retry.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "core/family.hh"
#include "core/report.hh"
#include "disk/drive.hh"
#include "fleet/pool.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeline.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace fleet
{

namespace
{

/**
 * Fleet pipeline metrics.  Everything except shard_seconds is a pure
 * function of (config, fault spec) and therefore identical at any
 * thread count; shard_seconds is wall time and is not.
 */
struct FleetMetrics
{
    obs::Counter &shards_ok = obs::counter("fleet.shards_ok", "shards",
        "fleet", "drive shards characterized successfully");
    obs::Counter &shards_failed = obs::counter("fleet.shards_failed",
        "shards", "fleet",
        "drive shards that failed every attempt and landed in the "
        "failure appendix");
    obs::Counter &retries = obs::counter("fleet.retries", "attempts",
        "fleet", "shard attempts beyond the first (retry pressure)");
    obs::Counter &backoffs = obs::counter("fleet.backoffs", "sleeps",
        "fleet", "backoff sleeps taken before shard retries");
    obs::Histogram &shard_seconds = obs::histogram("fleet.shard_seconds",
        "s", "fleet",
        "wall time of one drive-shard attempt (generate + service + "
        "characterize); timing-dependent, unlike the fleet counters");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics *m = new FleetMetrics();
    return *m;
}

} // anonymous namespace

void
registerFleetMetrics()
{
    fleetMetrics();
    registerPoolMetrics();
    registerMergeMetrics();
}

namespace
{

/** Resolve the class drive `index` runs under this preset. */
FleetPreset
classFor(FleetPreset preset, std::size_t index)
{
    if (preset != FleetPreset::Mixed)
        return preset;
    switch (index % 4) {
      case 0:
        return FleetPreset::Oltp;
      case 1:
        return FleetPreset::FileServer;
      case 2:
        return FleetPreset::Streaming;
      default:
        return FleetPreset::Backup;
    }
}

synth::Workload
makeWorkload(FleetPreset klass, Lba capacity, double rate,
             std::uint64_t seed)
{
    switch (klass) {
      case FleetPreset::Oltp:
        return synth::Workload::makeOltp(capacity, rate, seed);
      case FleetPreset::FileServer:
        return synth::Workload::makeFileServer(capacity, rate, seed);
      case FleetPreset::Streaming:
        return synth::Workload::makeStreaming(capacity, rate);
      case FleetPreset::Backup:
        return synth::Workload::makeBackup(capacity, rate);
      case FleetPreset::Mixed:
        break;
    }
    dlw_panic("mixed preset must be resolved per drive");
}

/**
 * Distils the completion stream into shard statistics on the fly, as
 * the engine produces it.
 */
class ShardCompletionSink : public disk::CompletionSink
{
  public:
    explicit ShardCompletionSink(DriveShard &shard) : shard_(shard) {}

    void
    onCompletion(const disk::Completion &c) override
    {
        if (c.read)
            ++shard_.reads;
        if (c.cache_hit)
            ++shard_.cache_hits;
        const double ms = static_cast<double>(c.response()) /
                          static_cast<double>(kMsec);
        shard_.response_ms.add(ms);
        shard_.response_hist.add(ms);
    }

  private:
    DriveShard &shard_;
};

} // anonymous namespace

const char *
fleetPresetName(FleetPreset preset)
{
    switch (preset) {
      case FleetPreset::Oltp:
        return "oltp";
      case FleetPreset::FileServer:
        return "fileserver";
      case FleetPreset::Streaming:
        return "streaming";
      case FleetPreset::Backup:
        return "backup";
      case FleetPreset::Mixed:
        return "mixed";
    }
    return "unknown";
}

StatusOr<FleetPreset>
parseFleetPreset(const std::string &name)
{
    if (name == "oltp")
        return FleetPreset::Oltp;
    if (name == "fileserver")
        return FleetPreset::FileServer;
    if (name == "streaming")
        return FleetPreset::Streaming;
    if (name == "backup")
        return FleetPreset::Backup;
    if (name == "mixed")
        return FleetPreset::Mixed;
    return Status::invalidArgument(
        "unknown fleet preset '" + name +
        "' (oltp|fileserver|streaming|backup|mixed)");
}

/** The drive id shard `index` carries (also known before it runs). */
static std::string
driveIdFor(const FleetConfig &config, std::size_t index)
{
    return std::string(fleetPresetName(classFor(config.preset, index))) +
           "-" + std::to_string(index);
}

DriveShard
characterizeDrive(const FleetConfig &config, std::size_t index)
{
    obs::ScopedSpan span("fleet.shard");
    obs::ScopedTimer timer(fleetMetrics().shard_seconds);

    // Keyed by drive index so an armed mod=N spec fails the same
    // drives at any thread count (a global counter would not).
    if (FAULT_POINT_KEYED("fleet.shard", index)) {
        throw StatusError(Status::unavailable(
            "injected shard fault at drive " + std::to_string(index)));
    }

    // The drive's entire stochastic behaviour flows from this one
    // keyed fork; nothing here depends on other drives or threads.
    Rng rng = Rng(config.seed).fork(index);

    const disk::DriveConfig dcfg = config.nearline
        ? disk::DriveConfig::makeNearline()
        : disk::DriveConfig::makeEnterprise();

    DriveShard shard;
    shard.index = index;
    const FleetPreset klass = classFor(config.preset, index);
    shard.klass = fleetPresetName(klass);
    shard.drive_id = shard.klass + "-" + std::to_string(index);

    // Workload-internal streams (hotspot permutations) get their own
    // draw so they stay decoupled from the arrival stream.
    const std::uint64_t wseed = rng.engine()();
    synth::Workload workload = makeWorkload(
        klass, dcfg.geometry.capacityBlocks(), config.rate, wseed);

    // Bounded-memory path: batches flow workload -> engine and
    // completions flow engine -> shard statistics, so neither the
    // trace nor the completion vector is ever materialized.
    disk::DiskDrive drive(dcfg);
    ShardCompletionSink sink(shard);
    synth::WorkloadSource wsrc = [&] {
        obs::ScopedSpan stage("generate");
        return workload.openSource(rng, shard.drive_id, 0, config.window);
    }();
    wsrc.setTag(config.tag);
    const std::size_t requests = wsrc.size();
    const disk::ServiceLog log = [&] {
        obs::ScopedSpan stage("service");
        return drive.service(
            wsrc, &sink,
            std::max<std::size_t>(config.batch_requests, 1));
    }();

    obs::ScopedSpan stage("characterize");
    shard.requests = requests;
    shard.arrival_rate = static_cast<double>(requests) /
                         ticksToSeconds(config.window);
    shard.utilization = log.utilization();

    for (Tick gap : log.idleIntervals())
        shard.idle_hist.add(ticksToSeconds(gap));

    // Second-granularity busy structure: the E8 view at ms scale.
    const stats::BinnedSeries util_1s = log.utilizationSeries(kSec);
    std::size_t busy_bins = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < util_1s.size(); ++i) {
        const double u = util_1s.at(i);
        if (u >= 0.5)
            ++busy_bins;
        if (u >= 0.9) {
            ++run;
            shard.longest_saturated_s =
                std::max(shard.longest_saturated_s, run);
        } else {
            run = 0;
        }
    }
    shard.busy_second_fraction = util_1s.empty()
        ? 0.0
        : static_cast<double>(busy_bins) /
            static_cast<double>(util_1s.size());
    return shard;
}

namespace
{

/** What one drive slot ended up as after its attempt loop. */
struct SlotOutcome
{
    bool ok = false;
    DriveShard shard;
    Status error;
    std::size_t attempts = 0;
};

/** Backoff before retry `attempt` of shard `index` (deterministic). */
void
backoff(const FleetConfig &config, std::size_t index,
        std::size_t attempt)
{
    // Capped exponential base with seeded jitter: the schedule is a
    // pure function of (seed, index, attempt), like the shard itself
    // (common/retry.hh — the same policy the stream client reuses).
    const double ms =
        retryBackoffMs(config.seed, index, attempt, 1.0, 16.0);
    fleetMetrics().backoffs.add(1);
    obs::emitInstant("fleet.backoff");
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
}

} // anonymous namespace

FleetResult
runFleet(const FleetConfig &config)
{
    obs::ScopedSpan run_span("fleet.run");
    dlw_assert(config.drives > 0, "fleet needs at least one drive");
    const std::size_t max_attempts = std::max<std::size_t>(
        config.max_attempts, 1);

    // Parallel phase: each task owns exactly its own slot and keeps
    // every failure local to it — one bad drive cannot take down the
    // other N - 1.
    std::vector<SlotOutcome> slots(config.drives);
    ThreadPool pool(config.threads);
    parallelFor(
        pool, config.drives,
        [&](std::size_t i) {
            SlotOutcome &slot = slots[i];
            for (slot.attempts = 1;; ++slot.attempts) {
                try {
                    slot.shard = characterizeDrive(config, i);
                    slot.ok = true;
                    return;
                } catch (const StatusError &e) {
                    slot.error = e.status();
                } catch (const std::exception &e) {
                    slot.error = Status::internal(e.what());
                }
                if (slot.attempts >= max_attempts)
                    return;
                obs::emitInstant("fleet.retry");
                backoff(config, i, slot.attempts);
            }
        },
        config.tag.klass);

    // Serial phase: split survivors from failures in index order,
    // then the ordered reduction (see merge.hh).
    FleetResult result;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        SlotOutcome &slot = slots[i];
        result.retries += slot.attempts - 1;
        if (slot.ok) {
            result.shards.push_back(std::move(slot.shard));
        } else {
            ShardFailure f;
            f.index = i;
            f.drive_id = driveIdFor(config, i);
            f.attempts = slot.attempts;
            f.error = std::move(slot.error);
            result.failures.push_back(std::move(f));
        }
    }
    fleetMetrics().shards_ok.add(result.shards.size());
    fleetMetrics().shards_failed.add(result.failures.size());
    fleetMetrics().retries.add(result.retries);
    {
        obs::ScopedSpan merge_span("fleet.merge");
        result.aggregate = reduceOrdered(result.shards);
    }
    return result;
}

namespace
{

/**
 * The degraded-run appendix: a human table plus one machine-readable
 * line per failed drive, everything ordered by drive index so the
 * appendix obeys the same any-thread-count byte-identity as the rest
 * of the report.
 */
void
renderFailureAppendix(std::ostream &os, const FleetResult &result)
{
    core::Table f("failure appendix",
                  {"drive", "index", "attempts", "code", "error"});
    for (const ShardFailure &fail : result.failures) {
        f.addRow({fail.drive_id, core::cell(fail.index),
                  core::cell(fail.attempts),
                  statusCodeName(fail.error.code()),
                  fail.error.message()});
    }
    f.print(os);
    os << '\n';
    for (const ShardFailure &fail : result.failures) {
        os << "# failure drive=" << fail.drive_id
           << " index=" << fail.index
           << " attempts=" << fail.attempts
           << " code=" << statusCodeName(fail.error.code())
           << " msg=" << fail.error.message() << '\n';
    }
}

} // anonymous namespace

std::string
renderFleetReport(const FleetConfig &config, const FleetResult &result)
{
    const FleetAggregate &agg = result.aggregate;
    std::ostringstream os;
    os << "fleet characterization: " << agg.drives << " drives, preset "
       << fleetPresetName(config.preset) << ", "
       << formatDuration(config.window) << " window, "
       << core::cell(config.rate) << " req/s/drive, seed "
       << config.seed << "\n\n";

    if (agg.drives == 0) {
        os << "no surviving drives; see failure appendix\n\n";
        renderFailureAppendix(os, result);
        return os.str();
    }

    core::Table t("fleet aggregate", {"metric", "value"});
    t.addRow({"requests", core::cell(agg.requests)});
    t.addRow({"read fraction %",
              core::cell(100.0 * agg.readFraction())});
    t.addRow({"cache hit %",
              core::cell(agg.requests
                             ? 100.0 *
                                   static_cast<double>(agg.cache_hits) /
                                   static_cast<double>(agg.requests)
                             : 0.0)});
    t.addRow({"mean response ms", core::cell(agg.response_ms.mean())});
    t.addRow({"p95 response ms",
              core::cell(agg.response_hist.quantile(0.95))});
    t.addRow({"p99 response ms",
              core::cell(agg.response_hist.quantile(0.99))});
    t.addRow({"mean drive utilization %",
              core::cell(100.0 * agg.util.mean())});
    t.addRow({"idle interval p50 s",
              core::cell(agg.idle_hist.quantile(0.5))});
    t.addRow({"idle interval p99 s",
              core::cell(agg.idle_hist.quantile(0.99))});
    t.print(os);
    os << '\n';

    core::Table v("cross-drive variability (E11 view)",
                  {"metric", "value"});
    v.addRow({"utilization p10 %",
              core::cell(100.0 * agg.util_ecdf.quantile(0.1))});
    v.addRow({"utilization p50 %",
              core::cell(100.0 * agg.util_ecdf.quantile(0.5))});
    v.addRow({"utilization p90 %",
              core::cell(100.0 * agg.util_ecdf.quantile(0.9))});
    v.addRow({"p90/p10 ratio",
              core::cell(agg.util_ecdf.quantile(0.9) /
                         std::max(agg.util_ecdf.quantile(0.1),
                                  1e-9))});
    v.addRow({"request-volume Gini", core::cell(agg.volumeGini())});
    v.print(os);
    os << '\n';

    core::Table c("behavioural tiers", {"tier", "drives", "%"});
    for (std::size_t i = 0; i < agg.tier_counts.size(); ++i) {
        c.addRow({core::tierName(static_cast<core::UtilizationTier>(i)),
                  core::cell(agg.tier_counts[i]),
                  core::cell(100.0 *
                             static_cast<double>(agg.tier_counts[i]) /
                             static_cast<double>(agg.drives))});
    }
    c.print(os);
    os << '\n';

    core::Table s("saturated streaming (E8 view)",
                  {"k (consecutive saturated s)",
                   "fraction of drives %"});
    for (std::size_t i = 0; i < kSaturatedRunEdges.size(); ++i) {
        s.addRow({std::to_string(kSaturatedRunEdges[i]),
                  core::cell(100.0 *
                             static_cast<double>(
                                 agg.saturated_counts[i]) /
                             static_cast<double>(agg.drives))});
    }
    s.print(os);

    if (!result.failures.empty()) {
        os << '\n';
        renderFailureAppendix(os, result);
    }
    return os.str();
}

} // namespace fleet
} // namespace dlw
