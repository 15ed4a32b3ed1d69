/**
 * @file
 * Top-level multi-scale characterization.
 *
 * One call takes a drive's activity at whatever granularities are
 * available (Millisecond trace + service log, Hour trace, Lifetime
 * record) and produces the full characterization the paper performs:
 * utilization at several scales, idleness structure, burstiness
 * instruments, and read/write dynamics, rendered as text tables.
 */

#ifndef DLW_CORE_CHARACTERIZE_HH
#define DLW_CORE_CHARACTERIZE_HH

#include <optional>
#include <string>

#include "common/status.hh"
#include "core/burstiness.hh"
#include "core/idleness.hh"
#include "core/rwmix.hh"
#include "core/utilization.hh"
#include "trace/lifetime.hh"

namespace dlw
{
namespace core
{

/**
 * Everything known about one drive at every scale it was observed.
 */
struct DriveCharacterization
{
    std::string drive_id;

    // Millisecond-scale results (present when a ms trace was given).
    std::optional<UtilizationProfile> util_1s;
    std::optional<UtilizationProfile> util_1min;
    std::optional<BurstinessReport> ms_burstiness;
    std::optional<RwDynamics> ms_rw;
    /** Idle structure from the service log. */
    std::optional<double> idle_fraction;
    std::optional<Tick> mean_idle_interval;
    std::optional<double> idle_mass_1s; ///< mass in intervals >= 1 s
    std::optional<double> mean_response_ms;
    std::optional<double> p95_response_ms;
    std::optional<double> p99_response_ms;
    std::optional<double> arrival_rate;
    std::optional<double> read_fraction;

    // Hour-scale results.
    std::optional<UtilizationProfile> util_hour;
    std::optional<BurstinessReport> hour_burstiness;
    std::optional<RwDynamics> hour_rw;
    std::optional<double> idle_hour_fraction;
    std::optional<std::size_t> longest_saturated_hours;

    // Lifetime-scale results.
    std::optional<double> lifetime_utilization;
    std::optional<double> lifetime_read_fraction;
    std::optional<std::uint64_t> lifetime_requests;

    /** Render the characterization as human-readable tables. */
    std::string render() const;
};

/**
 * The trace-derived characterization of a request stream (no drive
 * model): one trip over `src` through a LiveCharacterization.
 *
 * @return InvalidArgument when the stream fails the order check
 *         (sorted, inside the window, nonzero sizes); the source's
 *         own status when it fails mid-stream.
 */
StatusOr<DriveCharacterization> characterizeTrace(
    trace::RequestSource &src,
    std::size_t batch_requests = trace::kDefaultBatchRequests);

/**
 * Service a request stream through `drive` and characterize it in
 * the same trip: the drive pulls each batch through a tee that folds
 * it into a LiveCharacterization first; addServiceLog() follows.
 * Byte-identical to service() then characterizeMs().
 *
 * @return As characterizeTrace(): a batch failing the order check
 *         ends the stream before the drive sees it.
 */
StatusOr<DriveCharacterization> serviceAndCharacterize(
    disk::DiskDrive &drive, trace::RequestSource &src,
    std::size_t batch_requests = trace::kDefaultBatchRequests);

/**
 * Extend a characterization with the service log's figures:
 * utilization, idle structure, response-time quantiles.
 */
void addServiceLog(DriveCharacterization &c,
                   const disk::ServiceLog &log);

/**
 * characterizeTrace() over `src`, then addServiceLog().
 *
 * @throws StatusError when characterizeTrace() fails.
 */
DriveCharacterization characterizeMs(trace::RequestSource &src,
                                     const disk::ServiceLog &log);

/**
 * Characterize a drive from its ms trace and the service log the
 * disk model produced for it (wraps the trace in a source).
 */
DriveCharacterization characterizeMs(const trace::MsTrace &tr,
                                     const disk::ServiceLog &log);

/**
 * Extend a characterization with hour-granularity data.
 */
void addHourScale(DriveCharacterization &c,
                  const trace::HourTrace &tr);

/**
 * Extend a characterization with lifetime data.
 */
void addLifetimeScale(DriveCharacterization &c,
                      const trace::LifetimeRecord &rec);

/**
 * Force-register the core.* stats-kernel metrics so snapshots carry
 * the characterization schema before any drive is characterized.
 */
void registerCoreMetrics();

} // namespace core
} // namespace dlw

#endif // DLW_CORE_CHARACTERIZE_HH
