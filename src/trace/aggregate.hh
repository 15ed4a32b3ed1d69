/**
 * @file
 * Cross-scale aggregation: Millisecond -> Hour -> Lifetime.
 *
 * The paper's methodology hinges on the same activity being visible
 * at three granularities.  These functions derive each coarser trace
 * from the finer one, so the cross-scale consistency experiment
 * (E13) can verify that nothing is lost except resolution.
 *
 * Busy time is not a property of the request stream alone — it
 * depends on how the drive serviced it — so the ms->hour conversion
 * optionally accepts the busy intervals produced by the disk model.
 */

#ifndef DLW_TRACE_AGGREGATE_HH
#define DLW_TRACE_AGGREGATE_HH

#include <utility>
#include <vector>

#include "trace/hourtrace.hh"
#include "trace/lifetime.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/** Half-open interval [begin, end) during which the drive was busy. */
using BusyInterval = std::pair<Tick, Tick>;

/**
 * Aggregate a per-request trace into hourly counters.
 *
 * The hour grid is anchored at the trace's start tick; the final
 * partial hour is kept.
 *
 * @param ms   Source trace (arrivals must be sorted).
 * @param busy Optional busy intervals from a disk-model run; when
 *             present they are folded into per-hour busy time.
 * @return Hour trace covering the full observation window.
 */
HourTrace msToHour(const MsTrace &ms,
                   const std::vector<BusyInterval> &busy = {});

/**
 * Fold one hour into a lifetime record: the volume sums, the peak
 * hour, and the saturated-hour count and longest run.  `run` is the
 * current saturated run, carried from one hour to the next.
 */
void foldHour(LifetimeRecord &rec, const HourBucket &b,
              double saturated_threshold, std::uint64_t &run);

/**
 * Collapse an hour trace into one lifetime record.
 *
 * @param hour                Source hour trace.
 * @param saturated_threshold Utilization at or above which an hour
 *                            counts as saturated (paper: near full
 *                            bandwidth).
 * @return Lifetime record with power_on = hours() * 1h.
 */
LifetimeRecord hourToLifetime(const HourTrace &hour,
                              double saturated_threshold = 0.9);

/**
 * Verify the aggregation identity between a ms trace and an hour
 * trace derived from the same activity: command and block totals
 * must match exactly.
 *
 * @return True when consistent.
 */
bool consistentMsHour(const MsTrace &ms, const HourTrace &hour);

/**
 * Verify the aggregation identity between an hour trace and a
 * lifetime record derived from it.
 *
 * @return True when consistent.
 */
bool consistentHourLifetime(const HourTrace &hour,
                            const LifetimeRecord &life);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_AGGREGATE_HH
