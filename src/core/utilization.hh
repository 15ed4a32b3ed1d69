/**
 * @file
 * Utilization analysis at arbitrary time scales.
 *
 * The paper's first question: how busy are disks, and how does the
 * answer change with the measurement window?  A drive that is 25%
 * utilized over an hour may still contain minutes at 100%.  The
 * analysis therefore reports utilization as a distribution over
 * bins of a chosen width, not just a single mean.
 */

#ifndef DLW_CORE_UTILIZATION_HH
#define DLW_CORE_UTILIZATION_HH

#include <vector>

#include "disk/drive.hh"
#include "stats/timeseries.hh"
#include "trace/hourtrace.hh"

namespace dlw
{
namespace core
{

/**
 * Utilization figures at one bin width.
 */
struct UtilizationProfile
{
    /** Bin width the profile was computed at. */
    Tick bin_width = 0;
    /** Mean utilization across bins. */
    double mean = 0.0;
    /** Peak bin utilization. */
    double peak = 0.0;
    /** Median bin utilization. */
    double median = 0.0;
    /** 95th percentile bin utilization. */
    double p95 = 0.0;
    /** Fraction of bins fully idle (0 busy time). */
    double idle_fraction = 0.0;
    /** Fraction of bins at or above 90% busy. */
    double saturated_fraction = 0.0;
    /** The per-bin utilization series itself. */
    std::vector<double> series;
};

/**
 * The profile of a drive's per-bin utilization, as
 * disk::BusyBins::utilization() gives it: bins clipped to [0, 1]
 * against FP residue from interval splitting, then profiled.  The
 * profile keeps the series.
 */
UtilizationProfile utilizationProfile(stats::BinnedSeries utilization);

/**
 * Compute a utilization profile from a drive service log: the
 * profile of ServiceLog::utilizationSeries().
 *
 * @param log       Drive run to analyse.
 * @param bin_width Measurement window (> 0).
 */
UtilizationProfile utilizationProfile(const disk::ServiceLog &log,
                                      Tick bin_width);

/**
 * Compute a utilization profile from hour-granularity counters
 * (bin width is fixed at one hour by the data).
 */
UtilizationProfile utilizationProfile(const trace::HourTrace &trace);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_UTILIZATION_HH
