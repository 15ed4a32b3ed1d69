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
#include "stats/ecdf.hh"
#include "stats/summary.hh"
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
 * Incremental utilization profile: feed one clamped per-bin sample at
 * a time (in bin order) and finish into the profile.  The streaming
 * drive pipeline emits bin samples as busy intervals close, so the
 * profile never needs the whole series twice; the series itself is
 * still recorded in the profile (O(bins), not O(requests)).
 */
class UtilizationAccumulator
{
  public:
    /** @param bin_width Measurement window (> 0). */
    explicit UtilizationAccumulator(Tick bin_width);

    /** One per-bin utilization sample in [0, 1], in bin order. */
    void observe(double u);

    /** Derive the profile over everything observed so far. */
    UtilizationProfile finish();

  private:
    UtilizationProfile p_;
    stats::Ecdf ecdf_;
    std::size_t idle_ = 0;
    std::size_t saturated_ = 0;
    double sum_ = 0.0;
};

/**
 * Compute a utilization profile from a drive service log.
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
