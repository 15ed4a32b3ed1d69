/**
 * @file
 * Hurst-exponent estimation for self-similarity analysis.
 *
 * Two classic estimators over a counts series:
 *  - aggregated-variance method: Var of the m-aggregated series
 *    scales as m^(2H - 2); fit the slope of log Var vs log m.
 *  - rescaled-range (R/S) method: E[R/S](n) scales as n^H.
 *
 * H ~= 0.5 for short-range-dependent (Poisson-like) traffic and
 * 0.7-0.9 for the self-similar traffic enterprise disks see.
 */

#ifndef DLW_STATS_HURST_HH
#define DLW_STATS_HURST_HH

#include <cstddef>
#include <vector>

#include "stats/regression.hh"
#include "stats/windowfold.hh"

namespace dlw
{
namespace stats
{

/**
 * Outcome of a Hurst estimation.
 */
struct HurstEstimate
{
    /** Estimated Hurst exponent. */
    double h = 0.5;
    /** Goodness of the underlying log-log fit. */
    double r2 = 0.0;
    /** Points used in the fit. */
    std::size_t points = 0;
    /** The log-log samples, for variance-time-plot style figures. */
    std::vector<double> log_scale;
    std::vector<double> log_value;
};

/**
 * Aggregated-variance Hurst estimator.
 *
 * @param xs           Counts series at the finest scale (>= 32 bins).
 * @param min_factor   Smallest aggregation factor (>= 1).
 * @param max_factor   Largest aggregation factor; clamped so at least
 *                     eight aggregated samples remain.
 * @param points       Number of (geometrically spaced) factors.
 * @return Estimate with the variance-time samples attached.
 */
HurstEstimate hurstAggregatedVariance(const std::vector<double> &xs,
                                      std::size_t min_factor = 1,
                                      std::size_t max_factor = 0,
                                      std::size_t points = 12);

/**
 * hurstAggregatedVariance() on a shared WindowFold, so the pass that
 * folds its window means can feed other estimators too: the
 * constructor asks the fold for one mean chain per factor, and
 * estimate() reads them after fold.run() over the n-sample series.
 */
class VarianceTimePlan
{
  public:
    /** Same parameters as hurstAggregatedVariance(); n >= 32. */
    VarianceTimePlan(WindowFold &fold, std::size_t n,
                     std::size_t min_factor = 1,
                     std::size_t max_factor = 0, std::size_t points = 12);

    /** The estimate, once fold has run. */
    HurstEstimate estimate(const WindowFold &fold) const;

  private:
    std::vector<std::size_t> factors_;
    std::vector<std::size_t> chains_;
};

/**
 * Rescaled-range (R/S) Hurst estimator.
 *
 * @param xs      Series values (>= 64 samples).
 * @param points  Number of geometrically spaced block sizes.
 * @return Estimate with the log R/S samples attached.
 */
HurstEstimate hurstRescaledRange(const std::vector<double> &xs,
                                 std::size_t points = 12);

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_HURST_HH
