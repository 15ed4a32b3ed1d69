/**
 * @file
 * Index of dispersion for counts (IDC) across aggregation scales.
 *
 * IDC(w) = Var[N_w] / E[N_w], where N_w is the number of arrivals in
 * a window of width w.  A Poisson process has IDC == 1 at every
 * scale; traffic that is "bursty across all time scales" shows an
 * IDC that keeps growing as w grows.  This is the paper's primary
 * quantitative burstiness instrument.
 */

#ifndef DLW_STATS_DISPERSION_HH
#define DLW_STATS_DISPERSION_HH

#include <cstddef>
#include <vector>

#include "stats/timeseries.hh"
#include "stats/windowfold.hh"

namespace dlw
{
namespace stats
{

/**
 * One point of an IDC-vs-scale curve.
 */
struct IdcPoint
{
    /** Window width in ticks. */
    Tick window = 0;
    /** Index of dispersion at this window width. */
    double idc = 0.0;
    /** Number of windows that produced the estimate. */
    std::size_t windows = 0;
};

/**
 * Index of dispersion of a single counts series.
 *
 * @param counts Per-bin event counts.
 * @return Var/Mean of the bin counts (0 when the mean is 0).
 */
double indexOfDispersion(const std::vector<double> &counts);

/**
 * IDC evaluated at successively coarser aggregations of a base
 * counts series.
 *
 * @param base     Counts at the finest available bin width.
 * @param factors  Aggregation factors to evaluate (each >= 1);
 *                 windows with fewer than min_windows samples are
 *                 skipped.
 * @param min_windows Minimum bins required for a usable estimate.
 * @return One IdcPoint per usable factor, in input order.
 */
std::vector<IdcPoint> idcAcrossScales(const BinnedSeries &base,
                                      const std::vector<std::size_t> &factors,
                                      std::size_t min_windows = 8);

/**
 * idcAcrossScales() on a shared WindowFold, so the pass that folds
 * its window sums can feed other estimators too: the constructor
 * asks the fold for one sum chain per usable factor, and curve()
 * reads them after fold.run() over base's values.
 */
class IdcScalesPlan
{
  public:
    /** Same parameters as idcAcrossScales(). */
    IdcScalesPlan(WindowFold &fold, const BinnedSeries &base,
                  const std::vector<std::size_t> &factors,
                  std::size_t min_windows = 8);

    /** The curve, once fold has run. */
    std::vector<IdcPoint> curve(const WindowFold &fold) const;

  private:
    std::vector<IdcPoint> points_;
    std::vector<std::size_t> chains_;
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_DISPERSION_HH
