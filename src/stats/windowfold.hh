/**
 * @file
 * Whole-window moments of a series at many widths, in one pass.
 *
 * The IDC curve (dispersion.hh) and the variance-time estimate
 * (hurst.hh) both aggregate one base series into windows of m bins
 * and fold each whole window into a Welford chain: the window's sum
 * for the IDC, its mean (sum / m) for the variance.  A WindowFold
 * serves every chain both ask for from one time-ordered walk of the
 * series.  Each chain's divisions and each window's add chain are
 * independent of the others, so walking them side by side lets them
 * overlap instead of running once per width; the longest of them,
 * the width-1 chain that folds every bin, sets the pace.
 *
 * Every chain is bit-identical to the per-width loop it replaces:
 * each window sum is the serial ascending chain 0.0 + v[i] + ...,
 * and each chain folds it through MeanM2::add, the step Summary::add
 * runs.
 */

#ifndef DLW_STATS_WINDOWFOLD_HH
#define DLW_STATS_WINDOWFOLD_HH

#include <cstddef>
#include <vector>

#include "stats/summary.hh"

namespace dlw
{
namespace stats
{

/**
 * Welford moments of a series' whole windows at several widths.
 *
 * Ask for chains with sums() and means(), run() once, then read each
 * chain by the index the request returned.  Windows tile the series
 * from its first bin; a trailing partial window is never folded.
 * Asking twice for the same chain returns the same index.  At width
 * 1 the sum and the mean chain are one chain: 0.0 + x and x / 1.0
 * fold to the same moments as x.
 */
class WindowFold
{
  public:
    /** Chain of the sums of w-bin windows (w >= 1). */
    std::size_t sums(std::size_t w);

    /** Chain of the means of w-bin windows, each sum / w (w >= 1). */
    std::size_t means(std::size_t w);

    /** Fold every requested chain over v in one time-ordered pass. */
    void run(const std::vector<double> &v);

    /** Moments of chain i (complete after run()). */
    const MeanM2 &operator[](std::size_t i) const { return chains_[i].m; }

  private:
    struct Chain
    {
        std::size_t w;
        /** 1.0 for a sum chain, w for a mean chain. */
        double div;
        MeanM2 m;
    };

    std::size_t chain(std::size_t w, double div);

    std::vector<Chain> chains_;
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_WINDOWFOLD_HH
