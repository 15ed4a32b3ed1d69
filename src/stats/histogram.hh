/**
 * @file
 * Log-spaced histogram for trace-scale data: the right tool for
 * quantities spanning many orders of magnitude (interarrival times,
 * idle intervals, response times), which is most of what a disk
 * trace contains.  Supports quantile interpolation and merging (for
 * per-drive to family roll-ups).
 */

#ifndef DLW_STATS_HISTOGRAM_HH
#define DLW_STATS_HISTOGRAM_HH

#include <cstddef>
#include <vector>

namespace dlw
{
namespace stats
{

/**
 * Log-spaced histogram covering [lo, hi) with a fixed number of bins
 * per decade.
 */
class LogHistogram
{
  public:
    /**
     * @param lo             Positive lower edge of the first bin.
     * @param hi             Upper edge; must exceed lo.
     * @param bins_per_decade Resolution (>= 1).
     */
    LogHistogram(double lo, double hi, std::size_t bins_per_decade);

    /** Record one observation (values <= 0 count as underflow). */
    void add(double x);

    /** Record an observation with fractional weight. */
    void addWeighted(double x, double weight);

    /** Merge a histogram with identical layout. */
    void merge(const LogHistogram &other);

    /** Total recorded weight. */
    double total() const { return total_; }

    /** Weight below lo (including non-positive samples). */
    double underflow() const { return underflow_; }

    /** Weight at or above hi. */
    double overflow() const { return overflow_; }

    /** Number of regular bins. */
    std::size_t binCount() const { return counts_.size(); }

    /** Weight in regular bin i. */
    double binWeight(std::size_t i) const;

    /** Inclusive (geometric) lower edge of bin i. */
    double binLower(std::size_t i) const;

    /** Exclusive upper edge of bin i. */
    double binUpper(std::size_t i) const;

    /** Interpolated quantile (log-linear within a bin). */
    double quantile(double q) const;

  private:
    double log_lo_;
    double log_width_;
    double inv_log_width_; // == bins_per_decade, used by the bin map
    double lo_;
    double hi_;
    double total_ = 0.0;
    double underflow_ = 0.0;
    double overflow_ = 0.0;
    std::vector<double> counts_;
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_HISTOGRAM_HH
