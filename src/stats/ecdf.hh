/**
 * @file
 * Exact empirical distribution function over a retained sample.
 *
 * Retains all samples, sorts lazily, and answers quantile and CDF
 * curve queries exactly: the tool of choice for the per-figure CDF
 * plots where sample counts are modest (10^5 - 10^7).
 */

#ifndef DLW_STATS_ECDF_HH
#define DLW_STATS_ECDF_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace dlw
{
namespace stats
{

/**
 * Empirical CDF over every observation.
 */
class Ecdf
{
  public:
    Ecdf() = default;

    /** An ECDF over every element of `sample`. */
    explicit Ecdf(std::vector<double> sample)
        : data_(std::move(sample)), sorted_(false)
    {
    }

    /** Add one observation. */
    void add(double x);

    /** Number of observations. */
    std::size_t count() const { return data_.size(); }

    /** True when no observation has been added. */
    bool empty() const { return data_.empty(); }

    /**
     * Exact sample quantile (linear interpolation, type 7).
     *
     * @param q Quantile in [0, 1].
     */
    double quantile(double q) const;

    /** Median shorthand. */
    double median() const { return quantile(0.5); }

    /**
     * Evaluate the CDF at n evenly spaced quantile points.
     *
     * @param n Number of points (>= 2).
     * @return Pairs (value, cumulative probability) suitable for a
     *         CDF plot of this sample.
     */
    std::vector<std::pair<double, double>> curve(std::size_t n) const;

    /** Sorted copy of the samples. */
    std::vector<double> sorted() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> data_;
    mutable bool sorted_ = true;
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_ECDF_HH
