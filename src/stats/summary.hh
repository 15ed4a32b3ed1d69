/**
 * @file
 * Single-pass streaming summary statistics.
 *
 * Uses the Welford/Chan updating formulas for a numerically stable
 * mean and variance after one pass over arbitrarily long traces:
 * the first and second moments are all the burstiness method reads
 * (interarrival CV, IDC, the variance-time Hurst estimate).
 * Summaries can be merged, which the fleet uses to combine per-shard
 * summaries into population statistics.
 */

#ifndef DLW_STATS_SUMMARY_HH
#define DLW_STATS_SUMMARY_HH

#include <cstdint>
#include <limits>

namespace dlw
{
namespace stats
{

/**
 * Welford's running mean and m2: the one scalar definition of the
 * step.  Summary::add, the SummaryLanes reference step and
 * WindowFold's chains all fold a value through add().  The count is
 * a whole number carried as a double (exact below 2^53 values).
 */
struct MeanM2
{
    double n = 0.0;
    double mean = 0.0;
    double m2 = 0.0;

    /** Fold one value. */
    void
    add(double x)
    {
        const double n1 = n;
        n = n1 + 1.0;
        const double delta = x - mean;
        const double delta_n = delta / n;
        mean += delta_n;
        m2 += delta * delta_n * n1;
    }

    /** Sample variance (n - 1 in the denominator; 0 when n < 2). */
    double
    sampleVariance() const
    {
        return n < 2.0 ? 0.0 : m2 / (n - 1.0);
    }
};

/**
 * Streaming accumulator of count, mean, variance and extrema.
 */
class Summary
{
  public:
    Summary() = default;

    /**
     * Rebuild a summary from raw accumulator state (count, mean,
     * m2, extrema).  Used by the SIMD layer's SummaryLanes to merge
     * per-lane Welford state through the standard merge(); the
     * caller owns the invariants (m2 consistent with n and mean).
     */
    static Summary fromRaw(std::uint64_t n, double mean, double m2,
                           double min, double max);

    /** Add one observation. */
    void add(double x);

    /** Fold another summary into this one (order-independent). */
    void merge(const Summary &other);

    /** Reset to the empty state. */
    void clear();

    /** Number of observations so far. */
    std::uint64_t count() const { return static_cast<std::uint64_t>(m_.n); }

    /** Sum of all observations. */
    double sum() const { return m_.mean * m_.n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return m_.mean; }

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

    /** Sum of squared deviations from the mean (Welford's m2). */
    double m2() const { return m_.m2; }

    /** Population variance (n in the denominator; 0 when n < 1). */
    double variance() const;

    /** Sample variance (n-1 in the denominator; 0 when n < 2). */
    double sampleVariance() const { return m_.sampleVariance(); }

    /** Population standard deviation. */
    double stddev() const;

    /**
     * Coefficient of variation (stddev / mean).
     *
     * The classic first-order burstiness indicator: 1 for Poisson
     * interarrivals, > 1 for bursty traffic.  Returns 0 when the mean
     * is zero.
     */
    double cv() const;

  private:
    MeanM2 m_;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_SUMMARY_HH
