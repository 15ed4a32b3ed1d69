/**
 * @file
 * P-square (P²) streaming quantile estimator.
 *
 * Tracks a single quantile in O(1) memory without retaining samples
 * (Jain & Chlamtac, CACM 1985), for streams too long to keep whole,
 * where an exact Ecdf would be wasteful.  No analysis calls it yet:
 * only its unit tests do.
 */

#ifndef DLW_STATS_QUANTILE_HH
#define DLW_STATS_QUANTILE_HH

#include <array>
#include <cstdint>

namespace dlw
{
namespace stats
{

/**
 * Single-quantile P² estimator.
 */
class P2Quantile
{
  public:
    /** @param q Target quantile in (0, 1). */
    explicit P2Quantile(double q);

    /** Offer one observation. */
    void add(double x);

    /** Number of observations offered so far. */
    std::uint64_t count() const { return n_; }

    /**
     * Current estimate of the target quantile.
     *
     * Exact while fewer than five samples have been seen.
     */
    double value() const;

  private:
    double parabolic(int i, double d) const;
    double linear(int i, double d) const;

    double q_;
    std::uint64_t n_ = 0;
    std::array<double, 5> heights_{};
    std::array<double, 5> positions_{};
    std::array<double, 5> desired_{};
    std::array<double, 5> increments_{};
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_QUANTILE_HH
