/**
 * @file
 * Kolmogorov-Smirnov goodness-of-fit test of data against a fitted
 * CDF.  The p-value uses the asymptotic Kolmogorov distribution, which is
 * accurate for the sample sizes a trace analysis produces.
 */

#ifndef DLW_STATS_KSTEST_HH
#define DLW_STATS_KSTEST_HH

#include <functional>
#include <vector>

namespace dlw
{
namespace stats
{

/**
 * Result of a Kolmogorov-Smirnov test.
 */
struct KsResult
{
    /** Supremum distance between the two distribution functions. */
    double statistic = 0.0;
    /** Asymptotic p-value of the null "same distribution". */
    double p_value = 0.0;
    /** Effective sample size used for the p-value. */
    double effective_n = 0.0;
};

/**
 * One-sample K-S test of data against a theoretical CDF.
 *
 * @param xs  Samples (any order; copied and sorted internally).
 * @param cdf The hypothesized distribution function.
 * @return Statistic and p-value.
 */
KsResult ksOneSample(const std::vector<double> &xs,
                     const std::function<double(double)> &cdf);

/**
 * Asymptotic Kolmogorov distribution survival function.
 *
 * @param t Scaled statistic sqrt(n) * D.
 * @return P(K > t).
 */
double kolmogorovSurvival(double t);

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_KSTEST_HH
