/**
 * @file
 * Maximum-likelihood fitting of the candidate distributions used to
 * model interarrival times, idle periods, and request sizes.
 *
 * Supported families: exponential, Pareto (type I), lognormal, and
 * Weibull.  Each fit reports its parameters, the log-likelihood, and
 * provides a CDF usable by the Kolmogorov-Smirnov test, so the
 * interarrival-distribution experiment (E5) can rank the families the
 * way the trace-characterization literature does: exponential loses
 * to the heavy-tailed families on bursty traffic.
 */

#ifndef DLW_STATS_FIT_HH
#define DLW_STATS_FIT_HH

#include <functional>
#include <vector>

namespace dlw
{
namespace stats
{

/** Families supported by fitDistribution(). */
enum class DistFamily
{
    Exponential,
    Pareto,
    Lognormal,
    Weibull,
};

/** Human-readable family name. */
const char *distFamilyName(DistFamily family);

/**
 * A fitted distribution: family, parameters, quality, and CDF.
 */
struct FittedDist
{
    DistFamily family = DistFamily::Exponential;
    /**
     * Parameters, family dependent:
     *  Exponential: {mean}
     *  Pareto:      {shape alpha, scale x_m}
     *  Lognormal:   {mu, sigma}
     *  Weibull:     {shape k, scale lambda}
     */
    std::vector<double> params;
    /** Log-likelihood of the data under the fit. */
    double log_likelihood = 0.0;
    /** Number of samples fitted. */
    std::size_t n = 0;

    /** CDF of the fitted distribution at x. */
    double cdf(double x) const;

    /**
     * Akaike information criterion: 2k - 2 log L.
     *
     * Lower is better; the parameter-count penalty keeps a nested
     * two-parameter family (Weibull) from spuriously outranking its
     * one-parameter special case (exponential) on exponential data.
     */
    double aic() const;
};

/**
 * Fit one family to positive-valued samples by maximum likelihood.
 *
 * @param family  Distribution family to fit.
 * @param xs      Samples; non-positive values are rejected.
 * @return The fitted distribution.
 */
FittedDist fitDistribution(DistFamily family,
                           const std::vector<double> &xs);

/**
 * Fit all supported families and sort by ascending AIC (best model
 * first).
 *
 * @param xs Positive samples.
 * @return Fits, best first.
 */
std::vector<FittedDist> fitAll(const std::vector<double> &xs);

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_FIT_HH
