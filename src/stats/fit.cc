#include "stats/fit.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

const char *
distFamilyName(DistFamily family)
{
    switch (family) {
      case DistFamily::Exponential:
        return "exponential";
      case DistFamily::Pareto:
        return "pareto";
      case DistFamily::Lognormal:
        return "lognormal";
      case DistFamily::Weibull:
        return "weibull";
    }
    return "unknown";
}

double
FittedDist::cdf(double x) const
{
    switch (family) {
      case DistFamily::Exponential: {
        const double mean = params[0];
        if (x <= 0.0)
            return 0.0;
        return 1.0 - std::exp(-x / mean);
      }
      case DistFamily::Pareto: {
        const double alpha = params[0];
        const double xm = params[1];
        if (x <= xm)
            return 0.0;
        return 1.0 - std::pow(xm / x, alpha);
      }
      case DistFamily::Lognormal: {
        const double mu = params[0];
        const double sigma = params[1];
        if (x <= 0.0)
            return 0.0;
        return 0.5 * std::erfc(-(std::log(x) - mu) /
                               (sigma * std::sqrt(2.0)));
      }
      case DistFamily::Weibull: {
        const double k = params[0];
        const double lambda = params[1];
        if (x <= 0.0)
            return 0.0;
        return 1.0 - std::exp(-std::pow(x / lambda, k));
      }
    }
    return 0.0;
}

double
FittedDist::aic() const
{
    return 2.0 * static_cast<double>(params.size()) -
           2.0 * log_likelihood;
}

namespace
{

void
requirePositive(const std::vector<double> &xs)
{
    dlw_assert(!xs.empty(), "cannot fit an empty sample");
    for (double x : xs)
        dlw_assert(x > 0.0, "distribution fitting requires positive data");
}

FittedDist
fitExponential(const std::vector<double> &xs)
{
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());

    FittedDist f;
    f.family = DistFamily::Exponential;
    f.params = {mean};
    f.n = xs.size();
    double ll = 0.0;
    for (double x : xs)
        ll += -std::log(mean) - x / mean;
    f.log_likelihood = ll;
    return f;
}

FittedDist
fitPareto(const std::vector<double> &xs)
{
    double xm = *std::min_element(xs.begin(), xs.end());
    double s = 0.0;
    for (double x : xs)
        s += std::log(x / xm);
    // MLE alpha = n / sum log(x/xm); degenerate when all samples equal.
    double alpha = s > 0.0
        ? static_cast<double>(xs.size()) / s
        : 1e6;

    FittedDist f;
    f.family = DistFamily::Pareto;
    f.params = {alpha, xm};
    f.n = xs.size();
    double ll = 0.0;
    for (double x : xs) {
        ll += std::log(alpha) + alpha * std::log(xm) -
              (alpha + 1.0) * std::log(x);
    }
    f.log_likelihood = ll;
    return f;
}

FittedDist
fitLognormal(const std::vector<double> &xs)
{
    double mu = 0.0;
    for (double x : xs)
        mu += std::log(x);
    mu /= static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs) {
        const double d = std::log(x) - mu;
        var += d * d;
    }
    var /= static_cast<double>(xs.size());
    double sigma = std::sqrt(std::max(var, 1e-300));

    FittedDist f;
    f.family = DistFamily::Lognormal;
    f.params = {mu, sigma};
    f.n = xs.size();
    const double log_norm = std::log(sigma * std::sqrt(2.0 * M_PI));
    double ll = 0.0;
    for (double x : xs) {
        const double lx = std::log(x);
        const double z = (lx - mu) / sigma;
        ll += -lx - log_norm - 0.5 * z * z;
    }
    f.log_likelihood = ll;
    return f;
}

FittedDist
fitWeibull(const std::vector<double> &xs)
{
    // Newton iteration on the profile-likelihood equation for the
    // shape k; the scale has a closed form given k.
    const double n = static_cast<double>(xs.size());
    double sum_log = 0.0;
    for (double x : xs)
        sum_log += std::log(x);
    const double mean_log = sum_log / n;

    double k = 1.0;
    for (int iter = 0; iter < 100; ++iter) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0;
        for (double x : xs) {
            const double xk = std::pow(x, k);
            const double lx = std::log(x);
            s0 += xk;
            s1 += xk * lx;
            s2 += xk * lx * lx;
        }
        const double g = s1 / s0 - 1.0 / k - mean_log;
        const double gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
        if (gp == 0.0)
            break;
        const double k_next = k - g / gp;
        if (!(k_next > 0.0))
            break;
        if (std::fabs(k_next - k) < 1e-10 * k) {
            k = k_next;
            break;
        }
        k = k_next;
    }

    double s0 = 0.0;
    for (double x : xs)
        s0 += std::pow(x, k);
    const double lambda = std::pow(s0 / n, 1.0 / k);

    FittedDist f;
    f.family = DistFamily::Weibull;
    f.params = {k, lambda};
    f.n = xs.size();
    double ll = 0.0;
    for (double x : xs) {
        ll += std::log(k / lambda) +
              (k - 1.0) * std::log(x / lambda) -
              std::pow(x / lambda, k);
    }
    f.log_likelihood = ll;
    return f;
}

} // anonymous namespace

FittedDist
fitDistribution(DistFamily family, const std::vector<double> &xs)
{
    requirePositive(xs);
    switch (family) {
      case DistFamily::Exponential:
        return fitExponential(xs);
      case DistFamily::Pareto:
        return fitPareto(xs);
      case DistFamily::Lognormal:
        return fitLognormal(xs);
      case DistFamily::Weibull:
        return fitWeibull(xs);
    }
    dlw_panic("unknown distribution family");
}

std::vector<FittedDist>
fitAll(const std::vector<double> &xs)
{
    std::vector<FittedDist> fits;
    fits.push_back(fitDistribution(DistFamily::Exponential, xs));
    fits.push_back(fitDistribution(DistFamily::Pareto, xs));
    fits.push_back(fitDistribution(DistFamily::Lognormal, xs));
    fits.push_back(fitDistribution(DistFamily::Weibull, xs));
    std::sort(fits.begin(), fits.end(),
              [](const FittedDist &a, const FittedDist &b) {
                  return a.aic() < b.aic();
              });
    return fits;
}

} // namespace stats
} // namespace dlw
