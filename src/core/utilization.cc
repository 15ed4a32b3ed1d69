#include "core/utilization.hh"

#include <algorithm>

#include "common/logging.hh"
#include "stats/ecdf.hh"

namespace dlw
{
namespace core
{

namespace
{

/** The profile of a per-bin utilization series, which it keeps. */
UtilizationProfile
profileOf(std::vector<double> series, Tick bin_width)
{
    UtilizationProfile p;
    p.bin_width = bin_width;
    if (series.empty())
        return p;
    double sum = 0.0;
    std::size_t idle = 0;
    std::size_t saturated = 0;
    for (const double u : series) {
        dlw_assert(u >= -1e-9 && u <= 1.0 + 1e-9,
                   "utilization outside [0, 1]");
        sum += u;
        if (u <= 0.0)
            ++idle;
        if (u >= 0.9)
            ++saturated;
        p.peak = std::max(p.peak, u);
    }
    const double n = static_cast<double>(series.size());
    p.mean = sum / n;
    const stats::Ecdf ecdf(series);
    p.median = ecdf.median();
    p.p95 = ecdf.quantile(0.95);
    p.idle_fraction = static_cast<double>(idle) / n;
    p.saturated_fraction = static_cast<double>(saturated) / n;
    p.series = std::move(series);
    return p;
}

} // anonymous namespace

UtilizationProfile
utilizationProfile(stats::BinnedSeries utilization)
{
    const Tick bin_width = utilization.binWidth();
    std::vector<double> v = std::move(utilization).values();
    // Clip FP residue from interval splitting.
    for (double &x : v)
        x = std::clamp(x, 0.0, 1.0);
    return profileOf(std::move(v), bin_width);
}

UtilizationProfile
utilizationProfile(const disk::ServiceLog &log, Tick bin_width)
{
    return utilizationProfile(log.utilizationSeries(bin_width));
}

UtilizationProfile
utilizationProfile(const trace::HourTrace &trace)
{
    std::vector<double> v;
    v.reserve(trace.hours());
    for (const trace::HourBucket &b : trace.buckets())
        v.push_back(std::clamp(b.utilization(), 0.0, 1.0));
    return profileOf(std::move(v), kHour);
}

} // namespace core
} // namespace dlw
