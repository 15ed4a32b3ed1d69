#include "stats/dispersion.hh"

#include "common/logging.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace stats
{

namespace
{

/** Var/Mean of the values folded into `s` (0 when the mean is 0). */
double
idcOf(const Summary &s)
{
    if (s.count() == 0 || s.mean() == 0.0)
        return 0.0;
    return s.sampleVariance() / s.mean();
}

} // anonymous namespace

double
indexOfDispersion(const std::vector<double> &counts)
{
    Summary s;
    for (double c : counts)
        s.add(c);
    return idcOf(s);
}

std::vector<IdcPoint>
idcAcrossScales(const BinnedSeries &base,
                const std::vector<std::size_t> &factors,
                std::size_t min_windows)
{
    // Reads the base values in place: at f > 1 each window is summed
    // exactly as BinnedSeries::aggregate() sums it, so no scale
    // copies the series.
    const std::vector<double> &v = base.values();
    std::vector<IdcPoint> out;
    out.reserve(factors.size());
    for (std::size_t f : factors) {
        dlw_assert(f >= 1, "aggregation factor must be >= 1");
        // Whole windows only: a trailing partial window covers less
        // time than the rest and would masquerade as huge variance.
        const std::size_t windows = v.size() / f;
        if (windows < min_windows)
            continue;
        Summary s;
        if (f == 1) {
            for (std::size_t i = 0; i < windows; ++i)
                s.add(v[i]);
        } else {
            for (std::size_t i = 0; i < windows * f; i += f) {
                double sum = 0.0;
                for (std::size_t j = i; j < i + f; ++j)
                    sum += v[j];
                s.add(sum);
            }
        }
        IdcPoint p;
        p.window = base.binWidth() * static_cast<Tick>(f);
        p.idc = idcOf(s);
        p.windows = windows;
        out.push_back(p);
    }
    return out;
}

} // namespace stats
} // namespace dlw
