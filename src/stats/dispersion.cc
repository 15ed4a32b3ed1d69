#include "stats/dispersion.hh"

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

namespace
{

/** Var/Mean of the values folded into `s` (0 when the mean is 0). */
double
idcOf(const MeanM2 &s)
{
    if (s.n == 0.0 || s.mean == 0.0)
        return 0.0;
    return s.sampleVariance() / s.mean;
}

} // anonymous namespace

double
indexOfDispersion(const std::vector<double> &counts)
{
    MeanM2 s;
    for (double c : counts)
        s.add(c);
    return idcOf(s);
}

IdcScalesPlan::IdcScalesPlan(WindowFold &fold, const BinnedSeries &base,
                             const std::vector<std::size_t> &factors,
                             std::size_t min_windows)
{
    points_.reserve(factors.size());
    for (std::size_t f : factors) {
        dlw_assert(f >= 1, "aggregation factor must be >= 1");
        // Whole windows only: a trailing partial window covers less
        // time than the rest and would masquerade as huge variance.
        const std::size_t windows = base.size() / f;
        if (windows < min_windows)
            continue;
        IdcPoint p;
        p.window = base.binWidth() * static_cast<Tick>(f);
        p.windows = windows;
        points_.push_back(p);
        chains_.push_back(fold.sums(f));
    }
}

std::vector<IdcPoint>
IdcScalesPlan::curve(const WindowFold &fold) const
{
    std::vector<IdcPoint> out = points_;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].idc = idcOf(fold[chains_[i]]);
    return out;
}

std::vector<IdcPoint>
idcAcrossScales(const BinnedSeries &base,
                const std::vector<std::size_t> &factors,
                std::size_t min_windows)
{
    WindowFold fold;
    const IdcScalesPlan plan(fold, base, factors, min_windows);
    fold.run(base.values());
    return plan.curve(fold);
}

} // namespace stats
} // namespace dlw
