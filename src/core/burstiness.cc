#include "core/burstiness.hh"

#include <algorithm>

#include "common/binenc.hh"
#include "common/logging.hh"
#include "stats/acf.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace core
{

bool
BurstinessReport::burstyAcrossScales(double growth_factor) const
{
    if (idc.size() < 2)
        return false;
    const double first = idc.front().idc;
    const double last = idc.back().idc;
    if (first <= 0.0)
        return false;
    return last / first >= growth_factor;
}

namespace
{

std::vector<std::size_t>
defaultScales()
{
    // Powers of four: with a 10 ms base this spans 10 ms .. ~11 min.
    return {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536};
}

BurstinessReport
analyzeCounts(const stats::BinnedSeries &counts,
              std::vector<std::size_t> scales)
{
    if (scales.empty())
        scales = defaultScales();

    BurstinessReport rep;
    rep.base_bin = counts.binWidth();
    rep.peak_to_mean = counts.peakToMean();
    rep.idc = stats::idcAcrossScales(counts, scales);

    const std::vector<double> &v = counts.values();
    if (v.size() >= 32)
        rep.hurst_var = stats::hurstAggregatedVariance(v);
    if (v.size() >= 64)
        rep.hurst_rs = stats::hurstRescaledRange(v);
    if (v.size() >= 2) {
        rep.acf = stats::autocorrelation(
            v, std::min<std::size_t>(v.size() / 4, 200));
        rep.decorrelation_lag = stats::decorrelationLag(rep.acf, 0.1);
    }
    return rep;
}

} // anonymous namespace

BurstinessAccumulator::BurstinessAccumulator(
    Tick base_bin, std::vector<std::size_t> scales)
    : base_bin_(base_bin), scales_(std::move(scales)),
      counts_(0, base_bin, 0)
{
    dlw_assert(base_bin > 0, "base bin must be positive");
}

void
BurstinessAccumulator::begin(const trace::MsStreamHeader &meta)
{
    // Pre-size the bins exactly like MsTrace::binCounts() does, so
    // the series layout (and thus every downstream figure) matches
    // the whole-trace path bit for bit.
    const Tick duration = meta.duration;
    auto bins = static_cast<std::size_t>(
        duration > 0 ? (duration + base_bin_ - 1) / base_bin_ : 0);
    counts_ = stats::BinnedSeries(meta.start, base_bin_, bins);
}

void
BurstinessAccumulator::observe(const trace::RequestBatch &batch)
{
    const std::size_t n = batch.size();
    if (n == 0)
        return;
    const Tick *t = batch.arrivalsData();

    noteKernelSlowPath(counts_.countSorted(t, n));

    // Gap fold: the first-ever arrival has no predecessor, so a
    // stream that starts mid-batch folds n - 1 gaps anchored at t[0].
    // Lane membership inside gaps_ tracks the global gap index, so
    // the result is identical no matter how arrivals were batched.
    if (gap_scratch_.size() < n)
        gap_scratch_.resize(n);
    const stats::simd::KernelOps &k = stats::simd::ops();
    std::size_t g = 0;
    if (have_prev_) {
        k.gaps_i64(t, n, prev_arrival_, gap_scratch_.data());
        g = n;
    } else if (n > 1) {
        k.gaps_i64(t + 1, n - 1, t[0], gap_scratch_.data());
        g = n - 1;
    }
    if (g > 0)
        gaps_.addBatch(gap_scratch_.data(), g);

    prev_arrival_ = t[n - 1];
    have_prev_ = true;
}

void
BurstinessAccumulator::finish()
{
    rep_ = analyzeCounts(counts_, std::move(scales_));
    rep_.interarrival_cv = gaps_.combined().cv();
}

void
BurstinessAccumulator::saveState(BinEnc &enc) const
{
    enc.i64(base_bin_);
    enc.u64(scales_.size());
    for (std::size_t s : scales_)
        enc.u64(s);
    counts_.saveState(enc);
    gaps_.saveState(enc);
    enc.i64(prev_arrival_);
    enc.u8(have_prev_ ? 1 : 0);
}

bool
BurstinessAccumulator::loadState(BinDec &dec)
{
    base_bin_ = dec.i64();
    const std::uint64_t n_scales = dec.u64();
    if (!dec.ok() || base_bin_ <= 0 ||
        n_scales * 8 > dec.remaining())
        return false;
    scales_.resize(static_cast<std::size_t>(n_scales));
    for (std::size_t &s : scales_)
        s = static_cast<std::size_t>(dec.u64());
    if (!counts_.loadState(dec) || !gaps_.loadState(dec))
        return false;
    prev_arrival_ = dec.i64();
    have_prev_ = dec.u8() != 0;
    return dec.ok();
}

BurstinessReport
analyzeBurstiness(const trace::MsTrace &tr, Tick base_bin,
                  std::vector<std::size_t> scales)
{
    BurstinessAccumulator acc(base_bin, std::move(scales));
    trace::MsTraceSource src(tr);
    CharacterizationPass pass;
    pass.add(acc);
    pass.run(src);
    return acc.report();
}

BurstinessReport
analyzeCountSeries(const stats::BinnedSeries &counts,
                   std::vector<std::size_t> scales)
{
    return analyzeCounts(counts, std::move(scales));
}

} // namespace core
} // namespace dlw
