#include "core/burstiness.hh"

#include <algorithm>
#include <future>
#include <optional>

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
              const std::vector<std::size_t> &given)
{
    const std::vector<std::size_t> scales =
        given.empty() ? defaultScales() : given;

    BurstinessReport rep;
    rep.base_bin = counts.binWidth();
    rep.peak_to_mean = counts.peakToMean();

    // Pure functions of the same series, each writing its own fields
    // of the report, so running them at once changes no bit.  The IDC
    // curve and the variance-time estimate share one WindowFold pass.
    const std::vector<double> &v = counts.values();
    auto variance_time = [&rep, &counts, &v, &scales] {
        stats::WindowFold fold;
        const stats::IdcScalesPlan idc(fold, counts, scales);
        std::optional<stats::VarianceTimePlan> var;
        if (v.size() >= 32)
            var.emplace(fold, v.size());
        fold.run(v);
        rep.idc = idc.curve(fold);
        if (var)
            rep.hurst_var = var->estimate(fold);
    };
    auto hurst_rs = [&rep, &v] {
        if (v.size() >= 64)
            rep.hurst_rs = stats::hurstRescaledRange(v);
    };
    auto acf = [&rep, &v] {
        if (v.size() >= 2) {
            rep.acf = stats::autocorrelation(
                v, std::min<std::size_t>(v.size() / 4, 200));
            rep.decorrelation_lag = stats::decorrelationLag(rep.acf, 0.1);
        }
    };
    if (v.size() < kFanOutBins) {
        variance_time();
        hurst_rs();
        acf();
        return rep;
    }
    // The ACF costs about what the other two do together.
    std::future<void> helper = std::async(std::launch::async, acf);
    variance_time();
    hurst_rs();
    helper.get();
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

Status
BurstinessAccumulator::begin(const trace::MsStreamHeader &meta)
{
    // Pre-size the bins exactly like MsTrace::binCounts() does, so
    // the series layout (and thus every downstream figure) matches
    // the whole-trace path bit for bit.
    const StatusOr<std::size_t> bins =
        stats::binsCovering(meta.start, meta.duration, base_bin_);
    if (!bins.ok())
        return bins.status();
    counts_ = stats::BinnedSeries(meta.start, base_bin_, bins.value());
    return Status();
}

void
BurstinessAccumulator::observe(const trace::RequestBatch &batch)
{
    const std::size_t n = batch.size();
    if (n == 0)
        return;
    const Tick *t = batch.arrivalsData();

    // The first-ever arrival has no predecessor, so a stream's gaps
    // start at its second arrival.  Gap j lands in lane j % 4 of
    // gaps_ whatever the batching, so batch shape changes no bit.
    Tick prev = have_prev_ ? prev_arrival_ : t[0];
    for (std::size_t i = 0; i < n; ++i) {
        counts_.accumulateAt(t[i], 1.0);
        if (i > 0 || have_prev_)
            gaps_.add(static_cast<double>(t[i] - prev));
        prev = t[i];
    }
    prev_arrival_ = prev;
    have_prev_ = true;
}

BurstinessReport
BurstinessAccumulator::current() const
{
    BurstinessReport rep = analyzeCounts(counts_, scales_);
    rep.interarrival_cv = gaps_.combined().cv();
    return rep;
}

void
BurstinessAccumulator::finish()
{
    rep_ = current();
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
        n_scales > dec.remaining() / 8)
        return false;
    scales_.resize(static_cast<std::size_t>(n_scales));
    for (std::size_t &s : scales_)
        s = static_cast<std::size_t>(dec.u64());
    // An aggregation factor of 0 would stop finish() on its assert.
    if (std::find(scales_.begin(), scales_.end(), std::size_t{0}) !=
            scales_.end() ||
        !counts_.loadState(dec) || !gaps_.loadState(dec))
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
    return analyzeCounts(counts, scales);
}

} // namespace core
} // namespace dlw
