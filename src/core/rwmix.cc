#include "core/rwmix.hh"

#include <algorithm>
#include <cmath>

#include "common/binenc.hh"
#include "common/logging.hh"
#include "stats/simd/simd.hh"

namespace dlw
{
namespace core
{

namespace
{

/** Fill the distribution fields shared by both granularities. */
void
finishSeriesStats(RwDynamics &d)
{
    double sum = 0.0, sum2 = 0.0;
    std::size_t active = 0, write_dom = 0;
    for (double f : d.read_fraction_series) {
        if (f < 0.0)
            continue;
        ++active;
        sum += f;
        sum2 += f * f;
        if (f < 0.5)
            ++write_dom;
    }
    if (active > 0) {
        const double n = static_cast<double>(active);
        const double mean = sum / n;
        const double var = std::max(sum2 / n - mean * mean, 0.0);
        d.read_fraction_stddev = std::sqrt(var);
        d.write_dominated_fraction = static_cast<double>(write_dom) / n;
    }
}

} // anonymous namespace

RwMixAccumulator::RwMixAccumulator(Tick bin_width)
    : reads_(0, bin_width, 0), all_(0, bin_width, 0)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
    d_.bin_width = bin_width;
}

void
RwMixAccumulator::begin(const trace::MsStreamHeader &meta)
{
    // Pre-size exactly like MsTrace::binCounts().
    const Tick duration = meta.duration;
    const Tick w = d_.bin_width;
    auto bins = static_cast<std::size_t>(
        duration > 0 ? (duration + w - 1) / w : 0);
    reads_ = stats::BinnedSeries(meta.start, w, bins);
    all_ = stats::BinnedSeries(meta.start, w, bins);
}

void
RwMixAccumulator::observe(const trace::RequestBatch &batch)
{
    const std::size_t sz = batch.size();
    if (sz == 0)
        return;
    const Tick *t = batch.arrivalsData();
    const auto *dir =
        reinterpret_cast<const std::uint8_t *>(batch.opsData());
    const auto read_byte =
        static_cast<std::uint8_t>(trace::Op::Read);
    const stats::simd::KernelOps &k = stats::simd::ops();

    // Column folds: the counts are integers, so splitting the
    // original interleaved per-element loop into one pass per series
    // changes no bit of either series.
    n_ += sz;
    read_n_ +=
        static_cast<std::size_t>(k.count_eq_u8(dir, sz, read_byte));
    std::size_t slow = all_.countSorted(t, sz);
    slow += reads_.countSortedIf(t, dir, read_byte, sz);
    noteKernelSlowPath(slow);

    // The direction-run scan carries a loop dependency (each element
    // looks at the previous direction), so it stays per-element;
    // run_len_ == 0 only before the first request, which makes the
    // first iteration open a run no matter what prev_read_ holds.
    for (std::size_t i = 0; i < sz; ++i) {
        const bool is_read = batch.isRead(i);
        if (is_read == prev_read_ && run_len_ > 0) {
            ++run_len_;
        } else {
            if (run_len_ > 0) {
                ++runs_;
                if (!prev_read_) {
                    d_.longest_write_run =
                        std::max(d_.longest_write_run, run_len_);
                    if (run_len_ >= 8)
                        ++d_.write_bursts;
                }
            }
            prev_read_ = is_read;
            run_len_ = 1;
        }
    }
}

void
RwMixAccumulator::finish()
{
    d_.read_fraction =
        n_ > 0 ? static_cast<double>(read_n_) /
                     static_cast<double>(n_)
               : 0.0;

    d_.read_fraction_series.reserve(all_.size());
    for (std::size_t i = 0; i < all_.size(); ++i) {
        const double total = all_.at(i);
        d_.read_fraction_series.push_back(
            total > 0.0 ? reads_.at(i) / total : -1.0);
    }
    finishSeriesStats(d_);

    if (n_ > 0) {
        ++runs_;
        if (!prev_read_) {
            d_.longest_write_run =
                std::max(d_.longest_write_run, run_len_);
            if (run_len_ >= 8)
                ++d_.write_bursts;
        }
        d_.mean_run_length = static_cast<double>(n_) /
                             static_cast<double>(runs_);
    }
}

void
RwMixAccumulator::saveState(BinEnc &enc) const
{
    enc.i64(d_.bin_width);
    reads_.saveState(enc);
    all_.saveState(enc);
    enc.u64(n_);
    enc.u64(read_n_);
    enc.u64(runs_);
    enc.u64(run_len_);
    enc.u8(prev_read_ ? 1 : 0);
}

bool
RwMixAccumulator::loadState(BinDec &dec)
{
    const Tick bin_width = dec.i64();
    if (!dec.ok() || bin_width <= 0)
        return false;
    d_.bin_width = bin_width;
    if (!reads_.loadState(dec) || !all_.loadState(dec))
        return false;
    n_ = static_cast<std::size_t>(dec.u64());
    read_n_ = static_cast<std::size_t>(dec.u64());
    runs_ = static_cast<std::size_t>(dec.u64());
    run_len_ = static_cast<std::size_t>(dec.u64());
    prev_read_ = dec.u8() != 0;
    return dec.ok();
}

RwDynamics
analyzeRwDynamics(const trace::MsTrace &tr, Tick bin_width)
{
    RwMixAccumulator acc(bin_width);
    trace::MsTraceSource src(tr);
    CharacterizationPass pass;
    pass.add(acc);
    pass.run(src);
    return acc.report();
}

RwDynamics
analyzeRwDynamics(const trace::HourTrace &tr)
{
    RwDynamics d;
    d.bin_width = kHour;

    std::uint64_t reads = 0, total = 0;
    d.read_fraction_series.reserve(tr.hours());
    for (const trace::HourBucket &b : tr.buckets()) {
        reads += b.reads;
        total += b.total();
        d.read_fraction_series.push_back(
            b.total() > 0 ? b.readFraction() : -1.0);
    }
    d.read_fraction = total
        ? static_cast<double>(reads) / static_cast<double>(total)
        : 0.0;
    finishSeriesStats(d);
    return d;
}

} // namespace core
} // namespace dlw
