#include "core/rwmix.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/binenc.hh"
#include "common/logging.hh"

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
    : bin_width_(bin_width), reads_(0, bin_width, 0),
      all_(0, bin_width, 0)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
}

Status
RwMixAccumulator::begin(const trace::MsStreamHeader &meta)
{
    // Pre-size exactly like MsTrace::binCounts().
    const StatusOr<std::size_t> bins =
        stats::binsCovering(meta.start, meta.duration, bin_width_);
    if (!bins.ok())
        return bins.status();
    reads_ = stats::BinnedSeries(meta.start, bin_width_, bins.value());
    all_ = stats::BinnedSeries(meta.start, bin_width_, bins.value());
    return Status();
}

void
RwMixAccumulator::observe(const trace::RequestBatch &batch)
{
    const std::size_t sz = batch.size();
    const Tick *t = batch.arrivalsData();
    n_ += sz;

    for (std::size_t i = 0; i < sz; ++i) {
        const bool is_read = batch.isRead(i);
        all_.accumulateAt(t[i], 1.0);
        if (is_read) {
            reads_.accumulateAt(t[i], 1.0);
            ++read_n_;
        }

        // The direction-run scan; run_len_ == 0 only before the first
        // request, which makes the first iteration open a run no
        // matter what prev_read_ holds.
        if (is_read == prev_read_ && run_len_ > 0) {
            ++run_len_;
        } else {
            if (run_len_ > 0) {
                ++runs_;
                if (!prev_read_) {
                    longest_write_run_ =
                        std::max(longest_write_run_, run_len_);
                    if (run_len_ >= 8)
                        ++write_bursts_;
                }
            }
            prev_read_ = is_read;
            run_len_ = 1;
        }
    }
}

RwDynamics
RwMixAccumulator::current() const
{
    RwDynamics d;
    d.bin_width = bin_width_;
    d.longest_write_run = longest_write_run_;
    d.write_bursts = write_bursts_;
    d.read_fraction =
        n_ > 0 ? static_cast<double>(read_n_) /
                     static_cast<double>(n_)
               : 0.0;

    // A write past the pre-sized window grows all_ alone: the bins
    // reads_ lacks hold no reads.
    d.read_fraction_series.reserve(all_.size());
    for (std::size_t i = 0; i < all_.size(); ++i) {
        const double total = all_.at(i);
        const double reads = i < reads_.size() ? reads_.at(i) : 0.0;
        d.read_fraction_series.push_back(
            total > 0.0 ? reads / total : -1.0);
    }
    finishSeriesStats(d);

    // The open run closes at the end of the stream.
    if (n_ > 0) {
        if (!prev_read_) {
            d.longest_write_run =
                std::max(d.longest_write_run, run_len_);
            if (run_len_ >= 8)
                ++d.write_bursts;
        }
        d.mean_run_length = static_cast<double>(n_) /
                            static_cast<double>(runs_ + 1);
    }
    return d;
}

void
RwMixAccumulator::finish()
{
    d_ = current();
}

void
RwMixAccumulator::saveState(BinEnc &enc) const
{
    enc.i64(bin_width_);
    reads_.saveState(enc);
    all_.saveState(enc);
    enc.u64(n_);
    enc.u64(read_n_);
    enc.u64(runs_);
    enc.u64(run_len_);
    enc.u64(longest_write_run_);
    enc.u64(write_bursts_);
    enc.u8(prev_read_ ? 1 : 0);
}

bool
RwMixAccumulator::loadState(BinDec &dec)
{
    const Tick bin_width = dec.i64();
    if (!dec.ok() || bin_width <= 0)
        return false;
    bin_width_ = bin_width;
    if (!reads_.loadState(dec) || !all_.loadState(dec))
        return false;
    // begin() lays both series out alike and only a read grows reads_,
    // so reads_ is never longer than all_: a blob whose series differ
    // otherwise is garbled.
    if (reads_.start() != all_.start() ||
        reads_.binWidth() != bin_width || all_.binWidth() != bin_width ||
        reads_.size() > all_.size())
        return false;
    n_ = static_cast<std::size_t>(dec.u64());
    read_n_ = static_cast<std::size_t>(dec.u64());
    runs_ = static_cast<std::size_t>(dec.u64());
    run_len_ = static_cast<std::size_t>(dec.u64());
    longest_write_run_ = static_cast<std::size_t>(dec.u64());
    write_bursts_ = static_cast<std::size_t>(dec.u64());
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
