#include "synth/extract.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace synth
{

namespace
{

/** CV above which the ON/OFF structure is fitted. */
constexpr double kBurstyCv = 1.3;

/**
 * Split the interarrival stream into bursts at gaps larger than the
 * think threshold, and estimate the ON/OFF parameters.
 */
void
fitOnOff(const std::vector<double> &gaps, ExtractedModel &m)
{
    dlw_assert(!gaps.empty(), "fitOnOff needs interarrivals");

    // Threshold: well above the typical in-burst gap.  The median is
    // robust to the long OFF tail.
    std::vector<double> sorted = gaps;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double threshold = std::max(10.0 * median,
                                      static_cast<double>(kMsec));

    double on_time = 0.0;
    double off_time = 0.0;
    std::uint64_t bursts = 1;
    std::uint64_t in_burst_arrivals = 1;
    double burst_elapsed = 0.0;

    for (double g : gaps) {
        if (g > threshold) {
            // Burst boundary.
            on_time += burst_elapsed;
            off_time += g;
            ++bursts;
            burst_elapsed = 0.0;
        } else {
            burst_elapsed += g;
            ++in_burst_arrivals;
        }
    }
    on_time += burst_elapsed;

    // Degenerate: one burst only; fall back to Poisson.
    if (bursts < 3 || off_time <= 0.0) {
        m.bursty = false;
        return;
    }

    m.mean_on = static_cast<Tick>(
        std::max(on_time / static_cast<double>(bursts), 1.0));
    m.mean_off = static_cast<Tick>(
        std::max(off_time / static_cast<double>(bursts), 1.0));
    m.burst_rate = on_time > 0.0
        ? static_cast<double>(in_burst_arrivals) /
              (on_time / static_cast<double>(kSec))
        : m.rate;
}

} // anonymous namespace

ModelAccumulator::ModelAccumulator(Lba capacity)
{
    dlw_assert(capacity > 0, "capacity must be positive");
    m_.capacity = capacity;
}

void
ModelAccumulator::begin(const trace::MsStreamHeader &meta)
{
    duration_ = meta.duration;
}

void
ModelAccumulator::observe(const trace::RequestBatch &batch)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Tick arrival = batch.arrival(i);
        const bool is_read = batch.isRead(i);
        const BlockCount blocks = batch.blocks(i);

        ++n_;
        if (is_read)
            ++reads_;
        if (have_prev_) {
            // The one materialization of the gap stream per pass:
            // both the CV and the ON/OFF fit read this vector.
            gaps_.push_back(
                static_cast<double>(arrival - prev_arrival_));
            if (batch.lba(i) == prev_end_)
                ++seq_;
            if (is_read != prev_read_)
                ++changes_;
        }
        log_sizes_.push_back(
            std::log(static_cast<double>(blocks)));
        max_blocks_ = std::max(max_blocks_, blocks);

        prev_arrival_ = arrival;
        prev_end_ = batch.lbaEnd(i);
        prev_read_ = is_read;
        have_prev_ = true;
    }
}

void
ModelAccumulator::finish()
{
    dlw_assert(n_ >= 100,
               "model extraction needs at least 100 requests");

    m_.rate = (n_ == 0 || duration_ <= 0)
        ? 0.0
        : static_cast<double>(n_) / ticksToSeconds(duration_);
    m_.read_fraction = n_ > 0
        ? static_cast<double>(reads_) / static_cast<double>(n_)
        : 0.0;
    m_.sequential_fraction = n_ < 2
        ? 0.0
        : static_cast<double>(seq_) / static_cast<double>(n_ - 1);

    // Interarrival burstiness.
    stats::Summary gap_summary;
    for (double g : gaps_)
        gap_summary.add(g);
    m_.interarrival_cv = gap_summary.cv();
    m_.bursty = m_.interarrival_cv > kBurstyCv;
    if (m_.bursty)
        fitOnOff(gaps_, m_);

    // Direction persistence from the change rate:
    // P(change) = (1 - p) * 2 f (1 - f).
    const double f = m_.read_fraction;
    const double base = 2.0 * f * (1.0 - f);
    if (base > 1e-6) {
        const double p_change =
            static_cast<double>(changes_) /
            static_cast<double>(n_ - 1);
        m_.persistence = std::clamp(1.0 - p_change / base, 0.0, 0.95);
    }

    // Size body: log-space median and sigma.
    std::sort(log_sizes_.begin(), log_sizes_.end());
    const double log_median = log_sizes_[log_sizes_.size() / 2];
    double var = 0.0;
    for (double l : log_sizes_) {
        const double d = l - log_median;
        var += d * d;
    }
    var /= static_cast<double>(log_sizes_.size());
    m_.size_median = static_cast<BlockCount>(
        std::max(std::exp(log_median) + 0.5, 1.0));
    m_.size_sigma = std::sqrt(var);
    m_.size_max = max_blocks_;
}

ExtractedModel
extractModel(const trace::MsTrace &tr, Lba capacity)
{
    ModelAccumulator acc(capacity);
    trace::MsTraceSource src(tr);
    core::CharacterizationPass pass;
    pass.add(acc);
    pass.run(src);
    return acc.model();
}

Workload
ExtractedModel::build() const
{
    dlw_assert(capacity > 0, "model has no capacity");
    dlw_assert(rate > 0.0, "model has no rate");

    Workload w;
    if (bursty && mean_on > 0 && mean_off > 0 && burst_rate > 0.0)
        w.setArrival(std::make_unique<OnOffArrivals>(
            burst_rate, mean_on, mean_off));
    else
        w.setArrival(std::make_unique<PoissonArrivals>(rate));

    if (size_sigma < 0.05) {
        w.setSize(std::make_unique<FixedSize>(size_median));
    } else {
        w.setSize(std::make_unique<LognormalSize>(
            size_median, size_sigma,
            std::max(size_max, size_median)));
    }

    w.setSpatial(std::make_unique<SequentialRuns>(
        capacity,
        std::clamp(sequential_fraction, 0.0, 0.995)));
    w.setMix(std::clamp(read_fraction, 0.0, 1.0), persistence);
    return w;
}

std::string
ExtractedModel::describe() const
{
    std::string s = "rate=" + formatDouble(rate, 1) + "/s";
    if (bursty) {
        s += " on/off(burst=" + formatDouble(burst_rate, 1) +
             "/s, on=" + formatDuration(mean_on) +
             ", off=" + formatDuration(mean_off) + ")";
    } else {
        s += " poisson";
    }
    s += " read=" + formatDouble(100.0 * read_fraction, 1) + "%";
    s += " persist=" + formatDouble(persistence, 2);
    s += " size~" + std::to_string(size_median) + "blk(sigma=" +
         formatDouble(size_sigma, 2) + ")";
    s += " seq=" + formatDouble(100.0 * sequential_fraction, 1) + "%";
    return s;
}

} // namespace synth
} // namespace dlw
