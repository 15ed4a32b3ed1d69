#include "synth/workload.hh"

#include "common/logging.hh"

namespace dlw
{
namespace synth
{

void
Workload::setArrival(std::unique_ptr<ArrivalProcess> a)
{
    dlw_assert(a, "null arrival process");
    arrival_ = std::move(a);
}

void
Workload::setSize(std::unique_ptr<SizeModel> s)
{
    dlw_assert(s, "null size model");
    size_ = std::move(s);
}

void
Workload::setSpatial(std::unique_ptr<SpatialModel> sp)
{
    dlw_assert(sp, "null spatial model");
    spatial_ = std::move(sp);
}

void
Workload::setMix(double read_fraction, double persistence)
{
    dlw_assert(read_fraction >= 0.0 && read_fraction <= 1.0,
               "read fraction out of range");
    dlw_assert(persistence >= 0.0 && persistence < 1.0,
               "persistence out of range");
    read_fraction_ = read_fraction;
    persistence_ = persistence;
}

trace::MsTrace
Workload::generate(Rng &rng, const std::string &drive_id, Tick start,
                   Tick duration) const
{
    WorkloadSource src = openSource(rng, drive_id, start, duration);
    trace::MsTrace tr;
    trace::drainToTrace(src, tr);
    return tr;
}

trace::MsTrace
Workload::generateFromArrivals(Rng &rng, const std::string &drive_id,
                               Tick start, Tick duration,
                               const std::vector<Tick> &arrivals) const
{
    WorkloadSource src = openSourceFromArrivals(
        rng, drive_id, start, duration, arrivals);
    trace::MsTrace tr;
    trace::drainToTrace(src, tr);
    return tr;
}

WorkloadSource
Workload::openSource(Rng &rng, const std::string &drive_id,
                     Tick start, Tick duration) const
{
    dlw_assert(arrival_, "workload has no arrival process");
    arrival_->reset();
    return openSourceFromArrivals(
        rng, drive_id, start, duration,
        arrival_->generate(rng, start, duration));
}

WorkloadSource
Workload::openSourceFromArrivals(Rng &rng, const std::string &drive_id,
                                 Tick start, Tick duration,
                                 std::vector<Tick> arrivals) const
{
    dlw_assert(size_, "workload has no size model");
    dlw_assert(spatial_, "workload has no spatial model");
    return WorkloadSource(*this, rng, drive_id, start, duration,
                          std::move(arrivals));
}

WorkloadSource::WorkloadSource(const Workload &w, Rng &rng,
                               std::string drive_id, Tick start,
                               Tick duration,
                               std::vector<Tick> arrivals)
    : w_(w),
      rng_(rng),
      drive_id_(std::move(drive_id)),
      start_(start),
      duration_(duration),
      arrivals_(std::move(arrivals))
{
    w_.spatial_->reset();
}

bool
WorkloadSource::next(trace::RequestBatch &batch)
{
    batch.clear();
    while (!batch.full() && pos_ < arrivals_.size()) {
        const Tick at = arrivals_[pos_++];
        dlw_assert(at >= start_ && at < start_ + duration_,
                   "arrival outside window");
        trace::Request r;
        r.arrival = at;
        r.blocks = w_.size_->nextBlocks(rng_);

        bool is_read;
        if (have_prev_ && rng_.bernoulli(w_.persistence_))
            is_read = prev_read_;
        else
            is_read = rng_.bernoulli(w_.read_fraction_);
        prev_read_ = is_read;
        have_prev_ = true;
        r.op = is_read ? trace::Op::Read : trace::Op::Write;

        r.lba = w_.spatial_->nextLba(rng_, r.blocks);
        batch.append(r);
    }
    if (batch.empty())
        return false;
    trace::noteBatchDecoded(batch);
    return true;
}

Workload
Workload::makeOltp(Lba capacity, double rate, std::uint64_t seed)
{
    Workload w;
    // Bursty foreground: a quiet state and a 6x burst state with
    // second-scale sojourns.
    w.setArrival(std::make_unique<MmppArrivals>(
        rate * 0.4, rate * 2.8, 3 * kSec, kSec));
    w.setSize(std::make_unique<FixedSize>(8)); // 4 KiB pages
    w.setSpatial(std::make_unique<ZipfHotspot>(capacity, 1024, 0.9,
                                               seed));
    w.setMix(0.67, 0.3);
    return w;
}

Workload
Workload::makeFileServer(Lba capacity, double rate, std::uint64_t seed)
{
    Workload w;
    // ON/OFF with 30% duty cycle.
    const double burst_rate = rate / 0.3;
    w.setArrival(std::make_unique<OnOffArrivals>(
        burst_rate, 600 * kMsec, 1400 * kMsec));
    w.setSize(std::make_unique<LognormalSize>(16, 1.0, 2048));
    auto runs = std::make_unique<SequentialRuns>(capacity, 0.8);
    auto hot = std::make_unique<ZipfHotspot>(capacity, 512, 0.8, seed);
    w.setSpatial(std::make_unique<MixedSpatial>(std::move(runs),
                                                std::move(hot), 0.5));
    w.setMix(0.6, 0.4);
    return w;
}

Workload
Workload::makeStreaming(Lba capacity, double rate)
{
    Workload w;
    w.setArrival(std::make_unique<PoissonArrivals>(rate));
    w.setSize(std::make_unique<FixedSize>(1024)); // 512 KiB chunks
    w.setSpatial(std::make_unique<SequentialRuns>(capacity, 0.995));
    w.setMix(0.95, 0.8);
    return w;
}

Workload
Workload::makeBackup(Lba capacity, double rate)
{
    Workload w;
    w.setArrival(std::make_unique<OnOffArrivals>(
        rate / 0.5, 5 * kSec, 5 * kSec));
    w.setSize(std::make_unique<FixedSize>(512)); // 256 KiB
    w.setSpatial(std::make_unique<SequentialRuns>(capacity, 0.98));
    w.setMix(0.05, 0.7);
    return w;
}

} // namespace synth
} // namespace dlw
