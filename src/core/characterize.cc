#include "core/characterize.hh"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/live.hh"
#include "core/pass.hh"
#include "core/prefetch.hh"
#include "core/report.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace dlw
{
namespace core
{

namespace
{

/** Stats-kernel invocation counts for the characterization layer. */
struct CoreMetrics
{
    obs::Counter &ms_runs = obs::counter("core.characterizations",
        "drives", "core",
        "full millisecond-scale drive characterizations");
    obs::Counter &hour_scales = obs::counter("core.hour_scales",
        "drives", "core",
        "hour-scale views folded into a characterization");
    obs::Counter &lifetime_scales = obs::counter("core.lifetime_scales",
        "drives", "core",
        "lifetime-scale views folded into a characterization");
};

CoreMetrics &
coreMetrics()
{
    static CoreMetrics *m = new CoreMetrics();
    return *m;
}

/**
 * Folds each batch its consumer pulls from `src` into a
 * LiveCharacterization first; a batch failing the order check ends
 * the stream with that InvalidArgument, and one holding a request
 * past `capacity` blocks ends it with CorruptData, unseen by the
 * consumer either way.  A header whose window cannot be binned ends
 * the stream before its first batch.
 */
class LiveTee final : public trace::RequestSource
{
  public:
    explicit LiveTee(trace::RequestSource &src,
                     Lba capacity = std::numeric_limits<Lba>::max())
        : src_(src), live_(src.header()), capacity_(capacity),
          check_(live_.status())
    {
        notePassRun(LiveCharacterization::kAccumulators);
    }

    const std::string &driveId() const override { return src_.driveId(); }

    Tick start() const override { return src_.start(); }

    Tick duration() const override { return src_.duration(); }

    bool
    next(trace::RequestBatch &batch) override
    {
        if (!check_.ok() || !src_.next(batch))
            return false;
        notePassBatch();
        check_ = live_.observe(batch);
        if (check_.ok())
            check_ = checkCapacity(batch);
        offset_ += batch.size();
        return check_.ok();
    }

    Status
    status() const override
    {
        return check_.ok() ? src_.status() : check_;
    }

    /** The trace-derived characterization of every batch let through. */
    DriveCharacterization finish() { return live_.finish(); }

  private:
    Status
    checkCapacity(const trace::RequestBatch &batch) const
    {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            // Untrusted input: compare without overflowing lba + blocks.
            if (batch.lba(i) > capacity_ ||
                batch.blocks(i) > capacity_ - batch.lba(i)) {
                return Status::corruptData(
                    "request beyond drive capacity at stream offset " +
                    std::to_string(offset_ + i));
            }
        }
        return Status();
    }

    trace::RequestSource &src_;
    LiveCharacterization live_;
    Lba capacity_;
    std::uint64_t offset_ = 0; ///< requests before the current batch
    Status check_;
};

/**
 * The busy-interval half of a service log's figures, folded as each
 * interval closes: utilization at 1 s and 1 min, and the idle
 * structure.  addBusyProfile() replays a log's intervals through it;
 * serviceAndCharacterize() feeds it from the drive, so no busy list
 * is ever held.
 */
class BusyProfileFold
{
  public:
    /** Window as far as known before the run; it may still grow. */
    BusyProfileFold(Tick window_start, Tick window_end)
        : util_1s_(window_start, window_end, kSec),
          util_1min_(window_start, window_end, kMinute),
          idle_(window_start, kSec)
    {
    }

    /** One closed busy interval, in time order. */
    void
    add(const trace::BusyInterval &iv)
    {
        util_1s_.add(iv);
        util_1min_.add(iv);
        idle_.add(iv);
    }

    /**
     * Fill the busy half of `c` over the run's final window.  Counts
     * one full millisecond-scale characterization.
     */
    void
    finish(DriveCharacterization &c, Tick window_end)
    {
        coreMetrics().ms_runs.add(1);
        {
            obs::ScopedSpan stage("utilization");
            c.util_1s = utilizationProfile(
                std::move(util_1s_).utilization(window_end));
            c.util_1min = utilizationProfile(
                std::move(util_1min_).utilization(window_end));
        }
        {
            obs::ScopedSpan stage("idleness");
            const IdleFigures idle = idle_.finish(window_end);
            c.idle_fraction = idle.fraction;
            c.mean_idle_interval = idle.mean_interval;
            c.idle_mass_1s = idle.mass_at_least;
        }
    }

  private:
    disk::BusyBins util_1s_;
    disk::BusyBins util_1min_;
    IdleFold idle_;
};

/** BusyProfileFold over a whole service log. */
void
addBusyProfile(DriveCharacterization &c, const disk::ServiceLog &log)
{
    BusyProfileFold fold(log.window_start, log.window_end);
    for (const trace::BusyInterval &iv : log.busy)
        fold.add(iv);
    fold.finish(c, log.window_end);
}

/**
 * What serviceAndCharacterize() keeps of a drive run: the response
 * times, and the busy profile folded as each interval closes.
 */
class CharacterizingSink final : public disk::CompletionSink
{
  public:
    explicit CharacterizingSink(const trace::RequestSource &src)
        : busy(src.start(), src.end())
    {
    }

    void
    onCompletion(const disk::Completion &c) override
    {
        responses.add(c.response());
    }

    bool
    onBusyInterval(const trace::BusyInterval &iv) override
    {
        busy.add(iv);
        return true;
    }

    disk::ResponseTicks responses;
    BusyProfileFold busy;
};

/**
 * The response half: mean, p95 and p99 of the response times, given
 * in completion order (the mean's sum order).  Selects in place, so
 * `responses` is left permuted.
 */
void
addResponses(DriveCharacterization &c, disk::ResponseTicks &responses)
{
    c.mean_response_ms =
        responses.mean() / static_cast<double>(kMsec);
    if (responses.size() > 0) {
        c.p95_response_ms =
            static_cast<double>(responses.selectQuantile(0.95)) /
            static_cast<double>(kMsec);
        // p99 sits in the upper partition p95's selection left.
        const std::size_t idx95 =
            disk::responseQuantileIndex(responses.size(), 0.95);
        c.p99_response_ms =
            static_cast<double>(responses.selectQuantile(0.99, idx95)) /
            static_cast<double>(kMsec);
    }
}

} // anonymous namespace

void
registerCoreMetrics()
{
    coreMetrics();
}

StatusOr<DriveCharacterization>
characterizeTrace(trace::RequestSource &src, std::size_t batch_requests)
{
    obs::ScopedSpan span("trace-pass");
    LiveTee tee(src);
    trace::RequestBatch batch(batch_requests);
    while (tee.next(batch)) {
    }
    const Status st = tee.status();
    if (!st.ok())
        return st;
    return tee.finish();
}

StatusOr<DriveCharacterization>
serviceAndCharacterize(disk::DiskDrive &drive, trace::RequestSource &src,
                       std::size_t batch_requests)
{
    LiveTee tee(src, drive.config().geometry.capacityBlocks());
    // A window the tee cannot bin ends the run before the sink sizes
    // its bins to it.
    if (!tee.status().ok())
        return tee.status();
    DriveCharacterization c;
    // The tee runs on a producer thread a few slots ahead of the
    // drive, and finishes the fold while the drive works through the
    // last slots.
    PrefetchSource ahead(tee, batch_requests, [&tee, &c] {
        obs::ScopedSpan span("live-finish");
        c = tee.finish();
    });
    // Only response times and the folded busy profile outlive the
    // drive run: neither the completion log nor the busy intervals
    // are materialized.
    CharacterizingSink sink(tee);
    disk::ServiceLog log;
    try {
        obs::ScopedSpan stage("service");
        log = drive.service(ahead, &sink, ahead.slotCapacity());
    } catch (const StatusError &e) {
        // The drive surfaces the tee's failed status as a throw.
        return e.status();
    }
    obs::ScopedSpan span("characterize");
    DriveCharacterization tail;
    sink.busy.finish(tail, log.window_end);
    addResponses(tail, sink.responses);
    ahead.join();
    // The producer's fold and the service log fill disjoint fields.
    c.util_1s = std::move(tail.util_1s);
    c.util_1min = std::move(tail.util_1min);
    c.idle_fraction = tail.idle_fraction;
    c.mean_idle_interval = tail.mean_idle_interval;
    c.idle_mass_1s = tail.idle_mass_1s;
    c.mean_response_ms = tail.mean_response_ms;
    c.p95_response_ms = tail.p95_response_ms;
    c.p99_response_ms = tail.p99_response_ms;
    return c;
}

void
addServiceLog(DriveCharacterization &c, const disk::ServiceLog &log)
{
    addBusyProfile(c, log);
    disk::ResponseTicks responses = log.responseTimes();
    addResponses(c, responses);
}

DriveCharacterization
characterizeMs(trace::RequestSource &src, const disk::ServiceLog &log)
{
    obs::ScopedSpan span("characterize");
    DriveCharacterization c = characterizeTrace(src).valueOrThrow();
    addServiceLog(c, log);
    return c;
}

DriveCharacterization
characterizeMs(const trace::MsTrace &tr, const disk::ServiceLog &log)
{
    trace::MsTraceSource src(tr);
    return characterizeMs(src, log);
}

void
addHourScale(DriveCharacterization &c, const trace::HourTrace &tr)
{
    coreMetrics().hour_scales.add(1);
    c.util_hour = utilizationProfile(tr);
    // Hour counts per bin; burstiness across day/week scales.
    c.hour_burstiness = analyzeCountSeries(tr.requestSeries(),
                                           {1, 2, 4, 8, 24, 168});
    c.hour_rw = analyzeRwDynamics(tr);
    c.idle_hour_fraction = tr.idleHourFraction();
    c.longest_saturated_hours = tr.longestBusyRun(0.9);
}

void
addLifetimeScale(DriveCharacterization &c,
                 const trace::LifetimeRecord &rec)
{
    coreMetrics().lifetime_scales.add(1);
    c.lifetime_utilization = rec.utilization();
    c.lifetime_read_fraction = rec.readFraction();
    c.lifetime_requests = rec.total();
}

std::string
DriveCharacterization::render() const
{
    std::ostringstream os;
    Table t("drive " + drive_id + " - multi-scale characterization",
            {"metric", "value"});

    auto opt_row = [&t](const char *name, const auto &opt,
                        auto &&fmt) {
        if (opt)
            t.addRow({name, fmt(*opt)});
    };
    auto num = [](double v) { return cell(v); };

    opt_row("arrival rate (req/s)", arrival_rate, num);
    opt_row("read fraction", read_fraction, num);
    opt_row("mean response (ms)", mean_response_ms, num);
    opt_row("p95 response (ms)", p95_response_ms, num);
    opt_row("p99 response (ms)", p99_response_ms, num);
    if (util_1s) {
        t.addRow({"utilization mean", cell(util_1s->mean)});
        t.addRow({"utilization peak @1s", cell(util_1s->peak)});
    }
    if (util_1min)
        t.addRow({"utilization peak @1min", cell(util_1min->peak)});
    opt_row("idle fraction", idle_fraction, num);
    if (mean_idle_interval) {
        t.addRow({"mean idle interval (ms)",
                  cell(static_cast<double>(*mean_idle_interval) /
                       static_cast<double>(kMsec))});
    }
    opt_row("idle mass in intervals >= 1s", idle_mass_1s, num);
    if (ms_burstiness) {
        t.addRow({"interarrival CV", cell(ms_burstiness->interarrival_cv)});
        t.addRow({"Hurst (agg. var)", cell(ms_burstiness->hurst_var.h)});
        if (!ms_burstiness->idc.empty()) {
            t.addRow({"IDC @finest",
                      cell(ms_burstiness->idc.front().idc)});
            t.addRow({"IDC @coarsest",
                      cell(ms_burstiness->idc.back().idc)});
        }
    }
    if (ms_rw) {
        t.addRow({"mean R/W run length", cell(ms_rw->mean_run_length)});
        t.addRow({"write-dominated bins",
                  cell(ms_rw->write_dominated_fraction)});
    }
    if (util_hour) {
        t.addRow({"hourly utilization mean", cell(util_hour->mean)});
        t.addRow({"hourly utilization p95", cell(util_hour->p95)});
    }
    opt_row("idle hour fraction", idle_hour_fraction, num);
    if (longest_saturated_hours) {
        t.addRow({"longest saturated run (h)",
                  cell(static_cast<std::uint64_t>(
                      *longest_saturated_hours))});
    }
    opt_row("lifetime utilization", lifetime_utilization, num);
    opt_row("lifetime read fraction", lifetime_read_fraction, num);
    if (lifetime_requests)
        t.addRow({"lifetime requests", cell(*lifetime_requests)});

    t.print(os);
    return os.str();
}

} // namespace core
} // namespace dlw
