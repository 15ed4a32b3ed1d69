/**
 * @file
 * Tests for the top-level multi-scale characterization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/binenc.hh"
#include "common/rng.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "core/prefetch.hh"
#include "stats/timeseries.hh"
#include "synth/family.hh"
#include "synth/workload.hh"
#include "trace/aggregate.hh"
#include "trace/source.hh"

namespace dlw
{
namespace core
{
namespace
{

TEST(Characterize, MsScalePopulatesFields)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 60.0);
    trace::MsTrace tr = w.generate(rng, "drv-0", 0, 60 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    disk::ServiceLog log = drive.service(tr);

    DriveCharacterization c = characterizeMs(tr, log);
    EXPECT_EQ(c.drive_id, "drv-0");
    ASSERT_TRUE(c.util_1s.has_value());
    ASSERT_TRUE(c.util_1min.has_value());
    ASSERT_TRUE(c.idle_fraction.has_value());
    ASSERT_TRUE(c.ms_burstiness.has_value());
    ASSERT_TRUE(c.arrival_rate.has_value());
    EXPECT_NEAR(*c.idle_fraction + c.util_1s->mean, 1.0, 0.02);
    EXPECT_GT(*c.arrival_rate, 10.0);
    ASSERT_TRUE(c.p95_response_ms.has_value());
    ASSERT_TRUE(c.p99_response_ms.has_value());
    EXPECT_GE(*c.p99_response_ms, *c.p95_response_ms);
    EXPECT_GE(*c.p95_response_ms, 0.0);
    EXPECT_FALSE(c.util_hour.has_value());
}

TEST(Characterize, HourAndLifetimeScalesExtend)
{
    synth::FamilyConfig cfg;
    synth::FamilyModel model(cfg);
    synth::DriveProfile p = model.sampleProfile(2);
    trace::HourTrace ht = model.generateHourTrace(p, 24 * 14);
    trace::LifetimeRecord life = trace::hourToLifetime(ht);

    DriveCharacterization c;
    c.drive_id = p.id;
    addHourScale(c, ht);
    addLifetimeScale(c, life);

    ASSERT_TRUE(c.util_hour.has_value());
    ASSERT_TRUE(c.idle_hour_fraction.has_value());
    ASSERT_TRUE(c.lifetime_utilization.has_value());
    EXPECT_NEAR(*c.lifetime_utilization, c.util_hour->mean, 1e-9);
    EXPECT_EQ(*c.lifetime_requests, ht.totalRequests());
}

TEST(Characterize, RenderContainsKeyRows)
{
    Rng rng(2);
    synth::Workload w = synth::Workload::makeFileServer(1 << 22, 40.0);
    trace::MsTrace tr = w.generate(rng, "drv-9", 0, 30 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    DriveCharacterization c = characterizeMs(tr, drive.service(tr));

    const std::string s = c.render();
    EXPECT_NE(s.find("drv-9"), std::string::npos);
    EXPECT_NE(s.find("arrival rate"), std::string::npos);
    EXPECT_NE(s.find("utilization mean"), std::string::npos);
    EXPECT_NE(s.find("idle fraction"), std::string::npos);
    EXPECT_NE(s.find("Hurst"), std::string::npos);
    // Hour rows absent without hour data.
    EXPECT_EQ(s.find("hourly utilization"), std::string::npos);
}

TEST(Characterize, RenderGrowsWithScales)
{
    DriveCharacterization c;
    c.drive_id = "x";
    const std::size_t empty_len = c.render().size();
    c.lifetime_utilization = 0.25;
    c.lifetime_read_fraction = 0.7;
    EXPECT_GT(c.render().size(), empty_len);
    EXPECT_NE(c.render().find("lifetime utilization"),
              std::string::npos);
}

// ---- One trip: the drive and the trace-derived fold together ----

/**
 * A source over raw requests, so a test can feed what MsTrace
 * refuses to hold, that fails with `fail` once `fail_after` requests
 * were delivered.
 */
class RawSource final : public trace::RequestSource
{
  public:
    explicit RawSource(std::vector<trace::Request> reqs,
                       Status fail = Status(),
                       std::size_t fail_after =
                           std::numeric_limits<std::size_t>::max())
        : reqs_(std::move(reqs)), fail_(std::move(fail)),
          fail_after_(fail_after)
    {
    }

    const std::string &driveId() const override { return id_; }

    Tick start() const override { return 0; }

    Tick duration() const override { return 10 * kSec; }

    bool
    next(trace::RequestBatch &batch) override
    {
        batch.clear();
        while (!batch.full() && pos_ < reqs_.size()) {
            if (pos_ == fail_after_) {
                status_ = fail_;
                break;
            }
            batch.append(reqs_[pos_++]);
        }
        return !batch.empty();
    }

    Status status() const override { return status_; }

  private:
    std::string id_ = "raw";
    std::vector<trace::Request> reqs_;
    Status fail_;
    std::size_t fail_after_;
    std::size_t pos_ = 0;
    Status status_;
};

/** `n` valid requests spread over the first 5 s of a 10 s window. */
std::vector<trace::Request>
validRequests(std::size_t n)
{
    std::vector<trace::Request> reqs;
    for (std::size_t i = 0; i < n; ++i) {
        trace::Request r;
        r.arrival = static_cast<Tick>(i) * (5 * kSec) /
                    static_cast<Tick>(n);
        r.lba = (i * 7919) % (1 << 20);
        r.blocks = 8;
        r.op = i % 3 == 0 ? trace::Op::Write : trace::Op::Read;
        reqs.push_back(r);
    }
    return reqs;
}

/** Fold requests [from, to) of `tr` into `live`, 97 at a time. */
void
feed(LiveCharacterization &live, const trace::MsTrace &tr,
     std::size_t from, std::size_t to)
{
    trace::RequestBatch batch(97);
    for (std::size_t i = from; i < to; ++i) {
        batch.append(tr.requests()[i]);
        if (batch.full() || i + 1 == to) {
            ASSERT_TRUE(live.observe(batch).ok());
            batch.clear();
        }
    }
}

/** Both renderings a snapshot reaches users through. */
std::string
bytesOf(const DriveCharacterization &c)
{
    return c.render() + renderCharacterizationJson(c);
}

TEST(LiveCharacterization, SnapshotsMatchTheFinishOfEachPrefix)
{
    // A mixed read/write stream, so write runs stay open and close
    // across the snapshot points.
    Rng rng(23);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 40.0);
    const trace::MsTrace tr = w.generate(rng, "live", 0, 3 * kMinute);
    const std::size_t n = tr.size();
    ASSERT_GT(n, 3000u);
    const trace::MsStreamHeader meta{tr.driveId(), tr.start(),
                                     tr.duration()};

    LiveCharacterization live(meta);
    std::size_t at = 0;
    for (std::size_t point : {std::size_t{0}, std::size_t{1}, n / 3,
                              n / 2 + 13, n - 1, n}) {
        feed(live, tr, at, point);
        at = point;
        LiveCharacterization prefix(meta);
        feed(prefix, tr, 0, point);
        EXPECT_EQ(bytesOf(live.snapshot()), bytesOf(prefix.finish()))
            << "after " << point << " of " << n;
    }
    const std::string last = bytesOf(live.snapshot());
    EXPECT_EQ(bytesOf(live.finish()), last);
    EXPECT_EQ(bytesOf(live.snapshot()), last);
    EXPECT_EQ(bytesOf(live.finish()), last);
}

enum class LiveWl
{
    Oltp,
    FileServer,
    Streaming,
    Backup,
};

const char *
liveWlName(LiveWl w)
{
    switch (w) {
      case LiveWl::Oltp:
        return "oltp";
      case LiveWl::FileServer:
        return "fileserver";
      case LiveWl::Streaming:
        return "streaming";
      case LiveWl::Backup:
        return "backup";
    }
    return "?";
}

/** Where a stream is cut for its checkpoint. */
enum class Cut
{
    BeforeFirst,
    AfterFirst,
    Third,
    MidBatch,
    BeforeLast,
    AfterLast,
};

const char *
cutName(Cut c)
{
    switch (c) {
      case Cut::BeforeFirst:
        return "before_first";
      case Cut::AfterFirst:
        return "after_first";
      case Cut::Third:
        return "third";
      case Cut::MidBatch:
        return "mid_batch";
      case Cut::BeforeLast:
        return "before_last";
      case Cut::AfterLast:
        return "after_last";
    }
    return "?";
}

std::size_t
cutAt(Cut c, std::size_t n)
{
    switch (c) {
      case Cut::BeforeFirst:
        return 0;
      case Cut::AfterFirst:
        return 1;
      case Cut::Third:
        return n / 3;
      case Cut::MidBatch:
        return n / 2 + 13;
      case Cut::BeforeLast:
        return n - 1;
      case Cut::AfterLast:
        return n;
    }
    return 0;
}

class LiveCheckpointSweep
    : public ::testing::TestWithParam<std::tuple<LiveWl, Cut>>
{
};

/**
 * A session checkpointed anywhere in its stream and restored into a
 * fresh process reports what an uninterrupted fold reports: the
 * snapshot right after the restore, and the finish after the rest of
 * the stream, byte for byte, for every workload class.
 */
TEST_P(LiveCheckpointSweep, RestoredFoldMatchesTheUninterruptedOne)
{
    const auto [wl, cut] = GetParam();
    Rng rng(31);
    const Lba cap = Lba{1} << 22;
    synth::Workload w = [&] {
        switch (wl) {
          case LiveWl::Oltp:
            return synth::Workload::makeOltp(cap, 40.0, 31);
          case LiveWl::FileServer:
            return synth::Workload::makeFileServer(cap, 40.0, 31);
          case LiveWl::Streaming:
            return synth::Workload::makeStreaming(cap, 40.0);
          case LiveWl::Backup:
            return synth::Workload::makeBackup(cap, 40.0);
        }
        return synth::Workload::makeOltp(cap, 40.0, 31);
    }();
    const trace::MsTrace tr = w.generate(rng, "ckpt", 0, 2 * kMinute);
    const std::size_t n = tr.size();
    ASSERT_GT(n, 1000u);
    const std::size_t at = cutAt(cut, n);
    const trace::MsStreamHeader meta{tr.driveId(), tr.start(),
                                     tr.duration()};

    LiveCharacterization whole(meta);
    feed(whole, tr, 0, n);
    const std::string want = bytesOf(whole.finish());

    std::string blob;
    {
        LiveCharacterization head(meta);
        feed(head, tr, 0, at);
        BinEnc enc(blob);
        head.saveState(enc);
    }
    BinDec dec(blob);
    std::unique_ptr<LiveCharacterization> rest =
        LiveCharacterization::restore(dec);
    ASSERT_NE(rest, nullptr);
    EXPECT_EQ(dec.remaining(), 0u);
    EXPECT_EQ(rest->requests(), at);

    LiveCharacterization prefix(meta);
    feed(prefix, tr, 0, at);
    EXPECT_EQ(bytesOf(rest->snapshot()), bytesOf(prefix.finish()));

    feed(*rest, tr, at, n);
    EXPECT_EQ(rest->requests(), n);
    EXPECT_EQ(bytesOf(rest->finish()), want);
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndCuts, LiveCheckpointSweep,
    ::testing::Combine(::testing::Values(LiveWl::Oltp, LiveWl::FileServer,
                                         LiveWl::Streaming, LiveWl::Backup),
                       ::testing::Values(Cut::BeforeFirst, Cut::AfterFirst,
                                         Cut::Third, Cut::MidBatch,
                                         Cut::BeforeLast, Cut::AfterLast)),
    [](const ::testing::TestParamInfo<std::tuple<LiveWl, Cut>> &p) {
        return std::string(liveWlName(std::get<0>(p.param))) + "_" +
               cutName(std::get<1>(p.param));
    });

TEST(ServiceAndCharacterize, MatchesServiceThenCharacterizeMs)
{
    Rng rng(5);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 80.0);
    // 90 s stays under the fan-out threshold of the burstiness
    // finish; the sparse 20-minute trace (120 000 bins of 10 ms)
    // crosses it, so its helper threads run beside the drive.
    synth::Workload sparse = synth::Workload::makeOltp(1 << 22, 2.0);
    const trace::MsTrace traces[] = {
        w.generate(rng, "oltp-5", 0, 90 * kSec),
        sparse.generate(rng, "oltp-sparse", 0, 20 * kMinute)};
    for (const trace::MsTrace &tr : traces) {
        for (bool cache : {true, false}) {
            disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
            cfg.cache.enabled = cache;
            disk::DiskDrive drive(cfg);
            const std::string ref =
                characterizeMs(tr, drive.service(tr)).render();
            for (std::size_t bs : {1, 7, 4096}) {
                trace::MsTraceSource src(tr);
                StatusOr<DriveCharacterization> c =
                    serviceAndCharacterize(drive, src, bs);
                ASSERT_TRUE(c.ok()) << c.status().toString();
                EXPECT_EQ(c.value().render(), ref)
                    << tr.driveId() << ", batch " << bs << ", cache "
                    << cache;
            }
        }
    }
}

// ---- The busy profile folded as intervals close -------------------

/** A drive run whose busy profile the fold must reproduce. */
struct BusyRun
{
    disk::DriveConfig config;
    trace::MsTrace trace;
};

/** A request at `at`, LBA spread over the drive. */
trace::Request
req(Tick at, std::size_t i, trace::Op op)
{
    trace::Request r;
    r.arrival = at;
    r.lba = (i * 7919 * 4099) % (1u << 26);
    r.blocks = 8;
    r.op = op;
    return r;
}

BusyRun
oltpRun(disk::DriveConfig cfg, Tick window, Tick busy_until, double rate)
{
    Rng rng(31);
    const synth::Workload w = synth::Workload::makeOltp(
        cfg.geometry.capacityBlocks(), rate);
    trace::MsTrace tr = w.generate(rng, "busy", 0, busy_until);
    tr.setWindow(0, window);
    return {std::move(cfg), std::move(tr)};
}

/** Writes buffered at the window's end, destaged past it. */
BusyRun
lastIntervalPastTheWindow()
{
    trace::MsTrace tr("busy", 0, 10 * kSec);
    for (std::size_t i = 0; i < 300; ++i)
        tr.append(req(9900 * kMsec + static_cast<Tick>(i) * 300 * kUsec,
                      i, trace::Op::Write));
    return {disk::DriveConfig::makeEnterprise(), std::move(tr)};
}

/** Forty mechanical reads at one tick, served back to back. */
BusyRun
backToBack()
{
    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    cfg.cache.enabled = false;
    trace::MsTrace tr("busy", 0, 5 * kSec);
    tr.append(req(200 * kMsec, 999, trace::Op::Read));
    for (std::size_t i = 0; i < 40; ++i)
        tr.append(req(kSec, i, trace::Op::Read));
    tr.append(req(4 * kSec, 998, trace::Op::Write));
    return {std::move(cfg), std::move(tr)};
}

/** A read one tick before the window ends: served past it. */
BusyRun
endsBusy()
{
    BusyRun run = oltpRun(disk::DriveConfig::makeEnterprise(),
                          150 * kSec, 150 * kSec, 40.0);
    run.config.cache.enabled = false;
    run.trace.append(req(150 * kSec - 1, 77, trace::Op::Read));
    return run;
}

struct BusyCase
{
    const char *name;
    BusyRun (*make)();
};

const BusyCase kBusyCases[] = {
    {"LastIntervalPastTheWindow", lastIntervalPastTheWindow},
    {"BackToBackCoalesces", backToBack},
    {"CacheOff",
     [] {
         disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
         cfg.cache.enabled = false;
         return oltpRun(std::move(cfg), 150 * kSec, 150 * kSec, 80.0);
     }},
    {"Nearline",
     [] {
         return oltpRun(disk::DriveConfig::makeNearline(), 150 * kSec,
                        150 * kSec, 60.0);
     }},
    {"EndsBusy", endsBusy},
    {"EndsIdle",
     [] {
         return oltpRun(disk::DriveConfig::makeEnterprise(), 150 * kSec,
                        60 * kSec, 60.0);
     }},
};

/**
 * The busy half as the code before the fold computed it at the end of
 * the run, kept as the reference: busy time binned over the final
 * window in bins sized once up front, normalized, clipped and
 * profiled inline, and the idle gaps of
 * ServiceLog::forEachIdleInterval() summed.
 */
UtilizationProfile
endOfRunProfile(const disk::ServiceLog &log, Tick bin_width)
{
    const Tick span = log.window_end - log.window_start;
    stats::BinnedSeries busy(
        log.window_start, bin_width,
        span > 0 ? static_cast<std::size_t>((span + bin_width - 1) /
                                            bin_width)
                 : 0);
    for (const trace::BusyInterval &iv : log.busy) {
        busy.accumulateInterval(iv.first, iv.second,
                                static_cast<double>(iv.second - iv.first));
    }
    std::vector<double> v = busy.values();
    if (v.size() > 1 && span % bin_width != 0)
        v.pop_back();
    const Tick divisor =
        v.size() == 1 ? std::min(bin_width, span) : bin_width;
    for (double &x : v)
        x /= static_cast<double>(std::max<Tick>(divisor, 1));
    UtilizationProfile p;
    p.bin_width = bin_width;
    double sum = 0.0;
    std::size_t idle = 0;
    std::size_t saturated = 0;
    for (double &x : v) {
        x = std::clamp(x, 0.0, 1.0);
        sum += x;
        idle += x <= 0.0 ? 1 : 0;
        saturated += x >= 0.9 ? 1 : 0;
        p.peak = std::max(p.peak, x);
    }
    if (!v.empty()) {
        const double n = static_cast<double>(v.size());
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const auto quantile = [&sorted](double q) {
            const double pos = q * static_cast<double>(sorted.size() - 1);
            const auto lo = static_cast<std::size_t>(pos);
            if (lo + 1 >= sorted.size())
                return sorted.back();
            return sorted[lo] + (pos - static_cast<double>(lo)) *
                                    (sorted[lo + 1] - sorted[lo]);
        };
        p.mean = sum / n;
        p.median = quantile(0.5);
        p.p95 = quantile(0.95);
        p.idle_fraction = static_cast<double>(idle) / n;
        p.saturated_fraction = static_cast<double>(saturated) / n;
    }
    p.series = std::move(v);
    return p;
}

DriveCharacterization
endOfRunBusyHalf(const disk::ServiceLog &log)
{
    DriveCharacterization c;
    c.util_1s = endOfRunProfile(log, kSec);
    c.util_1min = endOfRunProfile(log, kMinute);
    Tick total = 0;
    Tick mass = 0;
    Tick count = 0;
    log.forEachIdleInterval([&](Tick gap) {
        total += gap;
        mass += gap >= kSec ? gap : 0;
        ++count;
    });
    const Tick window = log.window_end - log.window_start;
    c.idle_fraction = window > 0 ? static_cast<double>(total) /
                                       static_cast<double>(window)
                                 : 0.0;
    c.mean_idle_interval = count ? total / count : 0;
    c.idle_mass_1s = total > 0 ? static_cast<double>(mass) /
                                     static_cast<double>(total)
                               : 0.0;
    return c;
}

/** Raw bits, so equal means bit for bit. */
std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &xs)
{
    std::vector<std::uint64_t> out;
    for (const double x : xs)
        out.push_back(bitsOf(x));
    return out;
}

void
expectSameProfile(const std::optional<UtilizationProfile> &a,
                  const std::optional<UtilizationProfile> &b,
                  const char *what)
{
    ASSERT_TRUE(a && b) << what;
    EXPECT_EQ(a->bin_width, b->bin_width) << what;
    EXPECT_EQ(bitsOf(a->mean), bitsOf(b->mean)) << what;
    EXPECT_EQ(bitsOf(a->peak), bitsOf(b->peak)) << what;
    EXPECT_EQ(bitsOf(a->median), bitsOf(b->median)) << what;
    EXPECT_EQ(bitsOf(a->p95), bitsOf(b->p95)) << what;
    EXPECT_EQ(bitsOf(a->idle_fraction), bitsOf(b->idle_fraction)) << what;
    EXPECT_EQ(bitsOf(a->saturated_fraction),
              bitsOf(b->saturated_fraction))
        << what;
    EXPECT_EQ(bitsOf(a->series), bitsOf(b->series)) << what;
}

/** Utilization at 1 s and 1 min and the idle figures, bit for bit. */
void
expectSameBusyHalf(const DriveCharacterization &a,
                   const DriveCharacterization &b)
{
    expectSameProfile(a.util_1s, b.util_1s, "util_1s");
    expectSameProfile(a.util_1min, b.util_1min, "util_1min");
    ASSERT_TRUE(a.idle_fraction && b.idle_fraction);
    EXPECT_EQ(bitsOf(*a.idle_fraction), bitsOf(*b.idle_fraction));
    EXPECT_EQ(a.mean_idle_interval, b.mean_idle_interval);
    ASSERT_TRUE(a.idle_mass_1s && b.idle_mass_1s);
    EXPECT_EQ(bitsOf(*a.idle_mass_1s), bitsOf(*b.idle_mass_1s));
}

class FoldedBusyProfile : public ::testing::TestWithParam<BusyCase>
{
};

TEST_P(FoldedBusyProfile, MatchesAddBusyProfileOfTheLog)
{
    const BusyRun run = GetParam().make();
    disk::DiskDrive drive(run.config);
    const disk::ServiceLog log = drive.service(run.trace);
    ASSERT_FALSE(log.busy.empty());
    const Tick last_busy = log.busy.back().second;
    const std::string name = GetParam().name;
    // Each case is the shape it is named for.
    if (name == "LastIntervalPastTheWindow" || name == "EndsBusy") {
        EXPECT_GT(log.window_end, run.trace.end());
        EXPECT_EQ(last_busy, log.window_end);
    } else {
        EXPECT_EQ(log.window_end, run.trace.end());
    }
    if (name == "EndsIdle") {
        EXPECT_LT(last_busy + kMinute, log.window_end);
    }
    if (name == "BackToBackCoalesces") {
        EXPECT_LE(log.busy.size(), 3u);
    }

    // addBusyProfile(log), through characterizeMs, against the code
    // it replaced.
    const DriveCharacterization replayed = characterizeMs(run.trace, log);
    expectSameBusyHalf(replayed, endOfRunBusyHalf(log));
    // Folded from the drive as each interval closed, at two batch
    // sizes.
    for (std::size_t bs : {std::size_t{1}, trace::kDefaultBatchRequests}) {
        trace::MsTraceSource src(run.trace);
        StatusOr<DriveCharacterization> folded =
            serviceAndCharacterize(drive, src, bs);
        ASSERT_TRUE(folded.ok()) << folded.status().toString();
        expectSameBusyHalf(folded.value(), replayed);
        EXPECT_EQ(folded.value().render(), replayed.render());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FoldedBusyProfile, ::testing::ValuesIn(kBusyCases),
    [](const ::testing::TestParamInfo<BusyCase> &p) {
        return std::string(p.param.name);
    });

/** Keeps completions only: the busy hook left at its default. */
class CompletionsOnlySink final : public disk::CompletionSink
{
  public:
    void onCompletion(const disk::Completion &) override { ++seen; }

    std::size_t seen = 0;
};

/** Records the busy intervals the drive hands its sink. */
class BusyRecordingSink final : public disk::CompletionSink
{
  public:
    void onCompletion(const disk::Completion &) override {}

    bool
    onBusyInterval(const trace::BusyInterval &iv) override
    {
        busy.push_back(iv);
        return true;
    }

    std::vector<trace::BusyInterval> busy;
};

TEST(BusyIntervalHook, DefaultKeepsTheServiceLogsBusyList)
{
    for (const BusyCase &c : kBusyCases) {
        const BusyRun run = c.make();
        disk::DiskDrive drive(run.config);
        const disk::ServiceLog ref = drive.service(run.trace);

        trace::MsTraceSource src(run.trace);
        CompletionsOnlySink sink;
        const disk::ServiceLog log = drive.service(src, &sink, 7);
        EXPECT_EQ(sink.seen, run.trace.size()) << c.name;
        EXPECT_TRUE(log.completions.empty()) << c.name;
        EXPECT_EQ(log.busy, ref.busy) << c.name;
        EXPECT_EQ(log.window_end, ref.window_end) << c.name;
        // Coalesced: every interval starts strictly after the last.
        for (std::size_t i = 1; i < log.busy.size(); ++i) {
            EXPECT_LT(log.busy[i - 1].first, log.busy[i - 1].second);
            EXPECT_GT(log.busy[i].first, log.busy[i - 1].second)
                << c.name << " interval " << i;
        }
    }
}

TEST(BusyIntervalHook, OverrideTakesEveryIntervalInOrder)
{
    for (const BusyCase &c : kBusyCases) {
        const BusyRun run = c.make();
        disk::DiskDrive drive(run.config);
        const disk::ServiceLog ref = drive.service(run.trace);

        trace::MsTraceSource src(run.trace);
        BusyRecordingSink sink;
        const disk::ServiceLog log = drive.service(src, &sink);
        EXPECT_TRUE(log.busy.empty()) << c.name;
        EXPECT_EQ(sink.busy, ref.busy) << c.name;
        EXPECT_EQ(log.window_end, ref.window_end) << c.name;
    }
}

TEST(ServiceAndCharacterize, OrderCheckEndsTheStreamBeforeTheDrive)
{
    struct Case
    {
        const char *what;
        trace::Request bad;
    };
    trace::Request late;
    late.arrival = 4 * kSec; // before the 5 s the valid prefix reached
    late.blocks = 8;
    trace::Request empty;
    empty.arrival = 6 * kSec;
    empty.blocks = 0;
    trace::Request outside;
    outside.arrival = 10 * kSec; // the window is [0, 10 s)
    outside.blocks = 8;
    const Case cases[] = {{"out-of-order arrival", late},
                          {"zero-length request", empty},
                          {"outside the observation window", outside}};

    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    for (const Case &k : cases) {
        std::vector<trace::Request> reqs = validRequests(1000);
        reqs.push_back(k.bad);
        for (std::size_t bs : {1, 7, 4096}) {
            // Reaching the checks at all means no engine assert fired.
            RawSource src(reqs);
            StatusOr<DriveCharacterization> c =
                serviceAndCharacterize(drive, src, bs);
            ASSERT_FALSE(c.ok()) << k.what;
            EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
            EXPECT_NE(c.status().message().find(k.what),
                      std::string::npos)
                << c.status().message();
            EXPECT_NE(c.status().message().find("stream offset 1000"),
                      std::string::npos)
                << c.status().message();

            RawSource again(reqs);
            EXPECT_EQ(characterizeTrace(again, bs).status(),
                      c.status());
        }
    }
}

TEST(ServiceAndCharacterize, DecodeFailureReportsItsOwnStatus)
{
    const Status corrupt = Status::corruptData("line 301: bad op 'Q'");
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    for (std::size_t bs : {1, 7, 4096}) {
        RawSource src(validRequests(1000), corrupt, 300);
        StatusOr<DriveCharacterization> c =
            serviceAndCharacterize(drive, src, bs);
        ASSERT_FALSE(c.ok());
        EXPECT_EQ(c.status(), corrupt) << "batch " << bs;
    }
    RawSource src(validRequests(1000), corrupt, 300);
    EXPECT_THROW(characterizeMs(src, disk::ServiceLog()), StatusError);
}

TEST(PrefetchSource, DeliversUpstreamInOrder)
{
    const std::vector<trace::Request> reqs = validRequests(20000);
    const Status corrupt = Status::corruptData("line 12001: bad op");
    for (std::size_t bs : {1, 7, 4096, 5000}) {
        for (bool fail : {false, true}) {
            RawSource src(reqs, fail ? corrupt : Status(),
                          fail ? 12000 : reqs.size());
            int ends = 0;
            PrefetchSource ahead(src, bs, [&ends] { ++ends; });
            trace::RequestBatch batch(ahead.slotCapacity());
            std::size_t n = 0;
            while (ahead.next(batch)) {
                for (std::size_t i = 0; i < batch.size(); ++i, ++n) {
                    ASSERT_LT(n, reqs.size());
                    EXPECT_EQ(batch.arrival(i), reqs[n].arrival);
                    EXPECT_EQ(batch.lba(i), reqs[n].lba);
                }
            }
            ahead.join();
            EXPECT_EQ(n, fail ? 12000u : reqs.size()) << "batch " << bs;
            EXPECT_EQ(ahead.status(), fail ? corrupt : Status());
            // on_end runs after a clean end only.
            EXPECT_EQ(ends, fail ? 0 : 1) << "batch " << bs;
        }
    }
}

/** An endless source that counts its next() calls. */
class EndlessSource final : public trace::RequestSource
{
  public:
    const std::string &driveId() const override { return id_; }

    Tick start() const override { return 0; }

    Tick duration() const override
    {
        return std::numeric_limits<Tick>::max();
    }

    bool
    next(trace::RequestBatch &batch) override
    {
        if (throw_at_ != 0 && calls_.load() + 1 == throw_at_)
            throw std::runtime_error("upstream gave up");
        batch.clear();
        trace::Request r;
        r.blocks = 8;
        while (!batch.full()) {
            r.arrival = at_++;
            batch.append(r);
        }
        calls_.fetch_add(1);
        return true;
    }

    /** next() calls that returned so far. */
    std::size_t calls() const { return calls_.load(); }

    /** Make the n-th next() call throw (1-based; 0 for never). */
    void throwAt(std::size_t n) { throw_at_ = n; }

  private:
    std::string id_ = "endless";
    Tick at_ = 0;
    std::size_t throw_at_ = 0;
    std::atomic<std::size_t> calls_{0};
};

/** Wait until `src` made `n` calls and stays there a while. */
void
expectProducerParkedAt(const EndlessSource &src, std::size_t n)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (src.calls() < n && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(src.calls(), n);
}

TEST(PrefetchSource, AbandonedWithAFullRingReturns)
{
    // The producer fills every slot, then blocks on the full ring;
    // destroying the source must cancel and join it, not hang.
    {
        EndlessSource src;
        bool ended = false;
        {
            PrefetchSource ahead(src, 4096, [&ended] { ended = true; });
            expectProducerParkedAt(src, PrefetchSource::kSlots);
        }
        EXPECT_FALSE(ended);
    }
    // Likewise once the consumer took a batch and then unwinds.  The
    // producer stays parked until only kResumeAt slots are left.
    {
        EndlessSource src;
        try {
            PrefetchSource ahead(src, 7);
            const std::size_t per_slot = ahead.slotCapacity() / 7;
            expectProducerParkedAt(src, PrefetchSource::kSlots * per_slot);
            trace::RequestBatch batch(ahead.slotCapacity());
            ASSERT_TRUE(ahead.next(batch));
            EXPECT_EQ(batch.size(), ahead.slotCapacity());
            expectProducerParkedAt(src, PrefetchSource::kSlots * per_slot);
            throw std::runtime_error("consumer gave up");
        } catch (const std::runtime_error &) {
        }
    }
}

TEST(PrefetchSource, UpstreamExceptionReachesTheConsumer)
{
    EndlessSource src;
    src.throwAt(3);
    PrefetchSource ahead(src, 4096);
    trace::RequestBatch batch(ahead.slotCapacity());
    // The two batches before the throw still arrive, in order.
    ASSERT_TRUE(ahead.next(batch));
    EXPECT_EQ(batch.arrival(0), 0);
    ASSERT_TRUE(ahead.next(batch));
    EXPECT_EQ(batch.arrival(0), 4096);
    EXPECT_THROW(ahead.next(batch), std::runtime_error);
    EXPECT_THROW(ahead.join(), std::runtime_error);
}

} // anonymous namespace
} // namespace core
} // namespace dlw
