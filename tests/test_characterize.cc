/**
 * @file
 * Tests for the top-level multi-scale characterization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "core/prefetch.hh"
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
