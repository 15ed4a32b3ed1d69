/**
 * @file
 * Tests for the top-level multi-scale characterization.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hh"
#include "core/characterize.hh"
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

TEST(ServiceAndCharacterize, MatchesServiceThenCharacterizeMs)
{
    Rng rng(5);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 80.0);
    const trace::MsTrace tr = w.generate(rng, "oltp-5", 0, 90 * kSec);
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
                << "batch " << bs << ", cache " << cache;
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

} // anonymous namespace
} // namespace core
} // namespace dlw
