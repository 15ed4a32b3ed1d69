/**
 * @file
 * Tests for the event-driven drive engine: timing of single
 * requests, queueing, caching, destage draining, busy-interval
 * invariants, and scheduler ablation.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "synth/workload.hh"
#include "trace/transform.hh"

namespace dlw
{
namespace disk
{
namespace
{

DriveConfig
testConfig(bool cache_enabled)
{
    std::vector<Zone> zones = {{0, 100000, 100}};
    DiskGeometry geom(std::move(zones), 6000); // 10 ms/rev
    SeekModel seek(geom.cylinders(), 200 * kUsec, 3 * kMsec, 6 * kMsec);
    DriveConfig cfg{std::move(geom), seek, CacheConfig{},
                    SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
    cfg.cache.enabled = cache_enabled;
    return cfg;
}

trace::MsTrace
singleRead(Lba lba, BlockCount blocks)
{
    trace::MsTrace tr("t", 0, kSec);
    trace::Request r;
    r.arrival = 0;
    r.lba = lba;
    r.blocks = blocks;
    r.op = trace::Op::Read;
    tr.append(r);
    return tr;
}

/** 64-bit FNV-1a over a sequence of integers (8 LE bytes each). */
class Fnv64
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Digest of everything a run produces that depends on event order:
 * every completion in completion order, the busy intervals and the
 * cache counters.
 */
std::uint64_t
logDigest(const ServiceLog &log)
{
    Fnv64 d;
    d.add(log.completions.size());
    for (const Completion &c : log.completions) {
        d.add(c.index);
        d.add(static_cast<std::uint64_t>(c.start));
        d.add(static_cast<std::uint64_t>(c.finish));
        d.add(c.cache_hit);
    }
    d.add(log.busy.size());
    for (const trace::BusyInterval &iv : log.busy) {
        d.add(static_cast<std::uint64_t>(iv.first));
        d.add(static_cast<std::uint64_t>(iv.second));
    }
    d.add(log.read_hits);
    d.add(log.buffered_writes);
    d.add(log.write_through);
    d.add(log.destages);
    return d.value();
}

trace::Request
req(Tick arrival, Lba lba, BlockCount blocks, trace::Op op)
{
    trace::Request r;
    r.arrival = arrival;
    r.lba = lba;
    r.blocks = blocks;
    r.op = op;
    return r;
}

TEST(Drive, SingleReadTimingDecomposes)
{
    DiskDrive drive(testConfig(false));
    ServiceLog log = drive.service(singleRead(0, 10));
    ASSERT_EQ(log.completions.size(), 1u);
    const Completion &c = log.completions[0];
    // Head starts at cylinder 0, target angle 0, platter angle at
    // overhead time (0.1 ms into a 10 ms rev) = 0.01 -> wait 0.99
    // revolutions, plus 1 ms transfer of 10/100 of a track.
    const Tick expect = 100 * kUsec /* overhead */ +
                        static_cast<Tick>(0.99 * 10 * kMsec + 0.5) +
                        kMsec;
    EXPECT_EQ(c.response(), expect);
    EXPECT_FALSE(c.cache_hit);
    ASSERT_EQ(log.busy.size(), 1u);
    EXPECT_EQ(log.busy[0].first, 0);
    EXPECT_EQ(log.busy[0].second, expect);
}

TEST(Drive, QueueingDelaysSecondRequest)
{
    DiskDrive drive(testConfig(false));
    trace::MsTrace tr("t", 0, kSec);
    for (int i = 0; i < 2; ++i) {
        trace::Request r;
        r.arrival = 0;
        r.lba = 50000; // same spot; second needs a full rotation
        r.blocks = 1;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 2u);
    EXPECT_GT(log.completions[1].response(),
              log.completions[0].response());
    EXPECT_GE(log.completions[1].start, log.completions[0].finish);
}

TEST(Drive, ReadCacheHitIsFast)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request a;
    a.arrival = 0;
    a.lba = 1000;
    a.blocks = 10;
    a.op = trace::Op::Read;
    tr.append(a);
    trace::Request b = a;
    b.arrival = 500 * kMsec; // long after a completed
    tr.append(b);
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 2u);
    EXPECT_EQ(log.read_hits, 1u);
    const Completion &hit = log.completions[1];
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.response(), 100 * kUsec); // just overhead
}

TEST(Drive, SequentialReadPrefetchHits)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, 10 * kSec);
    // A sequential scan with large gaps: after the first media read
    // the look-ahead window should serve the following reads.
    for (int i = 0; i < 5; ++i) {
        trace::Request r;
        r.arrival = static_cast<Tick>(i) * kSec;
        r.lba = 2000 + static_cast<Lba>(i) * 10;
        r.blocks = 10;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    ServiceLog log = drive.service(tr);
    EXPECT_GE(log.read_hits, 3u);
}

TEST(Drive, WriteBufferedThenDestagedOnIdle)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request w;
    w.arrival = 0;
    w.lba = 5000;
    w.blocks = 100;
    w.op = trace::Op::Write;
    tr.append(w);
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 1u);
    EXPECT_TRUE(log.completions[0].cache_hit);
    EXPECT_EQ(log.completions[0].response(), 100 * kUsec);
    EXPECT_EQ(log.buffered_writes, 1u);
    EXPECT_EQ(log.destages, 1u);
    // The destage produced mechanical busy time after the arrival.
    EXPECT_GT(log.busyTime(), 0);
}

TEST(Drive, WriteThroughWhenCacheDisabled)
{
    DiskDrive drive(testConfig(false));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request w;
    w.arrival = 0;
    w.lba = 5000;
    w.blocks = 100;
    w.op = trace::Op::Write;
    tr.append(w);
    ServiceLog log = drive.service(tr);
    EXPECT_EQ(log.buffered_writes, 0u);
    EXPECT_EQ(log.write_through, 1u);
    EXPECT_GT(log.completions[0].response(), kMsec);
}

TEST(Drive, BusyIntervalsSortedDisjoint)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeFileServer(100000, 60.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    for (std::size_t i = 0; i < log.busy.size(); ++i) {
        EXPECT_LT(log.busy[i].first, log.busy[i].second);
        if (i > 0)
            EXPECT_GT(log.busy[i].first, log.busy[i - 1].second);
    }
}

TEST(Drive, UtilizationWithinBounds)
{
    Rng rng(2);
    synth::Workload w = synth::Workload::makeOltp(100000, 80.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    EXPECT_GT(log.utilization(), 0.0);
    EXPECT_LE(log.utilization(), 1.0);
    EXPECT_LE(log.busyTime(), log.window_end - log.window_start);
}

TEST(Drive, AllRequestsComplete)
{
    Rng rng(3);
    synth::Workload w = synth::Workload::makeOltp(100000, 50.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    EXPECT_EQ(log.completions.size(), tr.size());
    // Every index appears exactly once.
    std::vector<bool> seen(tr.size(), false);
    for (const Completion &c : log.completions) {
        ASSERT_LT(c.index, tr.size());
        EXPECT_FALSE(seen[c.index]);
        seen[c.index] = true;
        EXPECT_GE(c.finish, c.arrival);
    }
}

TEST(Drive, CacheReducesMeanResponse)
{
    Rng rng(4);
    synth::Workload w = synth::Workload::makeFileServer(100000, 60.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    ServiceLog with = DiskDrive(testConfig(true)).service(tr);
    ServiceLog without = DiskDrive(testConfig(false)).service(tr);
    EXPECT_LT(with.meanResponse(), without.meanResponse());
}

TEST(Drive, SstfBeatsFcfsOnRandomLoad)
{
    Rng rng(5);
    synth::Workload w = synth::Workload::makeOltp(100000, 120.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);

    DriveConfig fcfs = testConfig(false);
    DriveConfig sstf = testConfig(false);
    sstf.sched = SchedPolicy::Sstf;
    ServiceLog lf = DiskDrive(fcfs).service(tr);
    ServiceLog ls = DiskDrive(sstf).service(tr);
    // SSTF spends less time seeking: lower total busy time.
    EXPECT_LT(ls.busyTime(), lf.busyTime());
}

TEST(Drive, IdleIntervalsComplementBusy)
{
    Rng rng(6);
    synth::Workload w = synth::Workload::makeOltp(100000, 20.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(true)).service(tr);
    Tick idle = 0;
    for (Tick g : log.idleIntervals())
        idle += g;
    EXPECT_EQ(idle + log.busyTime(),
              log.window_end - log.window_start);
}

TEST(Drive, ResponseQuantilesOrdered)
{
    Rng rng(7);
    synth::Workload w = synth::Workload::makeOltp(100000, 50.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(true)).service(tr);
    EXPECT_LE(log.responseQuantile(0.5), log.responseQuantile(0.9));
    EXPECT_LE(log.responseQuantile(0.9), log.responseQuantile(0.99));
}

TEST(Drive, EmptyTraceProducesEmptyLog)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    ServiceLog log = drive.service(tr);
    EXPECT_TRUE(log.completions.empty());
    EXPECT_EQ(log.busyTime(), 0);
    EXPECT_DOUBLE_EQ(log.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(log.meanResponse(), 0.0);
}

TEST(Drive, UtilizationSeriesDropsPartialTrailingBin)
{
    ServiceLog log;
    log.window_start = 0;
    log.window_end = 25 * kSec; // 2 full 10 s bins + 5 s tail
    log.busy.emplace_back(0, 5 * kSec);
    log.busy.emplace_back(20 * kSec, 25 * kSec);
    stats::BinnedSeries u = log.utilizationSeries(10 * kSec);
    ASSERT_EQ(u.size(), 2u);
    EXPECT_DOUBLE_EQ(u.at(0), 0.5);
    EXPECT_DOUBLE_EQ(u.at(1), 0.0);
}

TEST(Drive, UtilizationSeriesShortWindowSingleBin)
{
    ServiceLog log;
    log.window_start = 0;
    log.window_end = 4 * kSec; // shorter than one bin
    log.busy.emplace_back(0, kSec);
    stats::BinnedSeries u = log.utilizationSeries(10 * kSec);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_DOUBLE_EQ(u.at(0), 0.25); // normalized by covered span
}

TEST(Drive, UtilizationSeriesMatchesTotals)
{
    Rng rng(8);
    synth::Workload w = synth::Workload::makeOltp(100000, 40.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(false)).service(tr);
    stats::BinnedSeries busy = log.busySeries(kSec);
    EXPECT_NEAR(busy.total(), static_cast<double>(log.busyTime()),
                1.0);
}

// The digests below were recorded from the engine before its event
// loop was rewritten; they pin the exact (tick, priority, order)
// semantics of every event, so any change in event order shows up.

TEST(DriveGolden, OltpPlusBackupDigests)
{
    const DriveConfig base = DriveConfig::makeEnterprise();
    const Lba cap = base.geometry.capacityBlocks();
    Rng rng(2009);
    const trace::MsTrace oltp = synth::Workload::makeOltp(cap, 200.0, 11)
                                    .generate(rng, "oltp", 0, kMinute);
    const trace::MsTrace backup = synth::Workload::makeBackup(cap, 40.0)
                                      .generate(rng, "backup", 0, kMinute);
    const trace::MsTrace tr = trace::merge({oltp, backup});

    struct Case
    {
        SchedPolicy sched;
        bool cache;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {SchedPolicy::Fcfs, true, 0xd1f2991ba5b95b3fULL},
        {SchedPolicy::Fcfs, false, 0x51adba8cd365f417ULL},
        {SchedPolicy::Sstf, true, 0x50d11c80433bdb71ULL},
        {SchedPolicy::Sstf, false, 0xf5607a78ee470076ULL},
    };
    for (const Case &c : cases) {
        DriveConfig cfg = base;
        cfg.sched = c.sched;
        cfg.cache.enabled = c.cache;
        const ServiceLog log = DiskDrive(cfg).service(tr);
        EXPECT_EQ(logDigest(log), c.digest)
            << schedPolicyName(c.sched) << " cache "
            << (c.cache ? "on" : "off") << std::hex << " got 0x"
            << logDigest(log);
    }
}

TEST(DriveGolden, ArrivalAtServiceDoneIsQueuedBeforeThePick)
{
    DriveConfig cfg = testConfig(false);
    cfg.sched = SchedPolicy::Sstf;
    const Tick done =
        DiskDrive(cfg).service(singleRead(0, 10)).completions[0].finish;

    // A is in service; B (far) waits; C (near the head) arrives on
    // the very tick A finishes.  The arrival fires first, so the
    // pick at that tick sees both and SSTF takes C.
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(0, 0, 10, trace::Op::Read));
    tr.append(req(1, 99000, 10, trace::Op::Read));
    tr.append(req(done, 20, 10, trace::Op::Read));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    ASSERT_EQ(log.completions.size(), 3u);
    EXPECT_EQ(log.completions[1].index, 2u);
    EXPECT_EQ(log.completions[1].start, done);
    EXPECT_EQ(log.completions[2].index, 1u);
    EXPECT_EQ(logDigest(log), 0xa533b566b9ac7380ULL)
        << std::hex << "got 0x" << logDigest(log);
}

TEST(DriveGolden, ArrivalAtDestageTimerPreemptsTheDestage)
{
    const DriveConfig cfg = testConfig(true);
    // The buffered write leaves the drive idle and dirty at tick 0,
    // arming the destage timer for destage_idle_wait.  A read miss
    // arriving on that very tick fires first and cancels the timer,
    // so the mechanism serves the read before any destage.
    const Tick timer = cfg.destage_idle_wait;
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(0, 5000, 100, trace::Op::Write));
    tr.append(req(timer, 60000, 10, trace::Op::Read));
    tr.append(req(500 * kMsec, 70000, 10, trace::Op::Read));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    ASSERT_EQ(log.completions.size(), 3u);
    EXPECT_EQ(log.completions[1].index, 1u);
    EXPECT_EQ(log.completions[1].start, timer);
    ASSERT_FALSE(log.busy.empty());
    EXPECT_EQ(log.busy[0].first, timer);
    EXPECT_EQ(log.destages, 1u);
    EXPECT_EQ(logDigest(log), 0xe73e21e7e1312e92ULL)
        << std::hex << "got 0x" << logDigest(log);
}

TEST(DriveEngine, ArrivalBeforeTheDestageTimerRestartsTheIdleWait)
{
    const DriveConfig cfg = testConfig(true);
    const Tick wait = cfg.destage_idle_wait;
    // Two buffered writes leave the drive idle and dirty; the second
    // arrives while the first one's timer is armed, disarms it, and
    // the drive waits a full idle period from there.
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(0, 5000, 100, trace::Op::Write));
    tr.append(req(wait / 2, 50000, 100, trace::Op::Write));
    tr.append(req(500 * kMsec, 90000, 10, trace::Op::Read));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    ASSERT_FALSE(log.busy.empty());
    EXPECT_EQ(log.busy[0].first, wait / 2 + wait);
    EXPECT_EQ(log.destages, 2u);
}

TEST(DriveEngine, LastArrivalDrainsWithoutTheIdleWait)
{
    const DriveConfig cfg = testConfig(true);
    // Nothing is left to arrive, so the destage starts on the tick
    // the drive goes idle instead of destage_idle_wait later.
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(10 * kMsec, 5000, 100, trace::Op::Write));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    ASSERT_EQ(log.busy.size(), 1u);
    EXPECT_EQ(log.busy[0].first, 10 * kMsec);
    EXPECT_EQ(log.destages, 1u);
}

TEST(DriveEngine, DestagesDrainBackToBack)
{
    const DriveConfig cfg = testConfig(true);
    const Tick wait = cfg.destage_idle_wait;
    // Three dirty extents far apart: once the timer fires they are
    // destaged back to back, so the mechanism shows one busy
    // interval starting at the timer, then the late read's own.
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(0, 1000, 100, trace::Op::Write));
    tr.append(req(1, 30000, 100, trace::Op::Write));
    tr.append(req(2, 60000, 100, trace::Op::Write));
    tr.append(req(500 * kMsec, 95000, 10, trace::Op::Read));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    EXPECT_EQ(log.destages, 3u);
    ASSERT_EQ(log.busy.size(), 2u);
    EXPECT_EQ(log.busy[0].first, 2 + wait);
    EXPECT_LT(log.busy[0].second, 500 * kMsec);
    EXPECT_EQ(log.busy[1].first, 500 * kMsec);
}

TEST(DriveEngine, ForegroundArrivalWaitsForOneDestageThenPreempts)
{
    const DriveConfig cfg = testConfig(true);
    const Tick timer = 2 + cfg.destage_idle_wait;
    // A read miss arriving just after the destage chain starts waits
    // for the destage in flight, not for the whole chain; the rest
    // of the buffer drains after the read.
    trace::MsTrace tr("t", 0, kSec);
    tr.append(req(0, 1000, 100, trace::Op::Write));
    tr.append(req(1, 30000, 100, trace::Op::Write));
    tr.append(req(2, 60000, 100, trace::Op::Write));
    tr.append(req(timer + 1, 95000, 10, trace::Op::Read));
    const ServiceLog log = DiskDrive(cfg).service(tr);
    ASSERT_EQ(log.completions.size(), 4u);
    const Completion &read = log.completions[3];
    ASSERT_EQ(read.index, 3u);
    EXPECT_FALSE(read.cache_hit);
    EXPECT_GT(read.start, read.arrival);
    EXPECT_EQ(log.destages, 3u);
    ASSERT_FALSE(log.busy.empty());
    EXPECT_EQ(log.busy.front().first, timer);
    EXPECT_GT(log.busy.back().second, read.finish);
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
