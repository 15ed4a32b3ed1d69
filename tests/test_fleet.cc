/**
 * @file
 * Unit tests for the fleet engine: thread pool semantics, merge
 * associativity of the core statistics, and the determinism
 * contract (parallel aggregates bit-identical to serial ones).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "fleet/merge.hh"
#include "fleet/pipeline.hh"
#include "fleet/pool.hh"
#include "stats/ecdf.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace fleet
{
namespace
{

// A small but non-trivial fleet: every Mixed class appears twice.
FleetConfig
smallFleet(std::size_t threads)
{
    FleetConfig cfg;
    cfg.drives = 8;
    cfg.threads = threads;
    cfg.preset = FleetPreset::Mixed;
    cfg.seed = 7;
    cfg.rate = 40.0;
    cfg.window = 20 * kSec;
    return cfg;
}

// ---- ThreadPool ------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { ++done; }, qos::WorkClass::kInteractive);
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    ThreadPool pool(3);
    std::vector<int> hits(57, 0);
    parallelFor(pool, hits.size(),
                [&hits](std::size_t i) { hits[i] = 1; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, DrainsCleanlyOnTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit(
            [&done, i] {
                if (i == 5)
                    throw std::runtime_error("task 5 failed");
                ++done;
            },
            qos::WorkClass::kInteractive);
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every other task still ran: the failure did not poison the
    // pool or drop queued work.
    EXPECT_EQ(done.load(), 19);

    // And the pool stays usable: the error does not stick.
    pool.submit([&done] { ++done; }, qos::WorkClass::kInteractive);
    pool.wait();
    EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, SingleThreadWorks)
{
    ThreadPool pool(1);
    std::atomic<int> done{0};
    parallelFor(pool, 10, [&done](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 10);
}

// ---- Merge associativity ---------------------------------------

TEST(FleetMerge, SummaryMergeIsAssociative)
{
    Rng rng(11);
    stats::Summary a, b, c;
    for (int i = 0; i < 1000; ++i) {
        a.add(rng.lognormal(0.0, 1.0));
        b.add(rng.exponential(2.0));
        c.add(rng.normal(5.0, 1.5));
    }

    stats::Summary left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    stats::Summary bc = b; // a + (b + c)
    bc.merge(c);
    stats::Summary right = a;
    right.merge(bc);

    EXPECT_EQ(left.count(), right.count());
    EXPECT_DOUBLE_EQ(left.min(), right.min());
    EXPECT_DOUBLE_EQ(left.max(), right.max());
    EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
}

TEST(FleetMerge, LogHistogramMergeIsAssociative)
{
    Rng rng(12);
    stats::LogHistogram a = makeResponseHistogram();
    stats::LogHistogram b = makeResponseHistogram();
    stats::LogHistogram c = makeResponseHistogram();
    for (int i = 0; i < 2000; ++i) {
        a.add(rng.pareto(1.2, 0.1));
        b.add(rng.lognormal(1.0, 2.0));
        c.add(rng.exponential(10.0));
    }

    stats::LogHistogram left = a;
    left.merge(b);
    left.merge(c);
    stats::LogHistogram bc = b;
    bc.merge(c);
    stats::LogHistogram right = a;
    right.merge(bc);

    // Unit-weight adds keep every bin integral, so both orders are
    // exactly equal bin by bin.
    ASSERT_EQ(left.binCount(), right.binCount());
    EXPECT_DOUBLE_EQ(left.total(), right.total());
    EXPECT_DOUBLE_EQ(left.underflow(), right.underflow());
    EXPECT_DOUBLE_EQ(left.overflow(), right.overflow());
    for (std::size_t i = 0; i < left.binCount(); ++i)
        EXPECT_DOUBLE_EQ(left.binWeight(i), right.binWeight(i));
}

TEST(FleetMerge, ReduceOrderedIgnoresStorageOrder)
{
    const FleetConfig cfg = smallFleet(1);
    FleetResult r = runFleet(cfg);

    std::vector<DriveShard> reversed(r.shards.rbegin(),
                                     r.shards.rend());
    FleetAggregate again = reduceOrdered(reversed);
    EXPECT_DOUBLE_EQ(again.response_ms.mean(),
                     r.aggregate.response_ms.mean());
    EXPECT_DOUBLE_EQ(again.response_ms.variance(),
                     r.aggregate.response_ms.variance());
    EXPECT_EQ(again.util_ecdf.sorted(),
              r.aggregate.util_ecdf.sorted());
}

// ---- Pipeline determinism --------------------------------------

void
expectShardsEqual(const DriveShard &a, const DriveShard &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.drive_id, b.drive_id);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.longest_saturated_s, b.longest_saturated_s);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.busy_second_fraction, b.busy_second_fraction);
    EXPECT_EQ(a.response_ms.mean(), b.response_ms.mean());
    EXPECT_EQ(a.response_ms.variance(), b.response_ms.variance());
}

TEST(FleetPipeline, ParallelEqualsSerialAtEveryThreadCount)
{
    const FleetResult serial = runFleet(smallFleet(1));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const FleetResult parallel = runFleet(smallFleet(threads));
        ASSERT_EQ(parallel.shards.size(), serial.shards.size());
        for (std::size_t i = 0; i < serial.shards.size(); ++i)
            expectShardsEqual(parallel.shards[i], serial.shards[i]);

        // The aggregates agree bit for bit...
        EXPECT_EQ(parallel.aggregate.response_ms.mean(),
                  serial.aggregate.response_ms.mean());
        EXPECT_EQ(parallel.aggregate.response_ms.variance(),
                  serial.aggregate.response_ms.variance());
        EXPECT_EQ(parallel.aggregate.util.mean(),
                  serial.aggregate.util.mean());
        EXPECT_EQ(parallel.aggregate.volumeGini(),
                  serial.aggregate.volumeGini());

        // ...and so does the rendered report, byte for byte.
        EXPECT_EQ(renderFleetReport(smallFleet(threads), parallel),
                  renderFleetReport(smallFleet(1), serial));
    }
}

TEST(FleetPipeline, ReportIsBatchSizeInvariant)
{
    // Each shard streams its workload through the drive model in
    // batches; shards and report must agree byte for byte with a
    // default-batch run at any batch size.
    const FleetConfig ref_cfg = smallFleet(1);
    const FleetResult reference = runFleet(ref_cfg);

    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}}) {
        FleetConfig cfg = smallFleet(2);
        cfg.batch_requests = batch;
        const FleetResult streamed = runFleet(cfg);
        ASSERT_EQ(streamed.shards.size(), reference.shards.size());
        for (std::size_t i = 0; i < reference.shards.size(); ++i)
            expectShardsEqual(streamed.shards[i],
                              reference.shards[i]);
        EXPECT_EQ(renderFleetReport(cfg, streamed),
                  renderFleetReport(ref_cfg, reference));
    }
}

TEST(FleetPipeline, CharacterizeDriveIsPure)
{
    const FleetConfig cfg = smallFleet(1);
    const DriveShard once = characterizeDrive(cfg, 3);
    const DriveShard twice = characterizeDrive(cfg, 3);
    expectShardsEqual(once, twice);
}

TEST(FleetPipeline, DrivesDiffer)
{
    const FleetConfig cfg = smallFleet(1);
    // Same class (Mixed rotates mod 4), different index: different
    // RNG stream, different trace.
    const DriveShard d0 = characterizeDrive(cfg, 0);
    const DriveShard d4 = characterizeDrive(cfg, 4);
    EXPECT_EQ(d0.klass, d4.klass);
    EXPECT_NE(d0.requests, d4.requests);
}

TEST(FleetPipeline, MixedPresetRotatesClasses)
{
    const FleetConfig cfg = smallFleet(1);
    EXPECT_EQ(characterizeDrive(cfg, 0).klass, "oltp");
    EXPECT_EQ(characterizeDrive(cfg, 1).klass, "fileserver");
    EXPECT_EQ(characterizeDrive(cfg, 2).klass, "streaming");
    EXPECT_EQ(characterizeDrive(cfg, 3).klass, "backup");
}

TEST(FleetPipeline, ReportMentionsEveryView)
{
    const FleetResult r = runFleet(smallFleet(2));
    const std::string report = renderFleetReport(smallFleet(2), r);
    EXPECT_NE(report.find("fleet aggregate"), std::string::npos);
    EXPECT_NE(report.find("cross-drive variability"),
              std::string::npos);
    EXPECT_NE(report.find("behavioural tiers"), std::string::npos);
    EXPECT_NE(report.find("saturated streaming"), std::string::npos);
}

// ---- Keyed RNG forks (the seeding contract) --------------------

TEST(FleetSeeding, KeyedForkIgnoresParentConsumption)
{
    Rng fresh(99);
    Rng used(99);
    for (int i = 0; i < 1000; ++i)
        used.uniform(); // burn state
    Rng a = fresh.fork(17);
    Rng b = used.fork(17);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(FleetSeeding, KeyedForkStreamsAreDistinct)
{
    Rng parent(123);
    Rng s0 = parent.fork(0);
    Rng s1 = parent.fork(1);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= (s0.uniform() != s1.uniform());
    EXPECT_TRUE(any_diff);
}

} // anonymous namespace
} // namespace fleet
} // namespace dlw
