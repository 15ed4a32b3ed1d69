/**
 * @file
 * Tests for the closed-loop load generator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "disk/closedloop.hh"

namespace dlw
{
namespace disk
{
namespace
{

DriveConfig
drive(bool cache = false)
{
    DriveConfig cfg = DriveConfig::makeEnterprise();
    cfg.cache.enabled = cache;
    return cfg;
}

RequestFactory
uniformReads(Lba capacity)
{
    return [capacity](Rng &rng) {
        trace::Request r;
        r.lba = static_cast<Lba>(
            rng.uniformInt(0, static_cast<std::int64_t>(capacity) -
                                  9));
        r.blocks = 8;
        r.op = trace::Op::Read;
        return r;
    };
}

ClosedLoopConfig
cfg(std::size_t clients, Tick think = 10 * kMsec,
    Tick duration = 30 * kSec)
{
    ClosedLoopConfig c;
    c.clients = clients;
    c.mean_think = think;
    c.duration = duration;
    c.seed = 7;
    return c;
}

TEST(ClosedLoop, SingleClientAlternatesThinkAndService)
{
    DriveConfig d = drive();
    auto res = runClosedLoop(d, uniformReads(
        d.geometry.capacityBlocks()), cfg(1));
    EXPECT_GT(res.completed, 100u);
    // One client: throughput = 1 / (think + response).
    const double cycle = 0.010 + res.mean_response;
    EXPECT_NEAR(res.throughput, 1.0 / cycle, 0.15 / cycle);
    EXPECT_LE(res.utilization, 1.0);
}

TEST(ClosedLoop, ThroughputGrowsThenSaturates)
{
    DriveConfig d = drive();
    const Lba cap = d.geometry.capacityBlocks();
    auto t1 = runClosedLoop(d, uniformReads(cap), cfg(1));
    auto t4 = runClosedLoop(d, uniformReads(cap), cfg(4));
    auto t32 = runClosedLoop(d, uniformReads(cap), cfg(32));
    auto t64 = runClosedLoop(d, uniformReads(cap), cfg(64));

    EXPECT_GT(t4.throughput, 1.8 * t1.throughput);
    EXPECT_GT(t32.throughput, t4.throughput);
    // Saturation: doubling clients past the knee gains little.
    EXPECT_LT(t64.throughput, 1.15 * t32.throughput);
    EXPECT_GT(t64.utilization, 0.95);
}

TEST(ClosedLoop, ResponseGrowsWithConcurrency)
{
    DriveConfig d = drive();
    const Lba cap = d.geometry.capacityBlocks();
    auto lo = runClosedLoop(d, uniformReads(cap), cfg(2));
    auto hi = runClosedLoop(d, uniformReads(cap), cfg(64));
    EXPECT_GT(hi.mean_response, 3.0 * lo.mean_response);
}

TEST(ClosedLoop, LittlesLawHolds)
{
    // N = X * (R + Z) for a closed network.
    DriveConfig d = drive();
    const Lba cap = d.geometry.capacityBlocks();
    for (std::size_t n : {std::size_t{2}, std::size_t{8},
                          std::size_t{24}}) {
        auto res = runClosedLoop(d, uniformReads(cap),
                                 cfg(n, 10 * kMsec, 60 * kSec));
        const double lhs = static_cast<double>(n);
        const double rhs =
            res.throughput * (res.mean_response + 0.010);
        EXPECT_NEAR(rhs, lhs, 0.1 * lhs) << "clients " << n;
    }
}

TEST(ClosedLoop, SequentialReadsHitCache)
{
    DriveConfig d = drive(true);
    Lba next = 0;
    const Lba cap = d.geometry.capacityBlocks();
    RequestFactory seq = [&next, cap](Rng &) {
        trace::Request r;
        r.lba = next % (cap - 8);
        next += 8;
        r.blocks = 8;
        r.op = trace::Op::Read;
        return r;
    };
    auto res = runClosedLoop(d, seq, cfg(1));
    EXPECT_GT(res.cache_hits, res.completed / 2);
    // Cache hits push single-client throughput far above the
    // mechanical rate.
    EXPECT_GT(res.throughput, 80.0);
}

TEST(ClosedLoop, BufferedWritesAreFast)
{
    DriveConfig d = drive(true);
    const Lba cap = d.geometry.capacityBlocks();
    RequestFactory writes = [cap](Rng &rng) {
        trace::Request r;
        r.lba = static_cast<Lba>(
            rng.uniformInt(0, static_cast<std::int64_t>(cap) - 9));
        r.blocks = 8;
        r.op = trace::Op::Write;
        return r;
    };
    auto with = runClosedLoop(d, writes, cfg(4));
    DriveConfig d_off = drive(false);
    auto without = runClosedLoop(d_off, writes, cfg(4));
    // Sustained random-write throughput is destage-bound, so the
    // buffer cannot multiply it; but acknowledgment latency drops
    // and some throughput is gained from burst absorption.
    EXPECT_GE(with.throughput, without.throughput);
    EXPECT_LT(with.mean_response, 0.5 * without.mean_response);
    EXPECT_GT(with.cache_hits, 0u);
}

TEST(ClosedLoop, ZeroThinkTimeSaturatesAtOneClientQueue)
{
    DriveConfig d = drive();
    const Lba cap = d.geometry.capacityBlocks();
    auto res = runClosedLoop(d, uniformReads(cap),
                             cfg(16, 0, 20 * kSec));
    EXPECT_GT(res.utilization, 0.97);
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

    void
    addDouble(double x)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(ClosedLoopGolden, ZeroThinkBufferedWritesDigest)
{
    // Twelve clients with zero think time put many events on the
    // same tick, and a 40% write mix keeps the write buffer and the
    // opportunistic destage busy.  The factory hashes every request
    // it issues, in issue order, so the digest pins the submission
    // order as well as the totals.  Recorded from the engine before
    // its event loop was rewritten.
    DriveConfig d = drive(true);
    const Lba cap = d.geometry.capacityBlocks();
    Fnv64 issued;
    RequestFactory mixed = [cap, &issued](Rng &rng) {
        trace::Request r;
        r.op = rng.bernoulli(0.4) ? trace::Op::Write : trace::Op::Read;
        r.lba = static_cast<Lba>(
            rng.uniformInt(0, static_cast<std::int64_t>(cap) - 65));
        r.blocks = 8 * static_cast<BlockCount>(rng.uniformInt(1, 8));
        issued.add(r.lba);
        issued.add(r.blocks);
        issued.add(r.isWrite());
        return r;
    };
    const ClosedLoopResult res =
        runClosedLoop(d, mixed, cfg(12, 0, 5 * kSec));

    Fnv64 digest;
    digest.add(issued.value());
    digest.add(res.completed);
    digest.add(res.cache_hits);
    digest.addDouble(res.throughput);
    digest.addDouble(res.mean_response);
    digest.addDouble(res.utilization);
    EXPECT_GT(res.cache_hits, 0u);
    EXPECT_EQ(digest.value(), 0x55b710037e7c76cdULL)
        << std::hex << "got 0x" << digest.value();
}

TEST(ClosedLoop, EventsAtExactlyTheDurationRun)
{
    // One client rereads one extent with zero think time: the first
    // read is a miss served at `miss`, every later read hits the
    // cache and completes one controller overhead after the last.
    // The first hit is submitted at `miss` itself.
    const DriveConfig d = drive(true);
    RequestFactory sameExtent = [](Rng &) {
        trace::Request r;
        r.lba = 1000;
        r.blocks = 8;
        r.op = trace::Op::Read;
        return r;
    };
    Rng unused(1);
    trace::MsTrace one("t", 0, kSec);
    one.append(sameExtent(unused));
    const Tick miss =
        DiskDrive(d).service(one).completions[0].finish;
    const Tick end = miss + 3 * d.overhead;

    // Submissions at miss, miss + ov, miss + 2ov and miss + 3ov: the
    // last one is exactly at the duration and still runs.
    const ClosedLoopResult at =
        runClosedLoop(d, sameExtent, cfg(1, 0, end));
    EXPECT_EQ(at.completed, 5u);
    EXPECT_EQ(at.cache_hits, 4u);
    const ClosedLoopResult before =
        runClosedLoop(d, sameExtent, cfg(1, 0, end - 1));
    EXPECT_EQ(before.completed, 4u);
    EXPECT_EQ(before.cache_hits, 3u);
}

TEST(ClosedLoopDeathTest, BadConfig)
{
    DriveConfig d = drive();
    auto factory = uniformReads(d.geometry.capacityBlocks());
    ClosedLoopConfig c = cfg(0);
    EXPECT_DEATH(runClosedLoop(d, factory, c), "at least one client");
    c = cfg(1);
    c.duration = 0;
    EXPECT_DEATH(runClosedLoop(d, factory, c), "positive");
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
