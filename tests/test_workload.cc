/**
 * @file
 * Tests for the synth/workload composer and its presets.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "synth/bmodel.hh"
#include "stats/summary.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace synth
{
namespace
{

constexpr Lba kCap = 1 << 22;

TEST(Workload, GeneratedTraceIsValid)
{
    Rng rng(1);
    Workload w = Workload::makeOltp(kCap, 50.0);
    trace::MsTrace tr = w.generate(rng, "d0", 0, 60 * kSec);
    EXPECT_EQ(tr.driveId(), "d0");
    EXPECT_TRUE(tr.validate());
    EXPECT_GT(tr.size(), 0u);
    for (const trace::Request &r : tr.requests())
        EXPECT_LE(r.lbaEnd(), kCap);
}

TEST(Workload, RateApproximatelyDeclared)
{
    Rng rng(2);
    Workload w = Workload::makeOltp(kCap, 80.0);
    trace::MsTrace tr = w.generate(rng, "d", 0, 300 * kSec);
    EXPECT_NEAR(tr.arrivalRate(), 80.0, 12.0);
}

TEST(Workload, MixMatchesReadFraction)
{
    Rng rng(3);
    Workload w;
    w.setArrival(std::make_unique<PoissonArrivals>(500.0));
    w.setSize(std::make_unique<FixedSize>(8));
    w.setSpatial(std::make_unique<UniformSpatial>(kCap));
    w.setMix(0.25);
    trace::MsTrace tr = w.generate(rng, "d", 0, 120 * kSec);
    EXPECT_NEAR(tr.readFraction(), 0.25, 0.02);
}

TEST(Workload, PersistenceLengthensRunsAtSameMix)
{
    Rng rng(4);
    auto build = [&](double persistence) {
        Workload w;
        w.setArrival(std::make_unique<PoissonArrivals>(500.0));
        w.setSize(std::make_unique<FixedSize>(8));
        w.setSpatial(std::make_unique<UniformSpatial>(kCap));
        w.setMix(0.5, persistence);
        return w.generate(rng, "d", 0, 120 * kSec);
    };
    trace::MsTrace independent = build(0.0);
    trace::MsTrace persistent = build(0.9);
    // Long-run mix unchanged...
    EXPECT_NEAR(persistent.readFraction(), 0.5, 0.03);
    // ...but direction changes much rarer.
    auto changes = [](const trace::MsTrace &tr) {
        std::size_t c = 0;
        for (std::size_t i = 1; i < tr.size(); ++i) {
            if (tr.at(i).isRead() != tr.at(i - 1).isRead())
                ++c;
        }
        return static_cast<double>(c) /
               static_cast<double>(tr.size());
    };
    EXPECT_LT(changes(persistent), changes(independent) * 0.5);
}

TEST(Workload, StreamingIsSequentialAndLarge)
{
    Rng rng(5);
    Workload w = Workload::makeStreaming(kCap, 10.0);
    trace::MsTrace tr = w.generate(rng, "d", 0, 120 * kSec);
    EXPECT_GT(tr.sequentialFraction(), 0.9);
    EXPECT_GT(tr.meanRequestBlocks(), 500.0);
    EXPECT_GT(tr.readFraction(), 0.85);
}

TEST(Workload, BackupIsWriteDominated)
{
    Rng rng(6);
    Workload w = Workload::makeBackup(kCap, 20.0);
    trace::MsTrace tr = w.generate(rng, "d", 0, 120 * kSec);
    EXPECT_LT(tr.readFraction(), 0.2);
    EXPECT_GT(tr.sequentialFraction(), 0.5);
}

TEST(Workload, OltpBurstierThanStreaming)
{
    Rng rng(7);
    Workload oltp = Workload::makeOltp(kCap, 50.0);
    Workload stream = Workload::makeStreaming(kCap, 50.0);
    trace::MsTrace to = oltp.generate(rng, "o", 0, 120 * kSec);
    trace::MsTrace ts = stream.generate(rng, "s", 0, 120 * kSec);
    stats::Summary go, gs;
    for (double g : to.interarrivals())
        go.add(g);
    for (double g : ts.interarrivals())
        gs.add(g);
    EXPECT_GT(go.cv(), gs.cv());
}

TEST(Workload, GenerateFromArrivalsUsesGivenTicks)
{
    Rng rng(8);
    Workload w = Workload::makeOltp(kCap, 50.0);
    BModel bm(0.8, 10);
    auto arrivals = bm.arrivals(rng, 0, 10 * kSec, 5000);
    trace::MsTrace tr =
        w.generateFromArrivals(rng, "d", 0, 10 * kSec, arrivals);
    ASSERT_EQ(tr.size(), arrivals.size());
    for (std::size_t i = 0; i < tr.size(); ++i)
        EXPECT_EQ(tr.at(i).arrival, arrivals[i]);
    EXPECT_TRUE(tr.validate());
}

TEST(Workload, DeterministicForSameSeed)
{
    Workload w1 = Workload::makeFileServer(kCap, 30.0);
    Workload w2 = Workload::makeFileServer(kCap, 30.0);
    Rng r1(99), r2(99);
    trace::MsTrace a = w1.generate(r1, "d", 0, 30 * kSec);
    trace::MsTrace b = w2.generate(r2, "d", 0, 30 * kSec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a.at(i) == b.at(i));
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

/** Drain a source the way the fleet does and digest every request. */
std::uint64_t
streamDigest(trace::RequestSource &src, std::size_t *count)
{
    Fnv64 d;
    trace::RequestBatch batch;
    *count = 0;
    while (src.next(batch)) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            d.add(static_cast<std::uint64_t>(batch.arrival(i)));
            d.add(batch.lba(i));
            d.add(batch.blocks(i));
            d.add(static_cast<std::uint64_t>(batch.op(i)));
        }
        *count += batch.size();
    }
    return d.value();
}

// Recorded while Rng wrapped std::mt19937_64 and the std::
// distributions.  Each class is seeded as a fleet drive is (a keyed
// fork, then one raw draw for the workload's own seed), so these pin
// the exact request stream every fleet figure is computed from.
TEST(WorkloadGolden, ClassStreamDigests)
{
    const Lba cap =
        disk::DriveConfig::makeEnterprise().geometry.capacityBlocks();
    const Tick window = 10 * kMinute;
    constexpr double kRate = 120.0;

    struct Case
    {
        const char *klass;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"oltp", 0xa8ae2fffc062e2feULL},
        {"fileserver", 0xf67c45e13697afd8ULL},
        {"streaming", 0x1d89f6c9c6af39a2ULL},
        {"backup", 0x2705d1f4be5b17f0ULL},
    };
    std::uint64_t index = 0;
    for (const Case &c : cases) {
        Rng rng = Rng(2009).fork(index++);
        const std::uint64_t wseed = rng.engine()();
        const std::string klass = c.klass;
        const Workload w = klass == "oltp"
            ? Workload::makeOltp(cap, kRate, wseed)
            : klass == "fileserver"
            ? Workload::makeFileServer(cap, kRate, wseed)
            : klass == "streaming" ? Workload::makeStreaming(cap, kRate)
                                   : Workload::makeBackup(cap, kRate);
        WorkloadSource src = w.openSource(rng, klass, 0, window);
        std::size_t count = 0;
        const std::uint64_t digest = streamDigest(src, &count);
        EXPECT_GT(count, 50000u) << klass;
        EXPECT_EQ(digest, c.digest)
            << klass << std::hex << " got 0x" << digest << std::dec
            << " over " << count << " requests";
    }

    // Arrivals drawn outside the workload: a b-model cascade.
    Rng rng(2010);
    const Workload w = Workload::makeFileServer(cap, kRate, 3);
    std::vector<Tick> arrivals =
        BModel(0.8, 12).arrivals(rng, 0, window, 72000);
    WorkloadSource src =
        w.openSourceFromArrivals(rng, "bmodel", 0, window,
                                 std::move(arrivals));
    std::size_t count = 0;
    const std::uint64_t digest = streamDigest(src, &count);
    EXPECT_EQ(count, 72000u);
    EXPECT_EQ(digest, 0x9c1aded850b98d27ULL)
        << "bmodel" << std::hex << " got 0x" << digest;
}

TEST(WorkloadDeathTest, MissingComponents)
{
    Workload w;
    Rng rng(10);
    EXPECT_DEATH(w.generate(rng, "d", 0, kSec),
                 "no arrival process");
    w.setArrival(std::make_unique<PoissonArrivals>(10.0));
    EXPECT_DEATH(w.generate(rng, "d", 0, kSec), "no size model");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
