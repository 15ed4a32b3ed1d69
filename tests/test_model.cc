/**
 * @file
 * Unit tests for disk/model (mechanical service time).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "disk/model.hh"

namespace dlw
{
namespace disk
{
namespace
{

DiskModel
tinyModel()
{
    std::vector<Zone> zones = {{0, 1000, 100}};
    DiskGeometry g(std::move(zones), 6000); // 10 ms/rev
    SeekModel s(g.cylinders(), 200 * kUsec, 3 * kMsec, 6 * kMsec);
    return DiskModel(std::move(g), s);
}

TEST(Model, AngleAtWrapsWithRotation)
{
    DiskModel m = tinyModel();
    EXPECT_DOUBLE_EQ(m.angleAt(0), 0.0);
    EXPECT_DOUBLE_EQ(m.angleAt(5 * kMsec), 0.5);
    EXPECT_DOUBLE_EQ(m.angleAt(10 * kMsec), 0.0);
    EXPECT_DOUBLE_EQ(m.angleAt(12500 * kUsec), 0.25);
}

TEST(Model, NoSeekSameCylinder)
{
    DiskModel m = tinyModel();
    // Head on cylinder 0, access block 0 at t=0: angle already 0,
    // so rotation wait is 0 and transfer of 10 blocks = 1 ms.
    MechanicalTime mt = m.access(0, 0, 0, 10);
    EXPECT_EQ(mt.seek, 0);
    EXPECT_EQ(mt.rotation, 0);
    EXPECT_EQ(mt.transfer, kMsec);
    EXPECT_EQ(mt.total(), kMsec);
}

TEST(Model, RotationWaitsForTargetSector)
{
    DiskModel m = tinyModel();
    // Target block 50 has angle 0.5; at t=0 the platter angle is 0,
    // so the head waits half a revolution = 5 ms.
    MechanicalTime mt = m.access(0, 0, 50, 1);
    EXPECT_EQ(mt.seek, 0);
    EXPECT_EQ(mt.rotation, 5 * kMsec);
}

TEST(Model, RotationAccountsForSeekTime)
{
    DiskModel m = tinyModel();
    // Seek from cylinder 0 to cylinder 5 takes some time; the
    // rotational wait must be computed at seek completion.
    MechanicalTime mt = m.access(0, 0, 500, 1);
    EXPECT_GT(mt.seek, 0);
    const double angle_after_seek =
        m.angleAt(mt.seek);
    const double target = m.geometry().angleOf(500);
    double wait = target - angle_after_seek;
    if (wait < 0.0)
        wait += 1.0;
    EXPECT_NEAR(static_cast<double>(mt.rotation),
                wait * static_cast<double>(m.geometry().rotationTime()),
                2.0);
}

TEST(Model, TotalIsSumOfParts)
{
    DiskModel m = tinyModel();
    MechanicalTime mt = m.access(123456, 3, 777, 20);
    EXPECT_EQ(mt.total(), mt.seek + mt.rotation + mt.transfer);
}

TEST(Model, EndCylinderFollowsLastBlock)
{
    DiskModel m = tinyModel();
    EXPECT_EQ(m.endCylinder(0, 10), 0u);
    EXPECT_EQ(m.endCylinder(95, 10), 1u); // crosses track boundary
    EXPECT_EQ(m.endCylinder(990, 10), 9u);
}

TEST(Model, DeterministicForSameInputs)
{
    DiskModel m = tinyModel();
    MechanicalTime a = m.access(1000, 2, 333, 8);
    MechanicalTime b = m.access(1000, 2, 333, 8);
    EXPECT_EQ(a.total(), b.total());
}

/**
 * access() composed from the per-query geometry calls, each of which
 * finds the LBA's zone on its own: the definition the one-lookup
 * access() must reproduce bit for bit.
 */
MechanicalTime
composedAccess(const DiskModel &m, Tick now, std::uint64_t from,
               Lba lba, BlockCount blocks)
{
    const DiskGeometry &g = m.geometry();
    MechanicalTime mt;
    mt.seek = m.seek().seekTime(from, g.cylinderOf(lba));
    double wait = g.angleOf(lba) - m.angleAt(now + mt.seek);
    if (wait < 0.0)
        wait += 1.0;
    mt.rotation = static_cast<Tick>(
        wait * static_cast<double>(g.rotationTime()) + 0.5);
    mt.transfer = g.transferTime(lba, blocks);
    return mt;
}

TEST(Model, AccessMatchesComposedGeometryQueries)
{
    for (const bool nearline : {false, true}) {
        DiskGeometry g = nearline ? DiskGeometry::makeNearline(8)
                                  : DiskGeometry::makeEnterprise(4);
        const SeekModel s = nearline
            ? SeekModel::makeNearline(g.cylinders())
            : SeekModel::makeEnterprise(g.cylinders());
        const Lba cap = g.capacityBlocks();
        const std::vector<Zone> zones = g.zones();
        const DiskModel m(std::move(g), s);

        Rng rng(nearline ? 41 : 40);
        int crossings = 0;
        for (int i = 0; i < 20000; ++i) {
            const auto blocks = static_cast<BlockCount>(
                rng.uniformInt(1, 4096));
            Lba lba = 0;
            if (i % 4 == 0) {
                // Straddle an internal zone boundary.
                const Zone &z = zones[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          zones.size() - 2)))];
                lba = z.end - static_cast<Lba>(
                                  rng.uniformInt(1, blocks));
            } else {
                lba = static_cast<Lba>(rng.uniformInt(
                    0, static_cast<std::int64_t>(cap - blocks)));
            }
            if (lba + blocks > m.geometry().zoneOf(lba).end)
                ++crossings;
            // Negative ticks exercise angleAt's wrap below zero.
            const Tick now = rng.uniformInt(-kSec, 3600 * kSec);
            const auto from = static_cast<std::uint64_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(
                       m.geometry().cylinders() - 1)));
            const MechanicalTime got = m.access(now, from, lba, blocks);
            const MechanicalTime want =
                composedAccess(m, now, from, lba, blocks);
            ASSERT_EQ(got.seek, want.seek) << "lba " << lba;
            ASSERT_EQ(got.rotation, want.rotation) << "lba " << lba;
            ASSERT_EQ(got.transfer, want.transfer) << "lba " << lba;
            ASSERT_EQ(got.end_cylinder, m.endCylinder(lba, blocks))
                << "lba " << lba;
        }
        EXPECT_GT(crossings, 4000);
    }
}

TEST(Model, AngleAtWrapsBelowZero)
{
    DiskModel m = tinyModel();
    EXPECT_DOUBLE_EQ(m.angleAt(-2500 * kUsec), 0.75);
    EXPECT_DOUBLE_EQ(m.angleAt(-10 * kMsec), 0.0);
    EXPECT_DOUBLE_EQ(m.angleAt(-1),
                     static_cast<double>(10 * kMsec - 1) /
                         static_cast<double>(10 * kMsec));
}

TEST(ModelDeathTest, InvalidAccess)
{
    DiskModel m = tinyModel();
    EXPECT_DEATH(m.access(0, 0, 0, 0), "zero blocks");
    EXPECT_DEATH(m.access(0, 0, 995, 10), "beyond drive capacity");
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
