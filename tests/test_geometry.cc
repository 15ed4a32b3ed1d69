/**
 * @file
 * Unit tests for disk/geometry.
 */

#include <gtest/gtest.h>

#include "disk/geometry.hh"

namespace dlw
{
namespace disk
{
namespace
{

DiskGeometry
tinyGeometry()
{
    // Two zones: 1000 blocks at 100/track, 500 blocks at 50/track.
    std::vector<Zone> zones = {
        {0, 1000, 100},
        {1000, 1500, 50},
    };
    return DiskGeometry(std::move(zones), 6000); // 10 ms/rev
}

TEST(Geometry, CapacityAndCylinders)
{
    DiskGeometry g = tinyGeometry();
    EXPECT_EQ(g.capacityBlocks(), 1500u);
    EXPECT_EQ(g.cylinders(), 10u + 10u);
    EXPECT_EQ(g.rotationTime(), 10 * kMsec);
}

TEST(Geometry, CylinderOfSpansZones)
{
    DiskGeometry g = tinyGeometry();
    EXPECT_EQ(g.cylinderOf(0), 0u);
    EXPECT_EQ(g.cylinderOf(99), 0u);
    EXPECT_EQ(g.cylinderOf(100), 1u);
    EXPECT_EQ(g.cylinderOf(999), 9u);
    EXPECT_EQ(g.cylinderOf(1000), 10u); // first track of zone 1
    EXPECT_EQ(g.cylinderOf(1049), 10u);
    EXPECT_EQ(g.cylinderOf(1050), 11u);
    EXPECT_EQ(g.cylinderOf(1499), 19u);
}

TEST(Geometry, AngleWithinTrack)
{
    DiskGeometry g = tinyGeometry();
    EXPECT_DOUBLE_EQ(g.angleOf(0), 0.0);
    EXPECT_DOUBLE_EQ(g.angleOf(50), 0.5);
    EXPECT_DOUBLE_EQ(g.angleOf(100), 0.0); // next track
    EXPECT_DOUBLE_EQ(g.angleOf(1025), 0.5); // zone 1: 50 spt
}

TEST(Geometry, TransferTimeScalesWithZoneDensity)
{
    DiskGeometry g = tinyGeometry();
    // 100 blocks in zone 0 = one full track = one revolution.
    EXPECT_EQ(g.transferTime(0, 100), 10 * kMsec);
    // 50 blocks in zone 1 = one full track = one revolution.
    EXPECT_EQ(g.transferTime(1000, 50), 10 * kMsec);
    // Same block count is twice as slow in the inner zone.
    EXPECT_EQ(g.transferTime(1000, 100), 2 * g.transferTime(0, 100));
}

TEST(Geometry, TransferAcrossZoneBoundary)
{
    DiskGeometry g = tinyGeometry();
    // 100 blocks in zone 0 (1 rev) + 50 in zone 1 (1 rev).
    EXPECT_EQ(g.transferTime(900, 150), 20 * kMsec);
}

TEST(Geometry, ZoneOfReturnsCorrectZone)
{
    DiskGeometry g = tinyGeometry();
    EXPECT_EQ(g.zoneOf(500).sectors_per_track, 100u);
    EXPECT_EQ(g.zoneOf(1400).sectors_per_track, 50u);
}

TEST(GeometryDeathTest, OutOfRangeLba)
{
    DiskGeometry g = tinyGeometry();
    EXPECT_EXIT(g.cylinderOf(1500), ::testing::ExitedWithCode(1),
                "beyond drive capacity");
    EXPECT_DEATH(g.transferTime(1499, 2), "beyond capacity");
}

TEST(GeometryDeathTest, BadZoneTables)
{
    std::vector<Zone> gap = {{0, 10, 5}, {20, 30, 5}};
    EXPECT_DEATH(DiskGeometry(std::move(gap), 7200),
                 "not contiguous");
    std::vector<Zone> empty_zone = {{0, 0, 5}};
    EXPECT_DEATH(DiskGeometry(std::move(empty_zone), 7200),
                 "not contiguous|empty zone");
}

TEST(Geometry, EnterpriseFactorySane)
{
    DiskGeometry g = DiskGeometry::makeEnterprise(146);
    EXPECT_EQ(g.rpm(), 15000u);
    EXPECT_EQ(g.capacityBlocks(),
              146ULL * (1ULL << 30) / kBlockBytes);
    EXPECT_EQ(g.zones().size(), 4u);
    // ~125 MB/s outer for a 15k drive of the era: one outer track
    // per revolution.
    const double outer_bytes_per_s =
        static_cast<double>(g.zones().front().sectors_per_track) *
        kBlockBytes / ticksToSeconds(g.rotationTime());
    EXPECT_NEAR(outer_bytes_per_s / 1e6, 128.0, 10.0);
    EXPECT_GT(g.cylinders(), 50000u);
}

TEST(Geometry, NearlineFactorySlowerSpindle)
{
    DiskGeometry e = DiskGeometry::makeEnterprise(146);
    DiskGeometry n = DiskGeometry::makeNearline(500);
    EXPECT_EQ(n.rpm(), 7200u);
    EXPECT_GT(n.capacityBlocks(), e.capacityBlocks());
    EXPECT_GT(n.rotationTime(), e.rotationTime());
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
