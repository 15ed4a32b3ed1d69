/**
 * @file
 * Unit tests for array/raid address mapping.
 */

#include <gtest/gtest.h>

#include <map>

#include "array/raid.hh"

namespace dlw
{
namespace array
{
namespace
{

trace::Request
mk(Lba lba, BlockCount blocks, trace::Op op)
{
    trace::Request r;
    r.arrival = 1000;
    r.lba = lba;
    r.blocks = blocks;
    r.op = op;
    return r;
}

RaidConfig
cfg(RaidLevel level, std::uint32_t disks, BlockCount stripe = 128)
{
    RaidConfig c;
    c.level = level;
    c.disks = disks;
    c.stripe_blocks = stripe;
    return c;
}

TEST(Raid0, SingleFragmentMapsToOneDisk)
{
    RaidMapper m(cfg(RaidLevel::Raid0, 4));
    auto out = m.map(mk(0, 128, trace::Op::Read));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].disk, 0u);
    EXPECT_EQ(out[0].req.lba, 0u);
    EXPECT_EQ(out[0].req.blocks, 128u);
}

TEST(Raid0, StripesRotateAcrossDisks)
{
    RaidMapper m(cfg(RaidLevel::Raid0, 4));
    for (std::uint32_t s = 0; s < 8; ++s) {
        auto out = m.map(mk(static_cast<Lba>(s) * 128, 128,
                            trace::Op::Read));
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].disk, s % 4) << "stripe " << s;
        EXPECT_EQ(out[0].req.lba, (s / 4) * 128) << "stripe " << s;
    }
}

TEST(Raid0, LargeRequestSplitsAtStripeBoundaries)
{
    RaidMapper m(cfg(RaidLevel::Raid0, 4));
    // 300 blocks starting at 100: fragments 28 + 128 + 128 + 16.
    auto out = m.map(mk(100, 300, trace::Op::Read));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].req.blocks, 28u);
    EXPECT_EQ(out[1].req.blocks, 128u);
    EXPECT_EQ(out[2].req.blocks, 128u);
    EXPECT_EQ(out[3].req.blocks, 16u);
    // Consecutive stripes land on consecutive disks.
    EXPECT_EQ(out[0].disk, 0u);
    EXPECT_EQ(out[1].disk, 1u);
    EXPECT_EQ(out[2].disk, 2u);
    EXPECT_EQ(out[3].disk, 3u);
    // Total blocks conserved.
    BlockCount total = 0;
    for (const auto &dr : out)
        total += dr.req.blocks;
    EXPECT_EQ(total, 300u);
}

TEST(Raid0, ArrivalPreserved)
{
    RaidMapper m(cfg(RaidLevel::Raid0, 2));
    auto out = m.map(mk(0, 256, trace::Op::Write));
    for (const auto &dr : out)
        EXPECT_EQ(dr.req.arrival, 1000);
}

TEST(Raid1, ReadsRoundRobinWritesFanOut)
{
    RaidMapper m(cfg(RaidLevel::Raid1, 2));
    auto r1 = m.map(mk(0, 8, trace::Op::Read));
    auto r2 = m.map(mk(0, 8, trace::Op::Read));
    ASSERT_EQ(r1.size(), 1u);
    ASSERT_EQ(r2.size(), 1u);
    EXPECT_NE(r1[0].disk, r2[0].disk);

    auto w = m.map(mk(0, 8, trace::Op::Write));
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0].disk, 0u);
    EXPECT_EQ(w[1].disk, 1u);
    EXPECT_EQ(w[0].req.lba, w[1].req.lba);
}

TEST(Raid1, MirrorKeepsAddresses)
{
    RaidMapper m(cfg(RaidLevel::Raid1, 2));
    auto out = m.map(mk(5000, 8, trace::Op::Read));
    EXPECT_EQ(out[0].req.lba, 5000u);
}

TEST(Raid5, ReadTouchesOneDisk)
{
    RaidMapper m(cfg(RaidLevel::Raid5, 5));
    auto out = m.map(mk(0, 64, trace::Op::Read));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].req.isRead());
}

TEST(Raid5, SmallWriteIsReadModifyWrite)
{
    RaidMapper m(cfg(RaidLevel::Raid5, 5));
    auto out = m.map(mk(0, 64, trace::Op::Write));
    ASSERT_EQ(out.size(), 4u);
    // Two reads then two writes, on exactly two distinct disks.
    EXPECT_TRUE(out[0].req.isRead());
    EXPECT_TRUE(out[1].req.isRead());
    EXPECT_TRUE(out[2].req.isWrite());
    EXPECT_TRUE(out[3].req.isWrite());
    EXPECT_NE(out[0].disk, out[1].disk);
    EXPECT_EQ(out[0].disk, out[2].disk); // data disk
    EXPECT_EQ(out[1].disk, out[3].disk); // parity disk
    // Same physical address on both disks (same row).
    EXPECT_EQ(out[0].req.lba, out[1].req.lba);
}

TEST(Raid5, ParityRotatesAcrossRows)
{
    const std::uint32_t n = 4;
    RaidMapper m(cfg(RaidLevel::Raid5, n));
    // Row r spans (n-1) stripes; record the parity disk per row.
    std::vector<std::uint32_t> parity_disks;
    for (std::uint32_t row = 0; row < n; ++row) {
        const Lba lba = static_cast<Lba>(row) * (n - 1) * 128;
        auto out = m.map(mk(lba, 8, trace::Op::Write));
        parity_disks.push_back(out[1].disk);
    }
    // All n rows use a different parity disk.
    std::map<std::uint32_t, int> uses;
    for (std::uint32_t d : parity_disks)
        ++uses[d];
    EXPECT_EQ(uses.size(), static_cast<std::size_t>(n));
}

TEST(Raid5, DataNeverOnParityDisk)
{
    const std::uint32_t n = 5;
    RaidMapper m(cfg(RaidLevel::Raid5, n));
    for (Lba stripe = 0; stripe < 40; ++stripe) {
        auto out = m.map(mk(stripe * 128, 8, trace::Op::Write));
        EXPECT_NE(out[0].disk, out[1].disk) << "stripe " << stripe;
    }
}

TEST(RaidMapper, LogicalCapacities)
{
    const Lba disk_cap = 1000 * 128;
    EXPECT_EQ(RaidMapper(cfg(RaidLevel::Raid0, 4))
                  .logicalCapacity(disk_cap),
              4 * disk_cap);
    EXPECT_EQ(RaidMapper(cfg(RaidLevel::Raid1, 2))
                  .logicalCapacity(disk_cap),
              disk_cap);
    EXPECT_EQ(RaidMapper(cfg(RaidLevel::Raid5, 5))
                  .logicalCapacity(disk_cap),
              4 * disk_cap);
}

TEST(RaidMapperDeathTest, BadConfigs)
{
    EXPECT_DEATH(RaidMapper(cfg(RaidLevel::Raid0, 1)),
                 "at least two disks");
    EXPECT_DEATH(RaidMapper(cfg(RaidLevel::Raid5, 2)),
                 "at least three disks");
    EXPECT_DEATH(RaidMapper(cfg(RaidLevel::Raid0, 4, 0)),
                 "stripe unit invalid");
}

} // anonymous namespace
} // namespace array
} // namespace dlw
