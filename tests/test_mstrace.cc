/**
 * @file
 * Unit tests for trace/record and trace/mstrace.
 */

#include <gtest/gtest.h>

#include <limits>

#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{
namespace
{

Request
mk(Tick at, Lba lba, BlockCount blocks, Op op)
{
    Request r;
    r.arrival = at;
    r.lba = lba;
    r.blocks = blocks;
    r.op = op;
    return r;
}

TEST(Request, DerivedFields)
{
    Request r = mk(5, 100, 8, Op::Read);
    EXPECT_TRUE(r.isRead());
    EXPECT_FALSE(r.isWrite());
    EXPECT_EQ(r.bytes(), 8u * 512u);
    EXPECT_EQ(r.lbaEnd(), 108u);
}

TEST(Request, ByArrivalOrdering)
{
    ByArrival less;
    EXPECT_TRUE(less(mk(1, 0, 1, Op::Read), mk(2, 0, 1, Op::Read)));
    EXPECT_TRUE(less(mk(1, 5, 1, Op::Read), mk(1, 9, 1, Op::Read)));
    EXPECT_FALSE(less(mk(2, 0, 1, Op::Read), mk(1, 0, 1, Op::Read)));
}

TEST(MsTrace, MetadataAndCounts)
{
    MsTrace tr("drive-7", 100, kHour);
    EXPECT_EQ(tr.driveId(), "drive-7");
    EXPECT_EQ(tr.start(), 100);
    EXPECT_EQ(tr.end(), 100 + kHour);
    EXPECT_TRUE(tr.empty());

    tr.append(mk(200, 0, 8, Op::Read));
    tr.append(mk(300, 8, 8, Op::Write));
    tr.append(mk(400, 16, 8, Op::Read));
    EXPECT_EQ(tr.size(), 3u);
    EXPECT_EQ(tr.readCount(), 2u);
    EXPECT_NEAR(tr.readFraction(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(tr.totalBytes(), 3u * 8u * 512u);
    EXPECT_DOUBLE_EQ(tr.meanRequestBlocks(), 8.0);
}

TEST(MsTrace, ArrivalRate)
{
    MsTrace tr("t", 0, 10 * kSec);
    for (int i = 0; i < 50; ++i)
        tr.append(mk(static_cast<Tick>(i) * 100 * kMsec, 0, 1,
                     Op::Read));
    EXPECT_DOUBLE_EQ(tr.arrivalRate(), 5.0);
}

TEST(MsTrace, Interarrivals)
{
    MsTrace tr("t", 0, kSec);
    tr.append(mk(10, 0, 1, Op::Read));
    tr.append(mk(25, 0, 1, Op::Read));
    tr.append(mk(25, 0, 1, Op::Read)); // simultaneous
    tr.append(mk(100, 0, 1, Op::Read));
    auto gaps = tr.interarrivals();
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_DOUBLE_EQ(gaps[0], 15.0);
    EXPECT_DOUBLE_EQ(gaps[1], 0.0);
    EXPECT_DOUBLE_EQ(gaps[2], 75.0);
}

TEST(MsTrace, SortByArrival)
{
    MsTrace tr("t", 0, kSec);
    tr.append(mk(300, 0, 1, Op::Read));
    tr.append(mk(100, 0, 1, Op::Read));
    tr.append(mk(200, 0, 1, Op::Read));
    EXPECT_FALSE(tr.validate());
    tr.sortByArrival();
    EXPECT_TRUE(tr.validate());
    EXPECT_EQ(tr.at(0).arrival, 100);
    EXPECT_EQ(tr.at(2).arrival, 300);
}

TEST(MsTrace, ValidateCatchesOutOfWindow)
{
    MsTrace tr("t", 100, 100);
    tr.append(mk(250, 0, 1, Op::Read)); // beyond end (200)
    EXPECT_FALSE(tr.validate());

    MsTrace tr2("t", 100, 100);
    tr2.append(mk(50, 0, 1, Op::Read)); // before start
    EXPECT_FALSE(tr2.validate());
}

TEST(MsTrace, ValidateFailHardThrows)
{
    MsTrace tr("bad", 0, 10);
    tr.append(mk(50, 0, 1, Op::Read));
    Status s = tr.checkValid();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_NE(s.message().find("outside observation window"),
              std::string::npos);
    EXPECT_THROW(tr.validate(true), StatusError);
}

TEST(MsTrace, AppendExtendingGrowsWindow)
{
    MsTrace tr("t", 0, 0);
    tr.appendExtending(mk(500, 0, 1, Op::Read));
    EXPECT_GE(tr.end(), 501);
    EXPECT_TRUE(tr.validate());
}

TEST(MsTrace, BinCountsFiltersOps)
{
    MsTrace tr("t", 0, 40);
    tr.append(mk(5, 0, 1, Op::Read));
    tr.append(mk(15, 0, 1, Op::Write));
    tr.append(mk(16, 0, 1, Op::Read));
    tr.append(mk(35, 0, 1, Op::Write));

    auto all = tr.binCounts(10);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_DOUBLE_EQ(all.at(0), 1.0);
    EXPECT_DOUBLE_EQ(all.at(1), 2.0);
    EXPECT_DOUBLE_EQ(all.at(2), 0.0);
    EXPECT_DOUBLE_EQ(all.at(3), 1.0);

    auto reads = tr.binCounts(10, MsTrace::Filter::Reads);
    EXPECT_DOUBLE_EQ(reads.at(1), 1.0);
    EXPECT_DOUBLE_EQ(reads.at(3), 0.0);

    auto writes = tr.binCounts(10, MsTrace::Filter::Writes);
    EXPECT_DOUBLE_EQ(writes.total(), 2.0);
}

TEST(MsTrace, BinCountsCoverWholeWindowEvenWhenEmpty)
{
    MsTrace tr("t", 0, 100);
    auto counts = tr.binCounts(10);
    EXPECT_EQ(counts.size(), 10u);
    EXPECT_DOUBLE_EQ(counts.total(), 0.0);
}

TEST(MsTrace, SequentialFraction)
{
    MsTrace tr("t", 0, kSec);
    tr.append(mk(0, 0, 8, Op::Read));
    tr.append(mk(10, 8, 8, Op::Read));   // sequential
    tr.append(mk(20, 16, 8, Op::Read));  // sequential
    tr.append(mk(30, 500, 8, Op::Read)); // jump
    EXPECT_NEAR(tr.sequentialFraction(), 2.0 / 3.0, 1e-12);
}

TEST(MsTraceDeathTest, ZeroBlockAppend)
{
    MsTrace tr("t", 0, kSec);
    EXPECT_DEATH(tr.append(mk(0, 0, 0, Op::Read)), "zero-length");
}

TEST(MsTrace, WindowMayEndAtTheLargestTick)
{
    constexpr Tick kMax = std::numeric_limits<Tick>::max();
    const MsTrace whole("w", 0, kMax);
    EXPECT_EQ(whole.end(), kMax);
    const MsTrace last("w", kMax - 100, 100);
    EXPECT_EQ(last.end(), kMax);
    MsTrace set("w", 0, 0);
    set.setWindow(-5, kMax);
    EXPECT_EQ(set.end(), kMax - 5);
}

TEST(MsTraceDeathTest, RefusesAWindowEndingPastTheLargestTick)
{
    // The window end is what a RequestSource over the trace reports
    // as end(), and the drive forms it before anything else looks:
    // the trace refuses a window whose end overflows a Tick, by the
    // rule every decoder applies to a header.
    constexpr Tick kMax = std::numeric_limits<Tick>::max();
    EXPECT_DEATH(MsTrace("w", 1000, kMax), "past the largest tick");
    EXPECT_DEATH(MsTrace("w", kMax, 1), "past the largest tick");
    EXPECT_DEATH(MsTrace("w", 0, -1), "negative");
    MsTrace tr("w", 0, kSec);
    EXPECT_DEATH(tr.setWindow(1, kMax), "past the largest tick");
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
