/**
 * @file
 * Tests for trace/transform (merge).
 */

#include <gtest/gtest.h>

#include "trace/transform.hh"

namespace dlw
{
namespace trace
{
namespace
{

Request
mk(Tick at, Lba lba = 0)
{
    Request r;
    r.arrival = at;
    r.lba = lba;
    r.blocks = 8;
    r.op = Op::Read;
    return r;
}

MsTrace
sample()
{
    MsTrace tr("s", 0, 100);
    for (Tick t : {5, 20, 40, 60, 80, 99})
        tr.append(mk(t, static_cast<Lba>(t)));
    return tr;
}

TEST(Merge, InterleavesSorted)
{
    MsTrace a("a", 0, 50);
    a.append(mk(10));
    a.append(mk(30));
    MsTrace b("b", 0, 100);
    b.append(mk(20));
    b.append(mk(90));

    MsTrace out = merge({a, b});
    EXPECT_EQ(out.driveId(), "a+merged");
    EXPECT_EQ(out.start(), 0);
    EXPECT_EQ(out.end(), 100);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.at(0).arrival, 10);
    EXPECT_EQ(out.at(1).arrival, 20);
    EXPECT_EQ(out.at(2).arrival, 30);
    EXPECT_EQ(out.at(3).arrival, 90);
    EXPECT_TRUE(out.validate());
}

TEST(Merge, SingleInputIsCopy)
{
    MsTrace out = merge({sample()});
    EXPECT_EQ(out.size(), 6u);
}

TEST(MergeDeathTest, EmptyInput)
{
    EXPECT_DEATH(merge({}), "zero traces");
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
