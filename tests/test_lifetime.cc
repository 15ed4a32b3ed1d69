/**
 * @file
 * Unit tests for trace/lifetime.
 */

#include <gtest/gtest.h>

#include "trace/lifetime.hh"

namespace dlw
{
namespace trace
{
namespace
{

LifetimeRecord
record(const std::string &id, Tick power_on, Tick busy,
       std::uint64_t reads, std::uint64_t writes)
{
    LifetimeRecord r;
    r.drive_id = id;
    r.power_on = power_on;
    r.busy = busy;
    r.reads = reads;
    r.writes = writes;
    r.read_blocks = reads * 8;
    r.write_blocks = writes * 8;
    return r;
}

TEST(LifetimeRecord, DerivedFields)
{
    LifetimeRecord r =
        record("d0", 100 * kHour, 25 * kHour, 300, 100);
    EXPECT_DOUBLE_EQ(r.utilization(), 0.25);
    EXPECT_EQ(r.total(), 400u);
    EXPECT_DOUBLE_EQ(r.readFraction(), 0.75);
    EXPECT_EQ(r.bytesRead(), 300u * 8u * 512u);
    EXPECT_EQ(r.bytesWritten(), 100u * 8u * 512u);
    EXPECT_DOUBLE_EQ(r.requestsPerHour(), 4.0);
}

TEST(LifetimeRecord, UnusedDriveSafe)
{
    LifetimeRecord r;
    EXPECT_DOUBLE_EQ(r.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(r.readFraction(), 0.0);
    EXPECT_DOUBLE_EQ(r.requestsPerHour(), 0.0);
}

TEST(LifetimeTrace, AppendAndAccess)
{
    LifetimeTrace t("FAM");
    EXPECT_EQ(t.family(), "FAM");
    EXPECT_TRUE(t.empty());
    t.append(record("a", kHour, 0, 1, 1));
    t.append(record("b", kHour, kHour / 2, 2, 2));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.records().at(1).drive_id, "b");
}

TEST(LifetimeTrace, Utilizations)
{
    LifetimeTrace t("FAM");
    t.append(record("a", 10 * kHour, 1 * kHour, 1, 1));
    t.append(record("b", 10 * kHour, 5 * kHour, 1, 1));
    auto us = t.utilizations();
    ASSERT_EQ(us.size(), 2u);
    EXPECT_DOUBLE_EQ(us[0], 0.1);
    EXPECT_DOUBLE_EQ(us[1], 0.5);
}

TEST(LifetimeTrace, ValidateCatchesBusyOverPowerOn)
{
    LifetimeTrace t("FAM");
    t.append(record("bad", kHour, 2 * kHour, 1, 1));
    EXPECT_FALSE(t.validate());
}

TEST(LifetimeTrace, ValidateCatchesRunOverHours)
{
    LifetimeTrace t("FAM");
    auto r = record("bad", 10 * kHour, kHour, 1, 1);
    r.saturated_hours = 2;
    r.longest_saturated_run = 5;
    t.append(r);
    EXPECT_FALSE(t.validate());
}

TEST(LifetimeTrace, ValidateAcceptsGood)
{
    LifetimeTrace t("FAM");
    auto r = record("ok", 10 * kHour, kHour, 5, 5);
    r.saturated_hours = 3;
    r.longest_saturated_run = 2;
    t.append(r);
    EXPECT_TRUE(t.validate());
}

TEST(LifetimeTrace, ValidateFailHardThrows)
{
    LifetimeTrace t("FAM");
    t.append(record("bad", kHour, 2 * kHour, 1, 1));
    Status s = t.checkValid();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_NE(s.message().find("busy time exceeds power-on"),
              std::string::npos);
    EXPECT_THROW(t.validate(true), StatusError);
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
