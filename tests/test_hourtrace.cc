/**
 * @file
 * Unit tests for trace/hourtrace.
 */

#include <gtest/gtest.h>

#include "trace/hourtrace.hh"

namespace dlw
{
namespace trace
{
namespace
{

HourBucket
bucket(std::uint64_t reads, std::uint64_t writes, Tick busy)
{
    HourBucket b;
    b.reads = reads;
    b.writes = writes;
    b.read_blocks = reads * 8;
    b.write_blocks = writes * 8;
    b.busy = busy;
    return b;
}

TEST(HourBucket, DerivedFields)
{
    HourBucket b = bucket(30, 10, kHour / 4);
    EXPECT_EQ(b.total(), 40u);
    EXPECT_EQ(b.totalBlocks(), 320u);
    EXPECT_DOUBLE_EQ(b.utilization(), 0.25);
    EXPECT_DOUBLE_EQ(b.readFraction(), 0.75);

    HourBucket idle;
    EXPECT_DOUBLE_EQ(idle.readFraction(), 0.0);
    EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);
}

TEST(HourBucket, Accumulate)
{
    HourBucket a = bucket(1, 2, 100);
    a += bucket(3, 4, 200);
    EXPECT_EQ(a.reads, 4u);
    EXPECT_EQ(a.writes, 6u);
    EXPECT_EQ(a.busy, 300);
}

TEST(HourTrace, BucketForGrows)
{
    HourTrace t("d", 0);
    t.bucketFor(5).reads = 7;
    EXPECT_EQ(t.hours(), 6u);
    EXPECT_EQ(t.at(5).reads, 7u);
    EXPECT_EQ(t.at(0).reads, 0u);
}

TEST(HourTrace, BucketAtUsesAbsoluteTicks)
{
    HourTrace t("d", 10 * kHour);
    t.bucketAt(10 * kHour + 30 * kMinute).writes = 3;
    t.bucketAt(12 * kHour).writes = 5;
    EXPECT_EQ(t.hours(), 3u);
    EXPECT_EQ(t.at(0).writes, 3u);
    EXPECT_EQ(t.at(2).writes, 5u);
}

TEST(HourTraceDeathTest, BucketBeforeStart)
{
    HourTrace t("d", 10 * kHour);
    EXPECT_DEATH(t.bucketAt(9 * kHour), "before hour-trace start");
}

TEST(HourTrace, TotalsAndMeans)
{
    HourTrace t("d", 0);
    t.append(bucket(10, 0, kHour / 2));
    t.append(bucket(0, 0, 0));
    t.append(bucket(20, 10, kHour));
    EXPECT_EQ(t.totalRequests(), 40u);
    EXPECT_EQ(t.totalBlocks(), 320u);
    EXPECT_NEAR(t.meanUtilization(), 0.5, 1e-12);
    EXPECT_NEAR(t.idleHourFraction(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(t.busyHourFraction(0.5), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(t.busyHourFraction(0.9), 1.0 / 3.0, 1e-12);
}

TEST(HourTrace, LongestBusyRun)
{
    HourTrace t("d", 0);
    for (double u : {0.95, 0.2, 0.95, 0.92, 0.99, 0.1, 0.95}) {
        t.append(bucket(1, 0,
                        static_cast<Tick>(u * static_cast<double>(kHour))));
    }
    EXPECT_EQ(t.longestBusyRun(0.9), 3u);
    EXPECT_EQ(t.longestBusyRun(0.05), 7u);
    EXPECT_EQ(t.longestBusyRun(0.999), 0u);
}

TEST(HourTrace, RequestSeries)
{
    HourTrace t("d", 0);
    t.append(bucket(4, 4, kHour / 2));
    t.append(bucket(9, 1, kHour / 4));
    auto reqs = t.requestSeries();
    EXPECT_EQ(reqs.binWidth(), kHour);
    EXPECT_DOUBLE_EQ(reqs.at(0), 8.0);
    EXPECT_DOUBLE_EQ(reqs.at(1), 10.0);
}

TEST(HourTrace, HourOfWeekProfileAverages)
{
    HourTrace t("d", 0);
    // Two weeks; slot 3 has 10 then 30 requests -> mean 20.
    for (int week = 0; week < 2; ++week) {
        for (int h = 0; h < 168; ++h) {
            std::uint64_t n = 0;
            if (h == 3)
                n = week == 0 ? 10 : 30;
            t.append(bucket(n, 0, 0));
        }
    }
    auto profile = t.hourOfWeekProfile();
    ASSERT_EQ(profile.size(), 168u);
    EXPECT_DOUBLE_EQ(profile[3], 20.0);
    EXPECT_DOUBLE_EQ(profile[4], 0.0);
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
