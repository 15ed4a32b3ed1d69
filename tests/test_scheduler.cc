/**
 * @file
 * Unit tests for disk/scheduler.
 */

#include <gtest/gtest.h>

#include "disk/scheduler.hh"

namespace dlw
{
namespace disk
{
namespace
{

DiskGeometry
flatGeometry()
{
    // 100 cylinders of 10 blocks each.
    std::vector<Zone> zones = {{0, 1000, 10}};
    return DiskGeometry(std::move(zones), 7200);
}

QueuedRequest
reqAt(Lba lba, std::size_t index)
{
    trace::Request r;
    r.arrival = 0;
    r.lba = lba;
    r.blocks = 1;
    r.op = trace::Op::Read;
    return QueuedRequest{r, index};
}

TEST(Scheduler, FcfsAlwaysFront)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Fcfs);
    RequestQueue q = {reqAt(900, 0), reqAt(10, 1),
                      reqAt(500, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 0u);
}

TEST(Scheduler, SstfPicksNearestCylinder)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Sstf);
    // Head at cylinder 50 (block 500).
    RequestQueue q = {reqAt(900, 0), reqAt(480, 1),
                      reqAt(10, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 1u); // cylinder 48 is closest
}

TEST(Scheduler, SstfExactMatchWins)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Sstf);
    RequestQueue q = {reqAt(900, 0), reqAt(505, 1)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
}

TEST(Scheduler, ElevatorSweepsUpThenReverses)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Elevator);
    // Head at 50, sweeping up: picks 60 not 45.
    RequestQueue q = {reqAt(450, 0), reqAt(600, 1)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
    // Nothing above 90: reverses and picks the highest below.
    RequestQueue q2 = {reqAt(450, 0), reqAt(100, 1)};
    EXPECT_EQ(s.pick(q2, 90, g), 0u);
}

TEST(Scheduler, ElevatorPrefersNearestAhead)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Elevator);
    RequestQueue q = {reqAt(990, 0), reqAt(600, 1),
                      reqAt(700, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
}

TEST(Scheduler, SingleElementShortCircuits)
{
    DiskGeometry g = flatGeometry();
    for (auto p : {SchedPolicy::Fcfs, SchedPolicy::Sstf,
                   SchedPolicy::Elevator}) {
        Scheduler s(p);
        RequestQueue q = {reqAt(990, 7)};
        EXPECT_EQ(s.pick(q, 0, g), 0u) << schedPolicyName(p);
    }
}

TEST(Scheduler, PickIndexesAWrappedQueue)
{
    // Cycle the queue the way a drive does, popping the served front
    // and appending arrivals, so the deque's storage wraps and its
    // front no longer sits at the start of a block.  The pick is an
    // index into the queue as it stands, not into its storage.
    DiskGeometry g = flatGeometry();
    RequestQueue q;
    std::size_t next = 0;
    for (; next < 8; ++next)
        q.push_back(reqAt(0, next));
    for (int cycle = 0; cycle < 700; ++cycle) {
        q.pop_front();
        q.push_back(reqAt(0, next++));
    }
    // Cylinders 0, 10, ..., 70 from front to back.
    for (std::size_t i = 0; i < q.size(); ++i)
        q[i].req.lba = static_cast<Lba>(100 * i);

    // Head at cylinder 52: SSTF takes cylinder 50, the elevator
    // sweeping up takes 60.
    Scheduler sstf(SchedPolicy::Sstf);
    Scheduler elevator(SchedPolicy::Elevator);
    ASSERT_EQ(sstf.pick(q, 52, g), 5u);
    EXPECT_EQ(q[5].index, next - 3);
    EXPECT_EQ(elevator.pick(q, 52, g), 6u);

    // Serve the SSTF pick and the front, then a new arrival at
    // cylinder 99 joins the back: cylinders 10, 20, 30, 40, 60, 70,
    // 99.  Both policies find it from a head at 95.
    q.erase(q.begin() + 5);
    q.pop_front();
    q.push_back(reqAt(990, next++));
    ASSERT_EQ(q.size(), 7u);
    EXPECT_EQ(sstf.pick(q, 95, g), 6u);
    EXPECT_EQ(elevator.pick(q, 95, g), 6u);
    // At the top it still serves cylinder 99; once that is gone it
    // reverses onto the nearest below.
    EXPECT_EQ(elevator.pick(q, 99, g), 6u);
    q.pop_back();
    EXPECT_EQ(elevator.pick(q, 99, g), 5u);
    EXPECT_EQ(q[5].req.lba, 700u);
}

TEST(Scheduler, PolicyNames)
{
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Fcfs), "FCFS");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Sstf), "SSTF");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Elevator), "ELEVATOR");
}

TEST(SchedulerDeathTest, EmptyQueue)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Fcfs);
    RequestQueue q;
    EXPECT_DEATH(s.pick(q, 0, g), "empty queue");
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
