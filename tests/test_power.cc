/**
 * @file
 * Unit tests for disk/power.
 */

#include <gtest/gtest.h>

#include "disk/power.hh"

namespace dlw
{
namespace disk
{
namespace
{

ServiceLog
logWith(Tick window, std::vector<trace::BusyInterval> busy)
{
    ServiceLog log;
    log.window_start = 0;
    log.window_end = window;
    log.busy = std::move(busy);
    return log;
}

PowerConfig
simpleConfig()
{
    PowerConfig c;
    c.active_w = 10.0;
    c.idle_w = 5.0;
    c.standby_w = 1.0;
    c.spinup_j = 100.0;
    c.spinup_time = 2 * kSec;
    c.spindown_timeout = 10 * kSec;
    return c;
}

TEST(Power, AllIdleNoSpindownBelowTimeout)
{
    auto log = logWith(5 * kSec, {});
    PowerConfig cfg = simpleConfig();
    PowerReport r = evaluatePower(log, cfg);
    EXPECT_DOUBLE_EQ(r.active_j, 0.0);
    EXPECT_DOUBLE_EQ(r.idle_j, 5.0 * 5.0);
    EXPECT_EQ(r.spindowns, 0u);
}

TEST(Power, LongIdleSpinsDown)
{
    auto log = logWith(60 * kSec, {});
    PowerReport r = evaluatePower(log, simpleConfig());
    // 10 s idle at 5 W + 50 s standby at 1 W; no spin-up needed
    // because nothing follows.
    EXPECT_DOUBLE_EQ(r.idle_j, 50.0);
    EXPECT_DOUBLE_EQ(r.standby_j, 50.0);
    EXPECT_DOUBLE_EQ(r.spinup_j, 0.0);
    EXPECT_EQ(r.spindowns, 1u);
    EXPECT_EQ(r.delayed_requests, 0u);
}

TEST(Power, SpinupChargedWhenWorkFollows)
{
    // 30 s idle, then 10 s busy.
    auto log = logWith(40 * kSec, {{30 * kSec, 40 * kSec}});
    PowerReport r = evaluatePower(log, simpleConfig());
    EXPECT_DOUBLE_EQ(r.active_j, 10.0 * 10.0);
    EXPECT_DOUBLE_EQ(r.idle_j, 50.0);     // 10 s before spin-down
    EXPECT_DOUBLE_EQ(r.standby_j, 20.0);  // 20 s at 1 W
    EXPECT_DOUBLE_EQ(r.spinup_j, 100.0);
    EXPECT_EQ(r.delayed_requests, 1u);
    EXPECT_EQ(r.added_latency, 2 * kSec);
}

TEST(Power, BusyOnlyChargesActive)
{
    auto log = logWith(10 * kSec, {{0, 10 * kSec}});
    PowerReport r = evaluatePower(log, simpleConfig());
    EXPECT_DOUBLE_EQ(r.active_j, 100.0);
    EXPECT_DOUBLE_EQ(r.idle_j, 0.0);
    EXPECT_DOUBLE_EQ(r.total(), 100.0);
}

TEST(Power, NeverSpindownPolicy)
{
    PowerConfig cfg = simpleConfig();
    cfg.spindown_timeout = kTickNone;
    auto log = logWith(100 * kSec, {});
    PowerReport r = evaluatePower(log, cfg);
    EXPECT_DOUBLE_EQ(r.idle_j, 500.0);
    EXPECT_DOUBLE_EQ(r.standby_j, 0.0);
    EXPECT_EQ(r.spindowns, 0u);
}

TEST(Power, ShortGapsBetweenBusyStayIdle)
{
    auto log = logWith(20 * kSec,
                       {{0, 5 * kSec}, {10 * kSec, 15 * kSec}});
    PowerReport r = evaluatePower(log, simpleConfig());
    EXPECT_DOUBLE_EQ(r.active_j, 100.0);
    // Two 5 s gaps, both below the 10 s timeout.
    EXPECT_DOUBLE_EQ(r.idle_j, 50.0);
    EXPECT_EQ(r.spindowns, 0u);
}

TEST(Power, AggressiveTimeoutSavesEnergyButDelays)
{
    // Bursts separated by 30 s gaps.
    std::vector<trace::BusyInterval> busy;
    for (int i = 0; i < 10; ++i) {
        const Tick t = static_cast<Tick>(i) * 40 * kSec;
        busy.emplace_back(t, t + 10 * kSec);
    }
    auto log = logWith(400 * kSec, busy);

    PowerConfig lazy = simpleConfig();
    lazy.spindown_timeout = kTickNone;
    PowerConfig eager = simpleConfig();
    eager.spindown_timeout = 5 * kSec;

    PowerReport rl = evaluatePower(log, lazy);
    PowerReport re = evaluatePower(log, eager);
    EXPECT_LT(re.total(), rl.total());
    EXPECT_GT(re.delayed_requests, 0u);
    EXPECT_EQ(rl.delayed_requests, 0u);
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
