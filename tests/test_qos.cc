/**
 * @file
 * Unit tests for the QoS layer: tag vocabulary, token-bucket
 * determinism, AIMD convergence of the ratekeeper and priority-lane
 * dispatch ordering in the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/pool.hh"
#include "qos/ratekeeper.hh"
#include "qos/tag.hh"

namespace dlw
{
namespace qos
{
namespace
{

constexpr std::uint64_t kMs = 1'000'000;  // ns
constexpr std::uint64_t kSecNs = 1'000'000'000;

// ---- Tag vocabulary --------------------------------------------

TEST(Tag, ClassNamesRoundTrip)
{
    for (WorkClass k : {WorkClass::kInteractive, WorkClass::kBulk,
                        WorkClass::kBackground}) {
        WorkClass parsed;
        ASSERT_TRUE(parseWorkClass(workClassName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    WorkClass parsed;
    EXPECT_FALSE(parseWorkClass("batch", parsed));
    EXPECT_FALSE(parseWorkClass("", parsed));
    EXPECT_FALSE(parseWorkClass("Interactive", parsed));
}

TEST(Tag, InternIsStableAndAnonIsZero)
{
    EXPECT_EQ(internTenant(""), 0u);
    EXPECT_EQ(internTenant("anon"), 0u);
    const std::uint32_t a = internTenant("qos-test-tenant-a");
    const std::uint32_t b = internTenant("qos-test-tenant-b");
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(internTenant("qos-test-tenant-a"), a);
    EXPECT_EQ(tenantName(a), "qos-test-tenant-a");
    EXPECT_EQ(tenantName(0), "anon");
}

TEST(Tag, DefaultTagAndPacking)
{
    TagId def;
    EXPECT_TRUE(def.isDefault());
    TagId bulk{0, WorkClass::kBulk};
    EXPECT_FALSE(bulk.isDefault());
    EXPECT_NE(def.packed(), bulk.packed());
    TagId other{internTenant("qos-test-tenant-a"),
                WorkClass::kBulk};
    EXPECT_NE(other.packed(), bulk.packed());
    EXPECT_EQ(bulk, (TagId{0, WorkClass::kBulk}));
}

// ---- TokenBucket -----------------------------------------------

TEST(TokenBucket, AdmitsBurstThenDelays)
{
    TokenBucket b;
    b.setRate(1000); // burst = 1000 records
    std::uint64_t now = kSecNs;
    ASSERT_TRUE(b.admit(now));
    b.charge(1000); // exactly the burst: balance drops to 0
    EXPECT_TRUE(b.admit(now));
    b.charge(500); // into debt
    EXPECT_FALSE(b.admit(now));
    // 500 records of debt at 1000 records/s = 500 ms to surface.
    EXPECT_EQ(b.resumeDelayNs(now), 500 * kMs);
    // After exactly that long the bucket admits again.
    now += 500 * kMs;
    EXPECT_TRUE(b.admit(now));
}

TEST(TokenBucket, ZeroRateIsUnlimited)
{
    TokenBucket b;
    std::uint64_t now = kSecNs;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(b.admit(now));
        b.charge(1u << 20);
        now += kMs;
    }
}

TEST(TokenBucket, IdenticalCallSequencesAreIdentical)
{
    // The determinism contract: decisions are a pure function of the
    // (rate, timestamp, charge) sequence.  Two buckets fed the same
    // sequence agree on every verdict and every balance.
    TokenBucket a, b;
    a.setRate(7777);
    b.setRate(7777);
    std::uint64_t now = 5 * kSecNs;
    for (int i = 0; i < 2000; ++i) {
        now += (i % 13) * kMs / 7;
        const bool va = a.admit(now);
        const bool vb = b.admit(now);
        ASSERT_EQ(va, vb) << "step " << i;
        if (va) {
            a.charge(static_cast<std::uint64_t>(i % 97));
            b.charge(static_cast<std::uint64_t>(i % 97));
        }
        ASSERT_EQ(a.balanceMicro(), b.balanceMicro()) << "step " << i;
        ASSERT_EQ(a.resumeDelayNs(now), b.resumeDelayNs(now));
    }
}

TEST(TokenBucket, ThroughputBoundHoldsUnderAnyThreadCount)
{
    // Many threads hammering one ratekeeper cannot push more records
    // through a bulk tag than rate * time + burst + one in-flight
    // batch per thread, no matter how the calls interleave.
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
        RatekeeperConfig cfg;
        cfg.max_rate_per_sec = 10'000;
        Ratekeeper rk(cfg);
        const TagId tag{internTenant("qos-bound-tenant"),
                        WorkClass::kBulk};
        // Prime the tag and pin its bucket at max_rate.
        rk.admit(tag, kSecNs);
        rk.tick(kSecNs, QosSignals{});

        const std::uint64_t kBatch = 500;
        const std::uint64_t window_ns = 2 * kSecNs;
        std::atomic<std::uint64_t> admitted{0};
        std::vector<std::thread> ts;
        for (std::size_t t = 0; t < threads; ++t) {
            ts.emplace_back([&rk, &admitted, tag, window_ns] {
                // Virtual clock: every thread sweeps the same 2 s
                // window in 1 ms steps, so the test is time-free.
                for (std::uint64_t now = kSecNs;
                     now < kSecNs + window_ns; now += kMs) {
                    if (rk.admit(tag, now) == Admission::kAdmit) {
                        rk.charge(tag, kBatch);
                        admitted.fetch_add(kBatch);
                    }
                }
            });
        }
        for (auto &t : ts)
            t.join();
        // rate * 2 s + 1 s burst + one optimistic batch per thread.
        const std::uint64_t bound =
            10'000 * 2 + 10'000 + threads * kBatch;
        EXPECT_LE(admitted.load(), bound) << threads << " threads";
        EXPECT_GT(admitted.load(), 0u);
    }
}

// ---- Ratekeeper AIMD -------------------------------------------

QosSignals
pressured()
{
    QosSignals s;
    s.queue_depth = 64; // 4x the default target of 16
    s.fold_p95_us = 200'000;
    s.active_sessions = 10;
    return s;
}

TEST(Ratekeeper, ConvergesDownUnderPressureAndRecovers)
{
    RatekeeperConfig cfg;
    Ratekeeper rk(cfg);
    const TagId bulk{internTenant("qos-aimd-tenant"),
                     WorkClass::kBulk};
    std::uint64_t now = kSecNs;
    rk.admit(bulk, now); // make the tag active

    EXPECT_EQ(rk.limitPerSec(WorkClass::kBulk),
              cfg.max_rate_per_sec);

    // Sustained pressure: multiplicative decrease walks the bulk
    // and background limits to the floor; interactive never moves.
    for (int i = 0; i < 400; ++i) {
        now += cfg.tick_ns;
        rk.tick(now, pressured());
    }
    EXPECT_GT(rk.pressureMilli(), 1000);
    EXPECT_EQ(rk.limitPerSec(WorkClass::kBulk),
              cfg.min_rate_per_sec);
    EXPECT_EQ(rk.limitPerSec(WorkClass::kBackground),
              cfg.min_rate_per_sec);
    EXPECT_EQ(rk.limitPerSec(WorkClass::kInteractive),
              cfg.max_rate_per_sec);

    // Pressure clears: additive increase climbs back to the cap.
    const std::uint64_t ticks_to_max =
        cfg.max_rate_per_sec / cfg.additive_step_per_sec + 20;
    for (std::uint64_t i = 0; i < ticks_to_max; ++i) {
        now += cfg.tick_ns;
        rk.tick(now, QosSignals{});
        rk.admit(bulk, now); // keep the tag from idling out
    }
    EXPECT_EQ(rk.limitPerSec(WorkClass::kBulk),
              cfg.max_rate_per_sec);
    EXPECT_EQ(rk.limitPerSec(WorkClass::kBackground),
              cfg.max_rate_per_sec);
}

TEST(Ratekeeper, BackgroundYieldsHarderThanBulk)
{
    RatekeeperConfig cfg;
    Ratekeeper rk(cfg);
    std::uint64_t now = kSecNs;
    // A handful of pressure ticks: background (x3/4 per tick) must
    // fall below bulk (x7/8 per tick) before either hits the floor.
    for (int i = 0; i < 10; ++i) {
        now += cfg.tick_ns;
        rk.tick(now, pressured());
    }
    EXPECT_LT(rk.limitPerSec(WorkClass::kBackground),
              rk.limitPerSec(WorkClass::kBulk));
    EXPECT_LT(rk.limitPerSec(WorkClass::kBulk),
              rk.limitPerSec(WorkClass::kInteractive));
}

TEST(Ratekeeper, InteractiveNeverDelayedOrShed)
{
    RatekeeperConfig cfg;
    Ratekeeper rk(cfg);
    const TagId inter{internTenant("qos-inter-tenant"),
                      WorkClass::kInteractive};
    std::uint64_t now = kSecNs;
    for (int i = 0; i < 400; ++i) {
        now += cfg.tick_ns;
        rk.tick(now, pressured());
    }
    EXPECT_EQ(rk.admit(inter, now), Admission::kAdmit);
    EXPECT_EQ(rk.admitSession(inter, now), Admission::kAdmit);
    rk.charge(inter, 1u << 30); // even absurd volume: still admitted
    EXPECT_EQ(rk.admit(inter, now), Admission::kAdmit);
}

TEST(Ratekeeper, ShedsBulkOnlyAtFloorUnderSustainedPressure)
{
    RatekeeperConfig cfg;
    Ratekeeper rk(cfg);
    const TagId bulk{internTenant("qos-shed-tenant"),
                     WorkClass::kBulk};
    std::uint64_t now = kSecNs;

    // Calm: sessions always admitted.
    EXPECT_EQ(rk.admitSession(bulk, now), Admission::kAdmit);

    // Deep sustained pressure: limit reaches the floor and the
    // smoothed pressure crosses the shed threshold -> new bulk
    // sessions shed, existing ones merely throttle.
    for (int i = 0; i < 400; ++i) {
        now += cfg.tick_ns;
        rk.tick(now, pressured());
    }
    ASSERT_EQ(rk.limitPerSec(WorkClass::kBulk),
              cfg.min_rate_per_sec);
    ASSERT_GT(rk.pressureMilli(), cfg.shed_pressure_milli);
    EXPECT_EQ(rk.admitSession(bulk, now), Admission::kShed);
}

TEST(Ratekeeper, FairShareSplitsClassLimitAcrossTags)
{
    RatekeeperConfig cfg;
    cfg.max_rate_per_sec = 1000;
    Ratekeeper rk(cfg);
    const TagId a{internTenant("qos-share-a"), WorkClass::kBulk};
    const TagId b{internTenant("qos-share-b"), WorkClass::kBulk};
    std::uint64_t now = kSecNs;
    rk.admit(a, now);
    rk.admit(b, now);
    rk.tick(now + cfg.tick_ns, QosSignals{});
    now += cfg.tick_ns;

    // Two active bulk tags, 1000 records/s class limit: each tag's
    // bucket refills at ~500/s, so a tag that just burned 10 s worth
    // of its fair share delays for a deterministic, rate-derived
    // time while the other tag still admits.
    ASSERT_EQ(rk.admit(a, now), Admission::kAdmit);
    rk.charge(a, 6000);
    EXPECT_EQ(rk.admit(a, now), Admission::kDelay);
    EXPECT_EQ(rk.admit(b, now), Admission::kAdmit);
    const std::uint64_t d = rk.resumeDelayNs(a, now);
    // Debt is clamped to two bursts (2 x 500 records at 500/s), so
    // the resume delay is exactly 2 s — 1000 splits evenly across
    // the two tags, so the remainder rotation cannot perturb it.
    EXPECT_EQ(d, 2 * kSecNs);
}

TEST(Ratekeeper, IdenticalCallSequencesMakeIdenticalDecisions)
{
    // Determinism across instances: same config, same sequence of
    // tick/admit/charge with the same timestamps -> same verdicts
    // and same limits, bit for bit.
    RatekeeperConfig cfg;
    Ratekeeper r1(cfg), r2(cfg);
    const TagId tags[] = {
        {internTenant("qos-det-a"), WorkClass::kBulk},
        {internTenant("qos-det-b"), WorkClass::kBackground},
        {internTenant("qos-det-c"), WorkClass::kBulk},
    };
    std::uint64_t now = kSecNs;
    for (int i = 0; i < 500; ++i) {
        now += cfg.tick_ns;
        const QosSignals sig =
            (i / 50) % 2 ? pressured() : QosSignals{};
        r1.tick(now, sig);
        r2.tick(now, sig);
        const TagId &tag = tags[i % 3];
        const Admission v1 = r1.admit(tag, now);
        const Admission v2 = r2.admit(tag, now);
        ASSERT_EQ(v1, v2) << "step " << i;
        if (v1 == Admission::kAdmit) {
            r1.charge(tag, static_cast<std::uint64_t>(i) * 37 % 991);
            r2.charge(tag, static_cast<std::uint64_t>(i) * 37 % 991);
        }
        ASSERT_EQ(r1.resumeDelayNs(tag, now),
                  r2.resumeDelayNs(tag, now));
        ASSERT_EQ(r1.admitSession(tag, now),
                  r2.admitSession(tag, now));
    }
    for (WorkClass k : {WorkClass::kInteractive, WorkClass::kBulk,
                        WorkClass::kBackground})
        EXPECT_EQ(r1.limitPerSec(k), r2.limitPerSec(k));
    EXPECT_EQ(r1.pressureMilli(), r2.pressureMilli());
}

// ---- Priority lanes in the pool --------------------------------

TEST(PriorityLanes, InteractiveDispatchesBeforeBulkBeforeBackground)
{
    fleet::ThreadPool pool(1);

    // Park the single worker so the lanes fill while nothing runs.
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    pool.submit(
        [&] {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return release; });
        },
        WorkClass::kInteractive);
    // Give the worker a moment to pick up the parking task.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::vector<int> order;
    std::mutex order_mu;
    auto record = [&order, &order_mu](int lane) {
        return [&order, &order_mu, lane] {
            std::lock_guard<std::mutex> lock(order_mu);
            order.push_back(lane);
        };
    };
    // Submit in worst-case order: background first, interactive last.
    for (int i = 0; i < 4; ++i)
        pool.submit(record(2), qos::WorkClass::kBackground);
    for (int i = 0; i < 4; ++i)
        pool.submit(record(1), qos::WorkClass::kBulk);
    for (int i = 0; i < 4; ++i)
        pool.submit(record(0), qos::WorkClass::kInteractive);

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    pool.wait();

    ASSERT_EQ(order.size(), 12u);
    // Strict lane priority on a single worker: the recorded order
    // must be non-decreasing lane numbers despite submission order.
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
        << ::testing::PrintToString(order);
    EXPECT_EQ(std::count(order.begin(), order.end(), 0), 4);
    EXPECT_EQ(std::count(order.begin(), order.end(), 1), 4);
}

} // namespace
} // namespace qos
} // namespace dlw
