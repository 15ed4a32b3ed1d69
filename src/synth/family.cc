#include "synth/family.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "trace/aggregate.hh"

namespace dlw
{
namespace synth
{

FamilyModel::FamilyModel(FamilyConfig config)
    : config_(std::move(config))
{
    dlw_assert(config_.class_weights.size() == 5,
               "family needs five class weights");
}

DriveProfile
FamilyModel::sampleProfile(std::size_t index) const
{
    // Per-drive stream keyed on (seed, index): reproducible no
    // matter which drives are sampled, or in what order.
    Rng rng = Rng(config_.seed).fork(index);

    DriveProfile p;
    p.id = config_.family + "-" + std::to_string(index);
    p.index = index;
    p.cls = static_cast<DriveClass>(rng.discrete(config_.class_weights));

    // Class centres with per-drive jitter, so even drives of one
    // class differ (the paper's "variability across drives of the
    // same family").
    auto jitter = [&rng](double centre, double rel) {
        return centre * std::exp(rng.normal(0.0, rel));
    };

    switch (p.cls) {
      case DriveClass::Archival:
        p.base_rate = jitter(0.3, 0.5);
        p.read_fraction = rng.uniform(0.2, 0.5);
        p.mean_blocks = jitter(64.0, 0.3);
        p.mean_service = static_cast<Tick>(jitter(8.0, 0.2) * kMsec);
        p.hour_sigma = 1.2;
        break;
      case DriveClass::Light:
        p.base_rate = jitter(5.0, 0.4);
        p.read_fraction = rng.uniform(0.5, 0.75);
        p.mean_blocks = jitter(16.0, 0.3);
        p.mean_service = static_cast<Tick>(jitter(6.5, 0.2) * kMsec);
        p.hour_sigma = 0.9;
        break;
      case DriveClass::Moderate:
        p.base_rate = jitter(25.0, 0.35);
        p.read_fraction = rng.uniform(0.55, 0.8);
        p.mean_blocks = jitter(16.0, 0.3);
        p.mean_service = static_cast<Tick>(jitter(6.0, 0.2) * kMsec);
        p.hour_sigma = 0.7;
        break;
      case DriveClass::Busy:
        p.base_rate = jitter(90.0, 0.3);
        p.read_fraction = rng.uniform(0.6, 0.85);
        p.mean_blocks = jitter(12.0, 0.3);
        p.mean_service = static_cast<Tick>(jitter(5.5, 0.2) * kMsec);
        p.hour_sigma = 0.6;
        break;
      case DriveClass::Streamer:
        p.base_rate = jitter(8.0, 0.4);
        p.read_fraction = rng.uniform(0.8, 0.98);
        p.mean_blocks = jitter(512.0, 0.2);
        p.mean_service = static_cast<Tick>(jitter(3.0, 0.2) * kMsec);
        p.hour_sigma = 0.7;
        p.session_prob = rng.uniform(0.01, 0.05);
        p.session_hours = rng.uniform(3.0, 10.0);
        p.session_rate = jitter(180.0, 0.15);
        p.session_util = rng.uniform(0.93, 0.995);
        break;
    }

    p.shape.night_level = rng.uniform(0.05, 0.25);
    p.shape.day_level = 1.0;
    p.shape.peak_hour = rng.uniform(10.0, 16.0);
    p.shape.weekend_level = rng.uniform(0.15, 0.6);
    p.shape.batch_level = rng.bernoulli(0.5)
        ? rng.uniform(0.3, 0.9)
        : 0.0;
    p.shape.batch_start_hour = rng.uniform(0.0, 4.0);
    p.shape.batch_hours = rng.uniform(1.0, 3.0);
    return p;
}

void
FamilyModel::synthHour(const DriveProfile &profile, Tick at, Rng &rng,
                       const RateFunction &rate, int &session_left,
                       trace::HourBucket &out) const
{
    out = trace::HourBucket{};

    // Streaming-session state machine at hour scale.
    bool in_session = session_left > 0;
    if (!in_session && profile.session_prob > 0.0 &&
        rng.bernoulli(profile.session_prob)) {
        session_left = 1 + static_cast<int>(
            rng.exponential(profile.session_hours));
        in_session = true;
    }

    double lambda;
    if (in_session) {
        lambda = profile.session_rate * 3600.0;
        --session_left;
    } else {
        const double diurnal = meanRateOver(rate, at, kHour);
        // Mean-one lognormal multiplier gives the per-hour
        // overdispersion the hour traces exhibit.
        const double s = profile.hour_sigma;
        const double burst = rng.lognormal(-s * s / 2.0, s);
        lambda = profile.base_rate * 3600.0 * diurnal * burst;
    }

    const auto total = static_cast<std::uint64_t>(
        rng.poisson(std::max(lambda, 0.0)));
    if (total == 0)
        return;

    out.reads = static_cast<std::uint64_t>(rng.poisson(
        static_cast<double>(total) * profile.read_fraction));
    out.reads = std::min(out.reads, total);
    out.writes = total - out.reads;

    // Block counts: per-request sizes vary, but at hour scale the
    // law of large numbers justifies mean +/- sqrt noise.
    auto blocks_for = [&](std::uint64_t n) {
        if (n == 0)
            return std::uint64_t{0};
        // Sum of n sizes with mean and stddev ~ mean_blocks each.
        const double nd = static_cast<double>(n);
        const double mean = nd * profile.mean_blocks;
        const double noisy =
            rng.normal(mean, std::sqrt(nd) * profile.mean_blocks);
        return static_cast<std::uint64_t>(std::max(noisy, nd));
    };
    out.read_blocks = blocks_for(out.reads);
    out.write_blocks = blocks_for(out.writes);

    if (in_session) {
        out.busy = static_cast<Tick>(profile.session_util *
                                     static_cast<double>(kHour));
    } else {
        const double busy = static_cast<double>(total) *
                            static_cast<double>(profile.mean_service);
        out.busy = static_cast<Tick>(
            std::min(busy, static_cast<double>(kHour)));
    }
}

trace::HourTrace
FamilyModel::generateHourTrace(const DriveProfile &profile,
                               std::size_t hours, Tick start) const
{
    // Second-level fork: stream 1 of the drive's own stream, so hour
    // synthesis never collides with the profile-sampling draws.
    Rng rng = Rng(config_.seed).fork(profile.index).fork(1);
    const RateFunction rate = profile.shape.build();
    trace::HourTrace out(profile.id, start);
    int session_left = 0;
    for (std::size_t h = 0; h < hours; ++h) {
        trace::HourBucket b;
        synthHour(profile, start + static_cast<Tick>(h) * kHour, rng,
                  rate, session_left, b);
        out.append(b);
    }
    return out;
}

trace::LifetimeRecord
FamilyModel::generateLifetime(const DriveProfile &profile,
                              std::size_t hours,
                              double saturated_threshold) const
{
    Rng rng = Rng(config_.seed).fork(profile.index).fork(1);
    const RateFunction rate = profile.shape.build();

    trace::LifetimeRecord rec;
    rec.drive_id = profile.id;
    rec.power_on = static_cast<Tick>(hours) * kHour;

    int session_left = 0;
    std::uint64_t run = 0;
    for (std::size_t h = 0; h < hours; ++h) {
        trace::HourBucket b;
        synthHour(profile, static_cast<Tick>(h) * kHour, rng, rate,
                  session_left, b);
        trace::foldHour(rec, b, saturated_threshold, run);
    }
    return rec;
}

std::vector<trace::HourTrace>
FamilyModel::generateHourTraces(std::size_t n, std::size_t hours) const
{
    std::vector<trace::HourTrace> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(generateHourTrace(sampleProfile(i), hours));
    return out;
}

trace::LifetimeTrace
FamilyModel::generateLifetimeTrace(std::size_t n,
                                   std::size_t min_hours,
                                   std::size_t max_hours) const
{
    dlw_assert(min_hours >= 1 && max_hours >= min_hours,
               "lifetime hour range invalid");
    trace::LifetimeTrace out(config_.family);
    // Family-level stream for the per-drive life lengths.
    Rng life_rng = Rng(config_.seed).fork(0x4c494645ULL); // "LIFE"
    for (std::size_t i = 0; i < n; ++i) {
        const auto hours = static_cast<std::size_t>(life_rng.uniformInt(
            static_cast<std::int64_t>(min_hours),
            static_cast<std::int64_t>(max_hours)));
        out.append(generateLifetime(sampleProfile(i), hours));
    }
    return out;
}

} // namespace synth
} // namespace dlw
