#include "synth/arrival.hh"

#include "common/logging.hh"

namespace dlw
{
namespace synth
{

std::vector<Tick>
ArrivalProcess::generate(Rng &rng, Tick start, Tick duration)
{
    dlw_assert(duration >= 0, "negative generation window");
    std::vector<Tick> out;
    const Tick end = start + duration;
    Tick at = start;
    while (true) {
        const Tick gap = nextGap(rng);
        dlw_assert(gap >= 0, "arrival process produced negative gap");
        at += gap;
        if (at >= end)
            break;
        out.push_back(at);
    }
    return out;
}

PoissonArrivals::PoissonArrivals(double rate)
    : rate_(rate)
{
    dlw_assert(rate > 0.0, "poisson rate must be positive");
    mean_gap_ = static_cast<double>(kSec) / rate;
}

Tick
PoissonArrivals::nextGap(Rng &rng)
{
    return static_cast<Tick>(rng.exponential(mean_gap_) + 0.5);
}

OnOffArrivals::OnOffArrivals(double burst_rate, Tick mean_on,
                             Tick mean_off)
    : burst_rate_(burst_rate),
      mean_on_(static_cast<double>(mean_on)),
      mean_off_(static_cast<double>(mean_off))
{
    dlw_assert(burst_rate > 0.0, "burst rate must be positive");
    dlw_assert(mean_on > 0 && mean_off > 0,
               "ON/OFF durations must be positive");
}

void
OnOffArrivals::reset()
{
    on_left_ = 0.0;
}

Tick
OnOffArrivals::nextGap(Rng &rng)
{
    const double mean_gap = static_cast<double>(kSec) / burst_rate_;
    double gap = 0.0;
    while (true) {
        if (on_left_ <= 0.0) {
            // Begin a new cycle: an OFF period then a fresh ON period.
            gap += rng.exponential(mean_off_);
            on_left_ = rng.exponential(mean_on_);
        }
        const double next = rng.exponential(mean_gap);
        if (next <= on_left_) {
            on_left_ -= next;
            return static_cast<Tick>(gap + next + 0.5);
        }
        // The ON period expires before the next arrival; burn it and
        // loop into the next OFF/ON cycle.
        gap += on_left_;
        on_left_ = 0.0;
    }
}

double
OnOffArrivals::meanRate() const
{
    const double duty = mean_on_ / (mean_on_ + mean_off_);
    return burst_rate_ * duty;
}

MmppArrivals::MmppArrivals(double rate0, double rate1,
                           Tick mean_sojourn0, Tick mean_sojourn1)
{
    dlw_assert(rate0 >= 0.0 && rate1 >= 0.0, "negative MMPP rate");
    dlw_assert(rate0 > 0.0 || rate1 > 0.0,
               "MMPP needs at least one active state");
    dlw_assert(mean_sojourn0 > 0 && mean_sojourn1 > 0,
               "MMPP sojourns must be positive");
    rate_[0] = rate0;
    rate_[1] = rate1;
    sojourn_[0] = static_cast<double>(mean_sojourn0);
    sojourn_[1] = static_cast<double>(mean_sojourn1);
}

void
MmppArrivals::reset()
{
    state_ = 0;
}

Tick
MmppArrivals::nextGap(Rng &rng)
{
    double gap = 0.0;
    while (true) {
        const double switch_t = rng.exponential(sojourn_[state_]);
        if (rate_[state_] <= 0.0) {
            // Silent state: nothing can arrive before the switch.
            gap += switch_t;
            state_ ^= 1;
            continue;
        }
        const double mean_gap =
            static_cast<double>(kSec) / rate_[state_];
        const double arr_t = rng.exponential(mean_gap);
        if (arr_t <= switch_t)
            return static_cast<Tick>(gap + arr_t + 0.5);
        gap += switch_t;
        state_ ^= 1;
    }
}

double
MmppArrivals::meanRate() const
{
    // Stationary probabilities are proportional to the sojourns.
    const double p0 = sojourn_[0] / (sojourn_[0] + sojourn_[1]);
    return rate_[0] * p0 + rate_[1] * (1.0 - p0);
}

ParetoRenewal::ParetoRenewal(double shape, double rate)
    : shape_(shape), rate_(rate)
{
    dlw_assert(shape > 1.0, "pareto renewal needs shape > 1");
    dlw_assert(rate > 0.0, "rate must be positive");
    // Mean gap of Pareto(alpha, xm) is alpha*xm/(alpha-1).
    const double mean_gap = static_cast<double>(kSec) / rate;
    scale_ = mean_gap * (shape - 1.0) / shape;
}

Tick
ParetoRenewal::nextGap(Rng &rng)
{
    return static_cast<Tick>(rng.pareto(shape_, scale_) + 0.5);
}

} // namespace synth
} // namespace dlw
