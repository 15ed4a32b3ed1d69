/**
 * @file
 * Arrival-process models.
 *
 * The data substitution for the paper's closed traces starts here:
 * each process generates interarrival gaps with a controlled degree
 * of burstiness, from memoryless Poisson (the null model every
 * characterization paper rejects) through ON/OFF and Markov-
 * modulated processes to heavy-tailed renewal processes.
 */

#ifndef DLW_SYNTH_ARRIVAL_HH
#define DLW_SYNTH_ARRIVAL_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dlw
{
namespace synth
{

/**
 * Abstract source of interarrival gaps.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * Draw the gap to the next arrival.
     *
     * @param rng Random source.
     * @return Gap in ticks (>= 0).
     */
    virtual Tick nextGap(Rng &rng) = 0;

    /** Long-run mean arrival rate, in arrivals per second. */
    virtual double meanRate() const = 0;

    /** Reset any internal state (e.g. modulating chain). */
    virtual void reset() {}

    /**
     * Generate all arrival ticks inside [start, start + duration).
     */
    std::vector<Tick> generate(Rng &rng, Tick start, Tick duration);
};

/**
 * Homogeneous Poisson arrivals.
 */
class PoissonArrivals : public ArrivalProcess
{
  public:
    /** @param rate Arrivals per second (> 0). */
    explicit PoissonArrivals(double rate);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override { return rate_; }

  private:
    double rate_;
    double mean_gap_; // ticks
};

/**
 * Exponential ON/OFF arrivals: Poisson bursts at burst_rate during
 * exponentially distributed ON periods separated by exponentially
 * distributed OFF periods.
 */
class OnOffArrivals : public ArrivalProcess
{
  public:
    /**
     * @param burst_rate Arrivals per second while ON (> 0).
     * @param mean_on    Mean ON duration in ticks (> 0).
     * @param mean_off   Mean OFF duration in ticks (> 0).
     */
    OnOffArrivals(double burst_rate, Tick mean_on, Tick mean_off);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override;
    void reset() override;

  private:
    double burst_rate_;
    double mean_on_;
    double mean_off_;
    /** Remaining ON time before the next OFF period, in ticks. */
    double on_left_ = 0.0;
};

/**
 * Two-state Markov-modulated Poisson process.
 */
class MmppArrivals : public ArrivalProcess
{
  public:
    /**
     * @param rate0   Arrival rate in state 0, per second (>= 0).
     * @param rate1   Arrival rate in state 1, per second (>= 0).
     * @param mean_sojourn0 Mean time in state 0, ticks (> 0).
     * @param mean_sojourn1 Mean time in state 1, ticks (> 0).
     */
    MmppArrivals(double rate0, double rate1, Tick mean_sojourn0,
                 Tick mean_sojourn1);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override;
    void reset() override;

  private:
    double rate_[2];
    double sojourn_[2]; // ticks
    int state_ = 0;
};

/**
 * Renewal process with Pareto-distributed gaps: heavy-tailed
 * interarrivals whose clustering survives aggregation, the classic
 * generator of self-similar counts.
 */
class ParetoRenewal : public ArrivalProcess
{
  public:
    /**
     * @param shape Tail index alpha (> 1 for a finite mean).
     * @param rate  Target mean arrival rate per second (> 0); the
     *              scale parameter is derived from it.
     */
    ParetoRenewal(double shape, double rate);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override { return rate_; }

  private:
    double shape_;
    double rate_;
    double scale_; // ticks
};

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_ARRIVAL_HH
