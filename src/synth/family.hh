/**
 * @file
 * Drive-family population model.
 *
 * The paper's Hour and Lifetime data sets cover an entire drive
 * family deployed in the field, and its headline population finding
 * is heterogeneity: most drives are lightly or moderately used,
 * while a small class streams at full bandwidth for hours.  This
 * model samples per-drive behavioural profiles from a class mixture
 * and synthesizes Hour traces and Lifetime records directly at
 * those granularities (generating per-request data for months of
 * activity would be pointless precision).
 */

#ifndef DLW_SYNTH_FAMILY_HH
#define DLW_SYNTH_FAMILY_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "synth/diurnal.hh"
#include "trace/hourtrace.hh"
#include "trace/lifetime.hh"

namespace dlw
{
namespace synth
{

/** Behavioural class of a drive in the family. */
enum class DriveClass
{
    Archival, ///< Nearly idle; rare bursts.
    Light,    ///< Desktop-like light duty.
    Moderate, ///< Typical enterprise volume.
    Busy,     ///< Heavily loaded database volume.
    Streamer, ///< Alternates idle with hours-long saturated streams.
};

/**
 * Sampled per-drive behaviour.
 */
struct DriveProfile
{
    std::string id;
    /** Drive index within the family; keys all derived RNG streams. */
    std::size_t index = 0;
    DriveClass cls = DriveClass::Moderate;
    /** Mean foreground request rate, requests/second. */
    double base_rate = 10.0;
    /** Long-run read fraction. */
    double read_fraction = 0.65;
    /** Mean request size in blocks. */
    double mean_blocks = 16.0;
    /** Mean mechanical service time per request, in ticks. */
    Tick mean_service = 6 * kMsec;
    /** Log-space sigma of the per-hour activity multiplier. */
    double hour_sigma = 0.7;
    /** Diurnal/weekly modulation. */
    DiurnalShape shape;
    /** Probability a streaming session starts in an idle hour. */
    double session_prob = 0.0;
    /** Mean streaming-session length in hours. */
    double session_hours = 0.0;
    /** Request rate during a session, requests/second. */
    double session_rate = 0.0;
    /** Utilization during a session (close to 1). */
    double session_util = 0.97;
};

/**
 * Family-level configuration.
 */
struct FamilyConfig
{
    /** Family name stamped on the lifetime trace. */
    std::string family = "DLW-E15K";
    /**
     * Mixture weights over {Archival, Light, Moderate, Busy,
     * Streamer}; need not be normalized.
     */
    std::vector<double> class_weights = {0.15, 0.30, 0.35, 0.14, 0.06};
    /** Master seed; each drive forks its own stream. */
    std::uint64_t seed = 42;
};

/**
 * The population generator.
 */
class FamilyModel
{
  public:
    explicit FamilyModel(FamilyConfig config);

    /** Configuration in force. */
    const FamilyConfig &config() const { return config_; }

    /**
     * Sample the behavioural profile of drive number index.
     *
     * Deterministic per (seed, index).
     */
    DriveProfile sampleProfile(std::size_t index) const;

    /**
     * Synthesize an Hour trace for a profile.
     *
     * @param profile Drive behaviour.
     * @param hours   Number of hours to generate.
     * @param start   Tick of hour 0.
     */
    trace::HourTrace generateHourTrace(const DriveProfile &profile,
                                       std::size_t hours,
                                       Tick start = 0) const;

    /**
     * Synthesize a Lifetime record by streaming the hour process
     * over the drive's whole life without materializing buckets.
     *
     * @param profile              Drive behaviour.
     * @param hours                Powered-on hours of the life.
     * @param saturated_threshold  Utilization counting as saturated.
     */
    trace::LifetimeRecord generateLifetime(
        const DriveProfile &profile, std::size_t hours,
        double saturated_threshold = 0.9) const;

    /**
     * Generate Hour traces for the first n drives of the family.
     */
    std::vector<trace::HourTrace> generateHourTraces(
        std::size_t n, std::size_t hours) const;

    /**
     * Generate a Lifetime trace for n drives, with per-drive life
     * lengths drawn uniformly from [min_hours, max_hours].
     */
    trace::LifetimeTrace generateLifetimeTrace(
        std::size_t n, std::size_t min_hours,
        std::size_t max_hours) const;

  private:
    /** Synthesize one hour; updates streaming-session state. */
    void synthHour(const DriveProfile &profile, Tick at, Rng &rng,
                   const RateFunction &rate, int &session_left,
                   trace::HourBucket &out) const;

    FamilyConfig config_;
};

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_FAMILY_HH
