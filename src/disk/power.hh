/**
 * @file
 * Drive power-state model over a service log.
 *
 * The practical payoff of the paper's idleness findings is power
 * management: long idle stretches are opportunities to unload heads
 * or spin down.  This model replays a ServiceLog's busy/idle
 * structure against a three-state machine (active / idle / standby
 * with a spin-down timeout) and reports the energy picture plus the
 * latency penalties the timeout choice would have caused.
 */

#ifndef DLW_DISK_POWER_HH
#define DLW_DISK_POWER_HH

#include <cstdint>

#include "disk/drive.hh"

namespace dlw
{
namespace disk
{

/**
 * Electrical parameters of the drive.
 */
struct PowerConfig
{
    /** Power while seeking/transferring, in watts. */
    double active_w = 14.0;
    /** Power while spinning idle, in watts. */
    double idle_w = 9.0;
    /** Power spun down, in watts. */
    double standby_w = 2.5;
    /** Energy to spin back up, in joules. */
    double spinup_j = 135.0;
    /** Time to spin back up. */
    Tick spinup_time = 6 * kSec;
    /** Idle time before spinning down (kTickNone = never). */
    Tick spindown_timeout = 5 * kMinute;
};

/**
 * Energy and penalty accounting of one replay.
 */
struct PowerReport
{
    double active_j = 0.0;
    double idle_j = 0.0;
    double standby_j = 0.0;
    double spinup_j = 0.0;
    /** Number of spin-down events taken. */
    std::uint64_t spindowns = 0;
    /** Requests that would have waited for a spin-up. */
    std::uint64_t delayed_requests = 0;
    /** Total added latency across delayed requests. */
    Tick added_latency = 0;

    /** Total energy in joules. */
    double
    total() const
    {
        return active_j + idle_j + standby_j + spinup_j;
    }
};

/**
 * Evaluate a power policy against a service log.
 *
 * The replay is analytical: it walks the busy intervals, applies the
 * spin-down timeout to every idle gap, and charges a spin-up (energy,
 * time, and one delayed request) whenever a busy period follows a
 * stand-by period.
 *
 * @param log    Drive activity to replay.
 * @param config Electrical parameters and timeout policy.
 * @return Energy and penalty report.
 */
PowerReport evaluatePower(const ServiceLog &log,
                          const PowerConfig &config);

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_POWER_HH
