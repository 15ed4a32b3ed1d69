#include "disk/power.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

PowerReport
evaluatePower(const ServiceLog &log, const PowerConfig &config)
{
    PowerReport rep;

    auto charge_active = [&](Tick dur) {
        rep.active_j += config.active_w * ticksToSeconds(dur);
    };
    auto charge_gap = [&](Tick gap, bool followed_by_busy) {
        if (config.spindown_timeout == kTickNone ||
            gap <= config.spindown_timeout) {
            rep.idle_j += config.idle_w * ticksToSeconds(gap);
            return;
        }
        // Spin down after the timeout; the rest of the gap is spent
        // in standby.
        rep.idle_j += config.idle_w *
                      ticksToSeconds(config.spindown_timeout);
        rep.standby_j += config.standby_w *
                         ticksToSeconds(gap - config.spindown_timeout);
        ++rep.spindowns;
        if (followed_by_busy) {
            rep.spinup_j += config.spinup_j;
            ++rep.delayed_requests;
            rep.added_latency += config.spinup_time;
        }
    };

    Tick at = log.window_start;
    for (const trace::BusyInterval &iv : log.busy) {
        dlw_assert(iv.first >= at, "busy intervals out of order");
        if (iv.first > at)
            charge_gap(iv.first - at, true);
        charge_active(iv.second - iv.first);
        at = iv.second;
    }
    if (log.window_end > at)
        charge_gap(log.window_end - at, false);

    return rep;
}

} // namespace disk
} // namespace dlw
