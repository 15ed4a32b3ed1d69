#include "trace/aggregate.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace trace
{

HourTrace
msToHour(const MsTrace &ms, const std::vector<BusyInterval> &busy)
{
    HourTrace out(ms.driveId(), ms.start());

    // Size the grid to cover the whole observation window even when
    // the tail hours are empty.
    if (ms.duration() > 0) {
        auto hours = static_cast<std::size_t>(
            (ms.duration() + kHour - 1) / kHour);
        if (hours > 0)
            out.bucketFor(hours - 1);
    }

    for (const Request &r : ms.requests()) {
        HourBucket &b = out.bucketAt(r.arrival);
        if (r.isRead()) {
            ++b.reads;
            b.read_blocks += r.blocks;
        } else {
            ++b.writes;
            b.write_blocks += r.blocks;
        }
    }

    for (const BusyInterval &iv : busy) {
        dlw_assert(iv.second >= iv.first, "inverted busy interval");
        Tick from = std::max(iv.first, ms.start());
        Tick to = iv.second;
        while (from < to) {
            // Clip the interval to each hour it overlaps.
            auto h = static_cast<std::size_t>((from - ms.start()) / kHour);
            Tick hour_end = ms.start() +
                static_cast<Tick>(h + 1) * kHour;
            Tick seg_end = std::min(to, hour_end);
            out.bucketFor(h).busy += seg_end - from;
            from = seg_end;
        }
    }

    return out;
}

void
foldHour(LifetimeRecord &rec, const HourBucket &b,
         double saturated_threshold, std::uint64_t &run)
{
    rec.reads += b.reads;
    rec.writes += b.writes;
    rec.read_blocks += b.read_blocks;
    rec.write_blocks += b.write_blocks;
    rec.busy += b.busy;
    rec.peak_hour_requests = std::max(rec.peak_hour_requests, b.total());
    if (b.utilization() >= saturated_threshold) {
        ++rec.saturated_hours;
        ++run;
        rec.longest_saturated_run =
            std::max(rec.longest_saturated_run, run);
    } else {
        run = 0;
    }
}

LifetimeRecord
hourToLifetime(const HourTrace &hour, double saturated_threshold)
{
    LifetimeRecord rec;
    rec.drive_id = hour.driveId();
    rec.power_on = static_cast<Tick>(hour.hours()) * kHour;

    std::uint64_t run = 0;
    for (const HourBucket &b : hour.buckets())
        foldHour(rec, b, saturated_threshold, run);
    return rec;
}

bool
consistentMsHour(const MsTrace &ms, const HourTrace &hour)
{
    const LifetimeRecord sums = hourToLifetime(hour);
    std::uint64_t ms_reads = 0, ms_writes = 0;
    std::uint64_t ms_rblocks = 0, ms_wblocks = 0;
    for (const Request &r : ms.requests()) {
        if (r.isRead()) {
            ++ms_reads;
            ms_rblocks += r.blocks;
        } else {
            ++ms_writes;
            ms_wblocks += r.blocks;
        }
    }

    return sums.reads == ms_reads && sums.writes == ms_writes &&
           sums.read_blocks == ms_rblocks &&
           sums.write_blocks == ms_wblocks;
}

bool
consistentHourLifetime(const HourTrace &hour, const LifetimeRecord &life)
{
    const LifetimeRecord sums = hourToLifetime(hour);
    return sums.reads == life.reads && sums.writes == life.writes &&
           sums.read_blocks == life.read_blocks &&
           sums.write_blocks == life.write_blocks &&
           sums.busy == life.busy && sums.power_on == life.power_on;
}

} // namespace trace
} // namespace dlw
