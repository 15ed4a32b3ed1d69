/**
 * @file
 * Workload composer: arrival process + size model + spatial model +
 * read/write mix, rendered into a Millisecond trace.
 *
 * The presets correspond to the workload classes enterprise traces
 * mix: OLTP (small, random, bursty, read-leaning), file server
 * (ON/OFF bursts of mixed sizes), streaming (large sequential reads
 * that pin the bandwidth), and archive/backup (write-dominated
 * sequential bursts).
 */

#ifndef DLW_SYNTH_WORKLOAD_HH
#define DLW_SYNTH_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "synth/arrival.hh"
#include "synth/sizes.hh"
#include "synth/spatial.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace synth
{

class WorkloadSource;

/**
 * A complete single-drive workload description.
 */
class Workload
{
  public:
    Workload() = default;

    /** Install the arrival process (owned). */
    void setArrival(std::unique_ptr<ArrivalProcess> a);

    /** Install the size model (owned). */
    void setSize(std::unique_ptr<SizeModel> s);

    /** Install the spatial model (owned). */
    void setSpatial(std::unique_ptr<SpatialModel> sp);

    /**
     * Set the read/write mix.
     *
     * @param read_fraction Long-run fraction of reads, in [0, 1].
     * @param persistence   Probability the next request repeats the
     *                      previous direction, in [0, 1); higher
     *                      values produce longer read and write
     *                      runs at the same long-run mix.
     */
    void setMix(double read_fraction, double persistence = 0.0);

    /** Long-run read fraction. */
    double readFraction() const { return read_fraction_; }

    /**
     * Generate a trace using the installed arrival process.
     *
     * @param rng      Random source.
     * @param drive_id Identifier stamped on the trace.
     * @param start    Window start tick.
     * @param duration Window length in ticks.
     */
    trace::MsTrace generate(Rng &rng, const std::string &drive_id,
                            Tick start, Tick duration) const;

    /**
     * Generate a trace from an externally produced arrival vector
     * (b-model cascades, NHPP streams).
     *
     * @param arrivals Sorted arrival ticks inside the window.
     */
    trace::MsTrace generateFromArrivals(
        Rng &rng, const std::string &drive_id, Tick start,
        Tick duration, const std::vector<Tick> &arrivals) const;

    /**
     * Open the workload as a request stream.
     *
     * The streaming form of generate(): the arrival vector is drawn
     * up front (identical RNG stream), but sizes, directions and
     * placements are drawn lazily as batches are pulled, so the
     * requests themselves are never materialized as a whole.
     * Draining the source yields byte-for-byte the trace generate()
     * returns.  The workload and `rng` must outlive the source.
     */
    WorkloadSource openSource(Rng &rng, const std::string &drive_id,
                              Tick start, Tick duration) const;

    /** openSource() over an externally produced arrival vector. */
    WorkloadSource openSourceFromArrivals(
        Rng &rng, const std::string &drive_id, Tick start,
        Tick duration, std::vector<Tick> arrivals) const;

    // ---- Presets -----------------------------------------------

    /**
     * OLTP: MMPP-bursty 4 KiB pages on Zipf hotspots, two reads per
     * write with mild run persistence.
     *
     * @param capacity  Device capacity in blocks.
     * @param rate      Mean arrival rate in requests/second.
     * @param seed      Seed for the hotspot permutation.
     */
    static Workload makeOltp(Lba capacity, double rate,
                             std::uint64_t seed = 1);

    /** File server: ON/OFF bursts, lognormal sizes, mixed locality. */
    static Workload makeFileServer(Lba capacity, double rate,
                                   std::uint64_t seed = 2);

    /**
     * Streaming: almost fully sequential large reads arriving
     * steadily; at a high enough rate this saturates the media.
     */
    static Workload makeStreaming(Lba capacity, double rate);

    /** Backup: write-dominated large sequential bursts. */
    static Workload makeBackup(Lba capacity, double rate);

  private:
    friend class WorkloadSource;

    std::unique_ptr<ArrivalProcess> arrival_;
    std::unique_ptr<SizeModel> size_;
    std::unique_ptr<SpatialModel> spatial_;
    double read_fraction_ = 0.67;
    double persistence_ = 0.0;
};

/**
 * RequestSource that synthesizes batches on the fly.
 *
 * Holds the pre-drawn arrival ticks (the only O(requests) piece of a
 * synthetic stream — 8 bytes per request) and draws the rest of each
 * request per batch, in exactly the order generateFromArrivals()
 * draws them.  Single pass: there is no rewind, because replaying
 * would re-draw from the caller's RNG.
 */
class WorkloadSource : public trace::RequestSource
{
  public:
    const std::string &driveId() const override { return drive_id_; }

    Tick start() const override { return start_; }

    Tick duration() const override { return duration_; }

    bool next(trace::RequestBatch &batch) override;

    /** Total number of requests the stream delivers. */
    std::size_t size() const { return arrivals_.size(); }

  private:
    friend class Workload;

    WorkloadSource(const Workload &w, Rng &rng, std::string drive_id,
                   Tick start, Tick duration,
                   std::vector<Tick> arrivals);

    const Workload &w_;
    Rng &rng_;
    std::string drive_id_;
    Tick start_ = 0;
    Tick duration_ = 0;
    std::vector<Tick> arrivals_;
    std::size_t pos_ = 0;
    bool prev_read_ = true;
    bool have_prev_ = false;
};

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_WORKLOAD_HH
