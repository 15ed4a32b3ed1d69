/**
 * @file
 * RAID address mapping.
 *
 * The enterprise traces the paper studies were collected *below*
 * array controllers: what a single disk sees is the array-level
 * workload after striping, mirroring, and parity update traffic.
 * The mapper translates one logical request into the per-disk
 * requests each RAID level produces, so the characterization can be
 * run on exactly the stream a member disk receives.
 *
 * Modeled levels:
 *  - RAID-0: plain striping.
 *  - RAID-1: mirroring; reads round-robin, writes duplicate.
 *  - RAID-5: rotating parity, left-symmetric; small writes expand
 *    into the classic read-modify-write (read old data, read old
 *    parity, write data, write parity).
 */

#ifndef DLW_ARRAY_RAID_HH
#define DLW_ARRAY_RAID_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace dlw
{
namespace array
{

/** Supported RAID levels. */
enum class RaidLevel
{
    Raid0,
    Raid1,
    Raid5,
};

/**
 * Array geometry.
 */
struct RaidConfig
{
    RaidLevel level = RaidLevel::Raid0;
    /** Member disks (>= 2; >= 3 for RAID-5). */
    std::uint32_t disks = 4;
    /** Stripe unit in blocks. */
    BlockCount stripe_blocks = 128;
};

/** A request addressed to one member disk. */
struct DiskRequest
{
    /** Member disk index. */
    std::uint32_t disk = 0;
    /** The request as the disk sees it. */
    trace::Request req;
};

/**
 * Stateless-per-request address translator (RAID-1 read balancing
 * keeps a rotating cursor, hence a class).
 */
class RaidMapper
{
  public:
    explicit RaidMapper(const RaidConfig &config);

    /** Configuration in force. */
    const RaidConfig &config() const { return config_; }

    /**
     * Logical array capacity in blocks, given per-disk capacity.
     */
    Lba logicalCapacity(Lba disk_capacity) const;

    /**
     * Translate one logical request into member-disk requests.
     *
     * Arrival times are preserved; a logical request completes when
     * every produced disk request completes.
     *
     * @param req Logical request (must fit the logical capacity
     *            implied by the caller's disks).
     * @return Disk requests, in ascending disk order per fragment.
     */
    std::vector<DiskRequest> map(const trace::Request &req);

  private:
    /** Split a request into stripe-unit fragments. */
    std::vector<trace::Request> fragments(const trace::Request &req)
        const;

    void mapRaid0(const trace::Request &frag,
                  std::vector<DiskRequest> &out) const;
    void mapRaid1(const trace::Request &frag,
                  std::vector<DiskRequest> &out);
    void mapRaid5(const trace::Request &frag,
                  std::vector<DiskRequest> &out) const;

    RaidConfig config_;
    /** RAID-1 read-balancing cursor. */
    std::uint32_t mirror_cursor_ = 0;
};

} // namespace array
} // namespace dlw

#endif // DLW_ARRAY_RAID_HH
