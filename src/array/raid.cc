#include "array/raid.hh"

#include "common/logging.hh"

namespace dlw
{
namespace array
{

RaidMapper::RaidMapper(const RaidConfig &config)
    : config_(config)
{
    dlw_assert(config_.disks >= 2, "array needs at least two disks");
    dlw_assert(config_.level != RaidLevel::Raid5 || config_.disks >= 3,
               "RAID-5 needs at least three disks");
    dlw_assert(config_.stripe_blocks >= 1, "stripe unit invalid");
}

Lba
RaidMapper::logicalCapacity(Lba disk_capacity) const
{
    const Lba stripes_per_disk = disk_capacity / config_.stripe_blocks;
    const Lba usable = stripes_per_disk * config_.stripe_blocks;
    switch (config_.level) {
      case RaidLevel::Raid0:
        return usable * config_.disks;
      case RaidLevel::Raid1:
        return usable;
      case RaidLevel::Raid5:
        return usable * (config_.disks - 1);
    }
    return 0;
}

std::vector<trace::Request>
RaidMapper::fragments(const trace::Request &req) const
{
    std::vector<trace::Request> out;
    const BlockCount s = config_.stripe_blocks;
    Lba at = req.lba;
    BlockCount left = req.blocks;
    while (left > 0) {
        const Lba offset = at % s;
        const auto take = static_cast<BlockCount>(
            std::min<Lba>(left, s - offset));
        trace::Request frag = req;
        frag.lba = at;
        frag.blocks = take;
        out.push_back(frag);
        at += take;
        left -= take;
    }
    return out;
}

void
RaidMapper::mapRaid0(const trace::Request &frag,
                     std::vector<DiskRequest> &out) const
{
    const BlockCount s = config_.stripe_blocks;
    const Lba stripe = frag.lba / s;
    const Lba offset = frag.lba % s;

    DiskRequest dr;
    dr.disk = static_cast<std::uint32_t>(stripe % config_.disks);
    dr.req = frag;
    dr.req.lba = (stripe / config_.disks) * s + offset;
    out.push_back(dr);
}

void
RaidMapper::mapRaid1(const trace::Request &frag,
                     std::vector<DiskRequest> &out)
{
    if (frag.isRead()) {
        DiskRequest dr;
        dr.disk = mirror_cursor_;
        mirror_cursor_ = (mirror_cursor_ + 1) % config_.disks;
        dr.req = frag;
        out.push_back(dr);
        return;
    }
    for (std::uint32_t d = 0; d < config_.disks; ++d) {
        DiskRequest dr;
        dr.disk = d;
        dr.req = frag;
        out.push_back(dr);
    }
}

void
RaidMapper::mapRaid5(const trace::Request &frag,
                     std::vector<DiskRequest> &out) const
{
    const BlockCount s = config_.stripe_blocks;
    const std::uint32_t n = config_.disks;
    const Lba stripe = frag.lba / s;
    const Lba offset = frag.lba % s;

    // Left-symmetric layout: parity rotates backwards one disk per
    // row; data columns fill the remaining disks in order.
    const Lba row = stripe / (n - 1);
    const auto column = static_cast<std::uint32_t>(stripe % (n - 1));
    const auto parity_disk =
        static_cast<std::uint32_t>((n - 1) - (row % n));
    const std::uint32_t data_disk =
        (parity_disk + 1 + column) % n;
    const Lba disk_lba = row * s + offset;

    if (frag.isRead()) {
        DiskRequest dr;
        dr.disk = data_disk;
        dr.req = frag;
        dr.req.lba = disk_lba;
        out.push_back(dr);
        return;
    }

    // Small-write read-modify-write: read old data and parity, then
    // write both.  (Full-stripe writes would avoid the pre-reads;
    // this mapper models the worst-case small-write path, which is
    // what random enterprise write traffic mostly exercises.)
    for (bool read_phase : {true, false}) {
        for (std::uint32_t d : {data_disk, parity_disk}) {
            DiskRequest dr;
            dr.disk = d;
            dr.req = frag;
            dr.req.lba = disk_lba;
            dr.req.op = read_phase ? trace::Op::Read
                                   : trace::Op::Write;
            out.push_back(dr);
        }
    }
}

std::vector<DiskRequest>
RaidMapper::map(const trace::Request &req)
{
    dlw_assert(req.blocks > 0, "mapping an empty request");
    std::vector<DiskRequest> out;
    for (const trace::Request &frag : fragments(req)) {
        switch (config_.level) {
          case RaidLevel::Raid0:
            mapRaid0(frag, out);
            break;
          case RaidLevel::Raid1:
            mapRaid1(frag, out);
            break;
          case RaidLevel::Raid5:
            mapRaid5(frag, out);
            break;
        }
    }
    return out;
}

} // namespace array
} // namespace dlw
