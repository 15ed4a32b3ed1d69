#include "disk/model.hh"

#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

DiskModel::DiskModel(DiskGeometry geometry, SeekModel seek)
    : geometry_(std::move(geometry)), seek_(seek)
{
}

double
DiskModel::angleAt(Tick t) const
{
    const Tick rot = geometry_.rotationTime();
    Tick phase = t % rot;
    if (phase < 0)
        phase += rot;
    return static_cast<double>(phase) / static_cast<double>(rot);
}

MechanicalTime
DiskModel::access(Tick now, std::uint64_t from_cylinder, Lba lba,
                  BlockCount blocks) const
{
    dlw_assert(blocks > 0, "access of zero blocks");
    dlw_assert(lba + blocks <= geometry_.capacityBlocks(),
               "access beyond drive capacity");

    // One zone lookup serves the cylinder, the angle, the transfer
    // and the end cylinder: the same values cylinderOf(), angleOf(),
    // transferTime() and endCylinder() would each find.
    const std::size_t zone = geometry_.zoneIndexOf(lba);
    const Zone &z = geometry_.zones()[zone];
    const Lba rel = lba - z.start;
    const Lba track = rel / z.sectors_per_track;
    const Lba offset = rel % z.sectors_per_track;
    const std::uint64_t cylinder =
        geometry_.zoneFirstCylinder(zone) + track;

    MechanicalTime mt;
    mt.seek = seek_.seekTime(from_cylinder, cylinder);

    // After the seek settles, wait for the target sector's angle.
    const Tick settle = now + mt.seek;
    const double target = static_cast<double>(offset) /
                          static_cast<double>(z.sectors_per_track);
    const double current = angleAt(settle);
    double wait = target - current;
    if (wait < 0.0)
        wait += 1.0;
    mt.rotation = static_cast<Tick>(
        wait * static_cast<double>(geometry_.rotationTime()) + 0.5);

    mt.transfer = geometry_.transferTime(lba, blocks, zone);
    // The last block lies (offset + blocks - 1) / sectors_per_track
    // tracks past the first, unless the run leaves the zone.
    mt.end_cylinder = blocks <= z.end - lba
        ? cylinder + (offset + blocks - 1) / z.sectors_per_track
        : endCylinder(lba, blocks);
    return mt;
}

std::uint64_t
DiskModel::endCylinder(Lba lba, BlockCount blocks) const
{
    return geometry_.cylinderOf(lba + blocks - 1);
}

} // namespace disk
} // namespace dlw
