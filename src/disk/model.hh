/**
 * @file
 * Mechanical service-time model.
 *
 * Combines geometry and seek curve into the classic decomposition
 * seek + rotational latency + media transfer.  Rotational latency is
 * deterministic: the platter angle is a pure function of time, so the
 * model waits exactly until the target sector rotates under the head.
 */

#ifndef DLW_DISK_MODEL_HH
#define DLW_DISK_MODEL_HH

#include "disk/geometry.hh"
#include "disk/seek.hh"

namespace dlw
{
namespace disk
{

/**
 * Breakdown of one mechanical access.
 */
struct MechanicalTime
{
    Tick seek = 0;
    Tick rotation = 0;
    Tick transfer = 0;
    /** Cylinder of the access's last block, where the head rests. */
    std::uint64_t end_cylinder = 0;

    /** Total mechanical time. */
    Tick total() const { return seek + rotation + transfer; }
};

/**
 * Service-time calculator over a geometry and a seek curve.
 */
class DiskModel
{
  public:
    DiskModel(DiskGeometry geometry, SeekModel seek);

    /** The geometry in use. */
    const DiskGeometry &geometry() const { return geometry_; }

    /** The seek curve in use. */
    const SeekModel &seek() const { return seek_; }

    /**
     * Platter angle at an absolute tick, in [0, 1).
     */
    double angleAt(Tick t) const;

    /**
     * Mechanical cost of accessing blocks at lba, with the head
     * currently at from_cylinder and the access starting at tick now.
     *
     * @param now           Tick the access begins (end of queueing).
     * @param from_cylinder Head position before the access.
     * @param lba           First block of the access.
     * @param blocks        Access length in blocks.
     * @return Time breakdown and the head's end cylinder, the one
     *         endCylinder(lba, blocks) names.
     */
    MechanicalTime access(Tick now, std::uint64_t from_cylinder,
                          Lba lba, BlockCount blocks) const;

    /** Cylinder where the head rests after the access (access()
     *  returns it as MechanicalTime::end_cylinder). */
    std::uint64_t endCylinder(Lba lba, BlockCount blocks) const;

  private:
    DiskGeometry geometry_;
    SeekModel seek_;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_MODEL_HH
