/**
 * @file
 * Shared workload definitions for the experiment harness.
 *
 * Every bench binary regenerates its inputs from fixed seeds so each
 * table/figure is reproducible in isolation.  The "standard ms set"
 * models the paper's Millisecond traces: a handful of drives from
 * one family running different enterprise workload classes for the
 * same observation window.
 */

#ifndef DLW_BENCH_BENCHUTIL_HH
#define DLW_BENCH_BENCHUTIL_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "net/client.hh"
#include "synth/family.hh"
#include "synth/workload.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace bench
{

/** One drive of the Millisecond trace set. */
struct MsDrive
{
    std::string name;
    std::string klass;
    trace::MsTrace tr;
    disk::ServiceLog log;
};

/** Window length of the standard ms set. */
constexpr Tick kMsWindow = 30 * kMinute;

/** Master seed of the harness. */
constexpr std::uint64_t kSeed = 20090614;

/**
 * Build one ms-set drive: generate the workload and service it.
 */
inline MsDrive
makeDrive(const std::string &name, const std::string &klass,
          synth::Workload workload, std::uint64_t seed,
          disk::DriveConfig config = disk::DriveConfig::makeEnterprise())
{
    Rng rng(seed);
    MsDrive d;
    d.name = name;
    d.klass = klass;
    d.tr = workload.generate(rng, name, 0, kMsWindow);
    disk::DiskDrive drive(std::move(config));
    d.log = drive.service(d.tr);
    return d;
}

/**
 * The standard Millisecond trace set: eight drives covering the
 * workload classes the paper's systems mix.
 */
inline std::vector<MsDrive>
makeStandardMsSet()
{
    const disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    const Lba cap = cfg.geometry.capacityBlocks();

    std::vector<MsDrive> set;
    set.push_back(makeDrive("ms-oltp-lo", "oltp",
                            synth::Workload::makeOltp(cap, 40.0, 11),
                            kSeed + 1));
    set.push_back(makeDrive("ms-oltp-hi", "oltp",
                            synth::Workload::makeOltp(cap, 150.0, 12),
                            kSeed + 2));
    set.push_back(makeDrive("ms-file-lo", "file-server",
                            synth::Workload::makeFileServer(cap, 30.0,
                                                            13),
                            kSeed + 3));
    set.push_back(makeDrive("ms-file-hi", "file-server",
                            synth::Workload::makeFileServer(cap, 90.0,
                                                            14),
                            kSeed + 4));
    set.push_back(makeDrive("ms-stream", "streaming",
                            synth::Workload::makeStreaming(cap, 90.0),
                            kSeed + 5));
    set.push_back(makeDrive("ms-backup", "backup",
                            synth::Workload::makeBackup(cap, 40.0),
                            kSeed + 6));
    set.push_back(makeDrive("ms-mixed-1", "mixed",
                            synth::Workload::makeFileServer(cap, 60.0,
                                                            15),
                            kSeed + 7));
    set.push_back(makeDrive("ms-mixed-2", "mixed",
                            synth::Workload::makeOltp(cap, 80.0, 16),
                            kSeed + 8));
    return set;
}

/** Family model shared by the Hour/Lifetime experiments. */
inline synth::FamilyModel
makeFamily()
{
    synth::FamilyConfig cfg;
    cfg.family = "DLW-E15K";
    cfg.seed = kSeed;
    return synth::FamilyModel(cfg);
}

/** Hours in the standard Hour-trace observation (four weeks). */
constexpr std::size_t kHourSpan = 24 * 7 * 4;

/** Number of drives in the Hour trace set. */
constexpr std::size_t kHourDrives = 64;

/** Number of drives in the Lifetime trace set. */
constexpr std::size_t kLifetimeDrives = 512;

/** Steady-clock seconds, for wall timings. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One csv session against the dlwd at `to`: the report, or "". */
inline std::string
streamReport(const net::Endpoint &to, const std::string &payload,
             const std::string &tenant,
             qos::WorkClass klass = qos::WorkClass::kInteractive)
{
    net::StreamHello hello;
    hello.tenant = tenant;
    hello.klass = klass;
    StatusOr<net::StreamReply> r = net::streamSession(to, hello, payload);
    return r.ok() ? r.value().report : std::string();
}

} // namespace bench
} // namespace dlw

#endif // DLW_BENCH_BENCHUTIL_HH
