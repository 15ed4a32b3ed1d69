/**
 * @file
 * Import of SPC-style ASCII block traces.
 *
 * The Storage Performance Council trace format is the de-facto
 * interchange used by the public block traces the storage community
 * does have access to (e.g. the UMass/OLTP traces).  Each line is
 *
 *   ASU,LBA,size_bytes,opcode,timestamp_seconds
 *
 * with opcode 'r'/'R' or 'w'/'W'.  Importing a real SPC trace gives
 * the analysis pipeline a path to genuine data alongside the
 * synthetic substrate.
 */

#ifndef DLW_TRACE_SPC_HH
#define DLW_TRACE_SPC_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/ingest.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/**
 * Read an SPC-format trace from a stream.
 *
 * @param is       Input stream of SPC lines.
 * @param drive_id Identifier to stamp on the resulting trace.
 * @param opts     Corrupt-record policy and limits.
 * @param stats    Filled with ingestion counters when non-null.
 * @param asu      Keep only records of this application storage
 *                 unit; -1 keeps every ASU.
 * @return Ms trace with arrivals sorted (the observation window is
 *         [0, last arrival + 1)), or the first unrecovered
 *         corruption.
 */
StatusOr<MsTrace> readSpc(std::istream &is, const std::string &drive_id,
                          const IngestOptions &opts,
                          IngestStats *stats = nullptr, int asu = -1);

/** Read an SPC-format trace from a file under the given policy. */
StatusOr<MsTrace> readSpc(const std::string &path,
                          const std::string &drive_id,
                          const IngestOptions &opts,
                          IngestStats *stats = nullptr, int asu = -1);

/** Write a ms trace in SPC format (asu column fixed to 0). */
void writeSpc(std::ostream &os, const MsTrace &trace);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_SPC_HH
