/**
 * @file
 * Crash-safe on-disk session checkpoints.
 *
 * A daemon with a --state-dir periodically serializes every session
 * it knows about to `<state-dir>/<session-id>.ckpt` and reloads the
 * directory on the next start, so a SIGKILL mid-analysis loses at
 * most one checkpoint interval of accounting and no finished
 * report.
 *
 * One file per session, written whole: the bytes are a fixed magic
 * ("DLWCKPT1"), a format version, and one Session::saveState() blob.
 * Writes go to a `.tmp` sibling first and rename into place, so a
 * crash mid-write leaves the previous checkpoint intact and a
 * reader never sees a torn file.  Unknown versions, short files and
 * garbled blobs are rejected (the decoder latches), never guessed
 * at — a bad checkpoint costs one session's history, not the
 * daemon's startup.  Session ids are `<tenant>-<n>` with the tenant
 * charset already restricted by the hello parser, so ids are safe
 * as file names.
 */

#ifndef DLW_DAEMON_CHECKPOINT_HH
#define DLW_DAEMON_CHECKPOINT_HH

#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "daemon/session.hh"

namespace dlw
{
namespace daemon
{

/** Magic prefix of a checkpoint file. */
inline constexpr const char *kCheckpointMagic = "DLWCKPT1";

/**
 * Current checkpoint format version.  v2: the burstiness gap summary
 * became a 4-lane SummaryLanes fold, changing its state layout.
 * v3: the session blob gained the workload-class byte of the
 * tenant/class tag (right after the tenant string).
 * v4: the session blob gained a tail — trace id, wall-clock start,
 * frozen duration, and per-stage latency stats — so a restored
 * session keeps its trace identity and latency attribution.
 * v5: the burstiness gap lanes keep only count, mean and m2 (the
 * higher moments and extrema nothing read are gone), and the
 * read/write mix state gained the closed write runs' longest run
 * and burst count, which a restored session used to forget.
 * v6: the trace totals drop their byte and block sums, which no
 * report read.
 */
inline constexpr std::uint32_t kCheckpointVersion = 6;

/** `<dir>/<id>.ckpt`. */
std::string checkpointPath(const std::string &dir,
                           const std::string &id);

/**
 * Atomically write one session's checkpoint into dir (tmp+rename).
 */
Status saveSessionCheckpoint(const std::string &dir, const Session &s);

/**
 * Load one checkpoint file.
 *
 * @return The restored session, or a non-OK Status when the file is
 *         unreadable, has the wrong magic, or the blob is
 *         truncated/garbled.  A version older than current is
 *         rejected with an explicit FailedPrecondition — restoring
 *         it would silently default-tag the session's QoS class
 *         (pre-v3), strip its trace identity and latency account
 *         (pre-v4), misread its gap lanes and write runs (pre-v5)
 *         or its trace totals (pre-v6).
 */
StatusOr<std::shared_ptr<Session>>
loadSessionCheckpoint(const std::string &path);

/** All `*.ckpt` paths in dir, sorted (empty on a missing dir). */
std::vector<std::string> listCheckpointFiles(const std::string &dir);

/** Delete one session's checkpoint (missing files are a no-op). */
void removeSessionCheckpoint(const std::string &dir,
                             const std::string &id);

} // namespace daemon
} // namespace dlw

#endif // DLW_DAEMON_CHECKPOINT_HH
