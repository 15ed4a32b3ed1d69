/**
 * @file
 * Per-file corrupt-record bookkeeping shared by the trace decoders.
 *
 * Internal helper: every reader (whole-file and streaming alike)
 * funnels corrupt events through one Gate so the policy semantics
 * and the IngestStats arithmetic cannot drift between formats.
 */

#ifndef DLW_TRACE_GATE_HH
#define DLW_TRACE_GATE_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/ingest.hh"

namespace dlw
{
namespace trace
{

/**
 * Corrupt-record policy gate.
 *
 * Call corrupt() on every corrupt event; a non-OK return means the
 * policy is kAbort and the read must stop with that status.
 * Otherwise the caller either clamps (clamp policy, when a repair
 * exists) or skips the record.
 */
struct Gate
{
    const IngestOptions &opts;
    IngestStats st;

    bool
    clampMode() const
    {
        return opts.policy == RecordPolicy::kBestEffortClamp;
    }

    Status
    corrupt(std::string msg)
    {
        st.noteError(msg, opts.max_error_samples);
        if (opts.policy == RecordPolicy::kAbort)
            return Status::corruptData(std::move(msg));
        return Status();
    }

    void skip() { ++st.records_skipped; }

    void clamped() { ++st.records_clamped; }

    void
    accept(std::size_t input_bytes)
    {
        ++st.records_read;
        st.bytes_read += input_bytes;
        if (st.errors != 0)
            st.bytes_recovered += input_bytes;
    }
};

/**
 * Open a trace file for reading, timed as the ingest.open span and
 * failable through the trace.open fault point; IoError when the file
 * cannot be opened.
 */
Status openTraceFile(const std::string &path, std::ifstream &is,
                     bool binary = false);

/** `line <lineno>: <what>`, a text record's failure message. */
std::string atLine(std::size_t lineno, const std::string &what);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_GATE_HH
