/**
 * @file
 * Trace merging: interleave several streams (per-LUN streams, or
 * workloads consolidated onto one drive) into the one arrival-sorted
 * stream the drive sees.
 */

#ifndef DLW_TRACE_TRANSFORM_HH
#define DLW_TRACE_TRANSFORM_HH

#include <vector>

#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/**
 * Merge several traces into one arrival-sorted stream.
 *
 * The observation window is the union span of the inputs; the drive
 * id is taken from the first input with "+merged" appended.
 *
 * @param parts Input traces (at least one).
 */
MsTrace merge(const std::vector<MsTrace> &parts);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_TRANSFORM_HH
