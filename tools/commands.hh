/**
 * @file
 * dlwtool's command handlers, listed by kCommands in dlwtool.cc:
 * cmd_batch.cc holds the file and fleet commands, cmd_daemon.cc the
 * dlwd server and its clients.
 */

#ifndef DLW_TOOLS_COMMANDS_HH
#define DLW_TOOLS_COMMANDS_HH

#include <string>

#include "common/options.hh"

namespace dlw
{
namespace tool
{

/** Register every subsystem's metric schema with the obs registry. */
void registerAllMetrics();

/**
 * The server's trace_event fragment that `stream --trace-out` fetched
 * from /v1/timeline, re-projected onto this clock; empty when none.
 * The --trace-out writer merges it into the trace file.
 */
extern std::string g_server_trace_fragment;

// cmd_batch.cc
int cmdAnalyze(const Options &opts);
int cmdCharacterize(const Options &opts);
int cmdConvert(const Options &opts);
int cmdCorrupt(const Options &opts);
int cmdFamily(const Options &opts);
int cmdFleet(const Options &opts);
int cmdGenerate(const Options &opts);
int cmdRunReport(const Options &opts);
int cmdBenchDiff(const std::string &old_path,
                 const std::string &new_path, const Options &opts);

// cmd_daemon.cc
int cmdServe(const Options &opts);
int cmdStream(const Options &opts);
int cmdTop(const Options &opts);

} // namespace tool
} // namespace dlw

#endif // DLW_TOOLS_COMMANDS_HH
