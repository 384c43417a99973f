// The `snd_cli` command-line front end, exposed as a library function so
// the test suite can drive it end to end.
//
// Usage:
//   snd_cli distance  <graph.edges> <states.txt> <i> <j> [flags]
//   snd_cli series    <graph.edges> <states.txt> [flags]
//   snd_cli anomalies <graph.edges> <states.txt> [flags]
//   snd_cli version | --version      (snd::VersionString())
//   snd_cli help | --help | -h
//
// Flags (the canonical grammar and help text are kSndFlagUsage in
// snd/service/options_parse.h — the parser both front ends share; keep
// this block in lockstep with it):
//   --model=agnostic|icc|lt           ground-distance model
//   --banks=per-bin|per-cluster|global  EMD* bank placement
//   --sssp=auto|dijkstra|dial|delta   shortest-path backend
//   --threads=N                       worker threads (any N, same values)
//
// Graph files are WriteEdgeList format, state files WriteStateSeries
// format. For a resident-session, many-queries front end over the same
// grammar, see tools/snd_serve and snd/service/service.h.
#ifndef SND_CLI_CLI_H_
#define SND_CLI_CLI_H_

#include <string>
#include <vector>

namespace snd {

// Runs the CLI; returns the process exit code (0 on success). Output and
// error messages go to stdout/stderr.
int SndCliMain(const std::vector<std::string>& args);

}  // namespace snd

#endif  // SND_CLI_CLI_H_
