// The shared flag vocabulary of the SND front ends: one parser drives
// both the `snd_cli` command line and the `snd_serve` request protocol,
// so flag behavior — accepted values, defaults, and the "name the
// offending token" error messages — cannot drift between them.
//
// Grammar (every token is of the form --name=value):
//   --model=agnostic|icc|lt
//   --banks=per-bin|per-cluster|global
//   --sssp=auto|dijkstra|dial|delta
//   --threads=N
// kSndFlagUsage below is the canonical help text for this block; front
// ends append it to their own usage so documentation and parser stay in
// lockstep by construction.
#ifndef SND_SERVICE_OPTIONS_PARSE_H_
#define SND_SERVICE_OPTIONS_PARSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "snd/api/status.h"
#include "snd/core/snd_options.h"

namespace snd {

// Help text for the shared flags (the "flags:" block body, one indented
// line per flag, newline-terminated).
extern const char kSndFlagUsage[];

struct ParsedSndFlags {
  SndOptions options;
  // The --threads value, or 0 when the flag is absent. Left to the
  // caller to apply (ThreadPool::SetGlobalThreads) because thread count
  // is process state, not calculator state.
  int32_t threads = 0;
};

// True if `arg` is shaped like a flag token ("--...").
bool LooksLikeSndFlag(const std::string& arg);

// If `arg` is "--<name>=<value>", stores <value> and returns true. The
// one token-splitting primitive every front end uses, including for
// front-end-specific flags (snd_serve's --listen/--cache).
bool SplitSndFlag(const std::string& arg, const std::string& name,
                  std::string* value);

// Parses a flag list. On failure returns kInvalidArgument with a
// message naming the offending token, e.g. "unknown --model value 'x'"
// or "unrecognized flag '--x'".
StatusOr<ParsedSndFlags> ParseSndFlags(const std::vector<std::string>& flags);

// Canonical signature of the value-affecting SndOptions scalars: model
// kind, bank strategy and every bank-shaping knob (banks_per_cluster,
// gamma policy/scale/fixed, clustering seed, label-propagation limits),
// and the SSSP backend. --threads and the parallel_* switches are
// excluded because they never change values.
// NOT covered: the model parameter *structs* (agnostic/icc/lt hold
// per-edge vectors that cannot be keyed cheaply) — callers varying
// those must not share a signature-keyed cache. Within that contract,
// two option sets with equal signatures build interchangeable
// calculators; the service layer keys its calculator and result caches
// on this (its protocol can only vary the flag vocabulary, which is
// fully covered).
std::string SndOptionsSignature(const SndOptions& options);

}  // namespace snd

#endif  // SND_SERVICE_OPTIONS_PARSE_H_
