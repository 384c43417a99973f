#include "snd/service/options_parse.h"

#include <cstdio>

#include "snd/util/format.h"
#include "snd/util/thread_pool.h"

namespace snd {

bool SplitSndFlag(const std::string& arg, const std::string& name,
                  std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

const char kSndFlagUsage[] =
    "  --model=agnostic|icc|lt\n"
    "  --banks=per-bin|per-cluster|global\n"
    "  --sssp=auto|dijkstra|dial|delta\n"
    "                     shortest-path backend (auto picks Dial's bucket\n"
    "                     queue when the model's max edge cost is small\n"
    "                     relative to n, else delta-stepping on graphs of\n"
    "                     16384+ nodes, else Dijkstra; results are\n"
    "                     identical for all)\n"
    "  --threads=N        worker threads (default: SND_THREADS or all\n"
    "                     cores; results are identical for any N)\n";

bool LooksLikeSndFlag(const std::string& arg) {
  return arg.rfind("--", 0) == 0;
}

StatusOr<ParsedSndFlags> ParseSndFlags(
    const std::vector<std::string>& flags) {
  ParsedSndFlags parsed;
  for (const std::string& flag : flags) {
    std::string value;
    if (SplitSndFlag(flag, "threads", &value)) {
      int threads = 0, consumed = 0;
      // %n rejects trailing garbage ("1e3", "4,") that bare %d would
      // silently accept — the wire protocol names every bad token.
      if (std::sscanf(value.c_str(), "%d%n", &threads, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || threads < 1 ||
          threads > ThreadPool::kMaxThreads) {
        return Status::InvalidArgument("invalid --threads value '" + value +
                                       "'");
      }
      parsed.threads = threads;
    } else if (SplitSndFlag(flag, "model", &value)) {
      if (value == "agnostic") {
        parsed.options.model = GroundModelKind::kModelAgnostic;
      } else if (value == "icc") {
        parsed.options.model = GroundModelKind::kIndependentCascade;
      } else if (value == "lt") {
        parsed.options.model = GroundModelKind::kLinearThreshold;
      } else {
        return Status::InvalidArgument("unknown --model value '" + value +
                                       "'");
      }
    } else if (SplitSndFlag(flag, "sssp", &value)) {
      if (value == "auto") {
        parsed.options.sssp_backend = SsspBackend::kAuto;
      } else if (value == "dijkstra") {
        parsed.options.sssp_backend = SsspBackend::kDijkstra;
      } else if (value == "dial") {
        parsed.options.sssp_backend = SsspBackend::kDial;
      } else if (value == "delta") {
        parsed.options.sssp_backend = SsspBackend::kDeltaStepping;
      } else {
        return Status::InvalidArgument("unknown --sssp value '" + value +
                                       "'");
      }
    } else if (SplitSndFlag(flag, "banks", &value)) {
      if (value == "per-bin") {
        parsed.options.bank_strategy = BankStrategy::kPerBin;
      } else if (value == "per-cluster") {
        parsed.options.bank_strategy = BankStrategy::kPerCluster;
      } else if (value == "global") {
        parsed.options.bank_strategy = BankStrategy::kSingleGlobal;
      } else {
        return Status::InvalidArgument("unknown --banks value '" + value +
                                       "'");
      }
    } else {
      return Status::InvalidArgument("unrecognized flag '" + flag + "'");
    }
  }
  return parsed;
}

namespace {

std::string BuildSignature(const SndOptions& options) {
  std::string signature = GroundModelKindName(options.model);
  signature += ',';
  signature += BankStrategyName(options.bank_strategy);
  // Every scalar knob that shapes the banks (and hence the values): a
  // hand-built SndOptions differing in any of these must not share a
  // signature. The model parameter *structs* (agnostic/icc/lt) are
  // excluded by contract — see the header. The doubles go through
  // FormatDouble (%.17g), so distinct values can never collide.
  signature += '/' + std::to_string(options.banks_per_cluster);
  signature += '/' + std::to_string(static_cast<int>(options.gamma_policy));
  signature += '/' + FormatDouble(options.gamma_scale);
  signature += '/' + FormatDouble(options.fixed_gamma);
  signature += '/' + std::to_string(options.clustering_seed);
  signature += '/' + std::to_string(options.lp_max_iterations);
  signature += '/' + std::to_string(options.lp_min_community_size);
  signature += ',';
  signature += SsspBackendName(options.sssp_backend);
  return signature;
}

// True when `a` and `b` agree on every knob BuildSignature formats.
bool SameSignatureKnobs(const SndOptions& a, const SndOptions& b) {
  return a.model == b.model && a.bank_strategy == b.bank_strategy &&
         a.banks_per_cluster == b.banks_per_cluster &&
         a.gamma_policy == b.gamma_policy &&
         a.gamma_scale == b.gamma_scale && a.fixed_gamma == b.fixed_gamma &&
         a.clustering_seed == b.clustering_seed &&
         a.lp_max_iterations == b.lp_max_iterations &&
         a.lp_min_community_size == b.lp_min_community_size &&
         a.sssp_backend == b.sssp_backend;
}

}  // namespace

std::string SndOptionsSignature(const SndOptions& options) {
  // A request without flags carries the defaults, so their signature is
  // formatted once. The defaults' doubles are nonzero, so == on them
  // agrees with the %.17g text.
  static const SndOptions kDefaults;
  static const std::string kDefaultSignature = BuildSignature(kDefaults);
  if (SameSignatureKnobs(options, kDefaults)) return kDefaultSignature;
  return BuildSignature(options);
}

}  // namespace snd
