// Typed response vocabulary of the SND API v1: the value side of
// SndService::Dispatch's StatusOr<Response>. Responses carry doubles,
// pairs and epochs directly — no text to parse — so in-process clients
// (tests, benches, embedding applications) assert on bitwise values
// while the codecs render the same objects onto their wire formats.
//
// ResponseValues() flattens the numeric payload of any response in its
// canonical order (the order the text protocol prints), which is what
// the cross-codec bitwise-identity tests compare.
#ifndef SND_API_RESPONSES_H_
#define SND_API_RESPONSES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "snd/obs/metrics.h"  // MetricRow.
#include "snd/opinion/distance_types.h"  // StatePairs.

namespace snd {

struct LoadGraphResponse {
  std::string name;
  int32_t nodes = 0;
  int64_t edges = 0;
  uint64_t epoch = 0;  // graph_epoch after the load.
};

// Answer to both load_states and append_state: the series' new shape.
struct LoadStatesResponse {
  std::string name;
  int64_t count = 0;  // States resident after the operation.
  int32_t users = 0;
  uint64_t epoch = 0;  // states_epoch (unchanged by append).
};

struct DistanceResponse {
  std::string name;
  int32_t i = 0;
  int32_t j = 0;
  double value = 0.0;
};

struct SeriesResponse {
  std::string name;
  StatePairs pairs;  // (t, t+1) in order.
  std::vector<double> values;  // values[k] = SND over pairs[k].
};

struct MatrixResponse {
  std::string name;
  int32_t num_states = 0;
  // Row-major num_states x num_states, symmetric, zero diagonal.
  std::vector<double> values;
};

struct AnomaliesResponse {
  std::string name;
  // Rank order (most anomalous first; score ties break on the earlier
  // transition): transitions[r] is the transition index t (state t ->
  // t+1) of rank r, scores[r] its anomaly score.
  std::vector<int32_t> transitions;
  std::vector<double> scores;
};

// The `info` snapshot. Ordering is part of the contract so scripted
// diffs and monitoring scrapes are stable: sessions sorted by name,
// then the calculator-cache, result-cache, work-counter and thread
// lines, each with its counters in the fixed order the fields below
// are declared in.
struct InfoResponse {
  struct SessionInfo {
    std::string name;
    int32_t nodes = 0;
    int64_t edges = 0;
    uint64_t graph_epoch = 0;
    int64_t states = 0;
    uint64_t states_epoch = 0;
    // Appended after states_epoch on the wire (scrapers key on the
    // leading fields): in-place mutation sub-epoch and the global index
    // of the first resident state (> 0 once retention has trimmed).
    uint64_t graph_sub_epoch = 0;
    int64_t first_state = 0;
  };
  std::vector<SessionInfo> sessions;  // Sorted by name.
  int64_t calc_size = 0;
  int64_t calc_capacity = 0;
  int64_t calc_builds = 0;
  int64_t calc_hits = 0;
  int64_t result_size = 0;
  int64_t result_capacity = 0;
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t result_evictions = 0;
  // Cumulative snd.work.* counters, summed over every calculator the
  // service ever built.
  int64_t sssp_runs = 0;
  int64_t transport_solves = 0;
  int64_t edge_cost_builds = 0;
  int64_t edge_cost_patches = 0;
  int32_t threads = 0;
};

// The `stats` snapshot: every registered metric, sorted by name (the
// registry's snapshot order), all values int64. Ordering and the name
// list are contract — scripted diffs, the JSONL stats events, and the
// service tests all pin them. Histograms appear flattened as
// <name>.count / .p50_ns / .p90_ns / .p99_ns / .sum_ns rows.
struct StatsResponse {
  std::vector<obs::MetricRow> metrics;
};

// Answer to add_edge and remove_edge: the graph's new shape plus the
// outcome of the targeted invalidation (how many cached SND values the
// mutation kept vs erased), so clients and tests can observe the
// incremental path doing proportional work.
struct MutateEdgeResponse {
  std::string name;
  bool added = true;  // true: add_edge, false: remove_edge.
  int32_t u = 0;
  int32_t v = 0;
  int64_t edges = 0;          // Edge count after the mutation.
  uint64_t graph_epoch = 0;   // Unchanged by a mutation.
  uint64_t sub_epoch = 0;     // graph_sub_epoch after the mutation.
  int64_t results_retained = 0;
  int64_t results_erased = 0;
};

struct EvictResponse {
  std::string name;
};

struct VersionResponse {
  std::string version;  // snd::VersionString().
};

struct HelpResponse {
  std::vector<std::string> rows;  // The protocol summary, one line each.
};

// Session-ending acknowledgement of QuitRequest ("ok bye" on the text
// wire); the serve loops stop after writing it.
struct ByeResponse {};

using Response =
    std::variant<LoadGraphResponse, LoadStatesResponse, MutateEdgeResponse,
                 DistanceResponse, SeriesResponse, MatrixResponse,
                 AnomaliesResponse, InfoResponse, StatsResponse,
                 EvictResponse, VersionResponse, HelpResponse, ByeResponse>;

// The numeric payload of `response` in canonical (text-wire print)
// order: distance -> {value}, series -> values, matrix -> the full
// row-major matrix, anomalies -> scores by rank; every other response
// is empty. The cross-path bitwise-identity tests compare exactly this.
std::vector<double> ResponseValues(const Response& response);

}  // namespace snd

#endif  // SND_API_RESPONSES_H_
