#include "snd/service/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <cstdlib>
#include <istream>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <variant>

#include "snd/analysis/anomaly.h"
#include "snd/api/json_codec.h"
#include "snd/emd/banks.h"
#include "snd/graph/graph_delta.h"
#include "snd/graph/io.h"
#include "snd/obs/names.h"
#include "snd/opinion/state_io.h"
#include "snd/paths/sssp.h"
#include "snd/service/options_parse.h"
#include "snd/util/check.h"
#include "snd/util/format.h"
#include "snd/util/thread_pool.h"
#include "snd/util/version.h"

namespace snd {
namespace {

// The grammar summary served by `help`: the command block here plus the
// shared flag block (kSndFlagUsage), split into protocol rows.
constexpr char kCommandUsage[] =
    "commands:\n"
    "  load_graph <name> <graph.edges>     load or replace a named graph\n"
    "  load_states <name> <states.txt>     load/replace the state series\n"
    "  append_state <name> <v1> ... <vn>   append one state (-1/0/1 each)\n"
    "  add_edge <name> <u> <v>             add edge u->v in place\n"
    "  remove_edge <name> <u> <v>          remove edge u->v in place\n"
    "  subscribe <name> [--from=T] [--count=N] [flags]\n"
    "                                      stream adjacent-SND events\n"
    "  distance <name> <i> <j> [flags]     SND between states i and j\n"
    "  series <name> [flags]               SND over adjacent states\n"
    "  matrix <name> [flags]               full pairwise SND matrix\n"
    "  anomalies <name> [flags]            transitions by anomaly score\n"
    "  info                                sessions, caches, counters\n"
    "  stats                               full metrics snapshot by name\n"
    "  evict <name>                        drop a graph and its artifacts\n"
    "  version                             protocol/library version\n"
    "  help                                this summary\n"
    "  quit                                end the session\n"
    "flags:\n";

void AppendLines(const char* text, std::vector<std::string>* rows) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) rows->push_back(line);
}

// Parses the "i,j" global pair suffix (after the last '|') of a result
// key; false if the key does not end in such a pair.
bool ParseKeyPairSuffix(const std::string& key, int64_t* i, int64_t* j) {
  const size_t bar = key.find_last_of('|');
  if (bar == std::string::npos) return false;
  const char* p = key.c_str() + bar + 1;
  char* end = nullptr;
  const long long a = std::strtoll(p, &end, 10);
  if (end == p || *end != ',') return false;
  p = end + 1;
  const long long b = std::strtoll(p, &end, 10);
  if (end == p || *end != '\0') return false;
  *i = a;
  *j = b;
  return true;
}

// Structural equality of two bank specs: identical clustering and
// identical gamma matrices mean every EMD* term sees the same transport
// topology, which the mutation retention certificate requires.
bool SameBankStructure(const BankSpec& a, const BankSpec& b) {
  return a.num_clusters == b.num_clusters && a.cluster_of == b.cluster_of &&
         a.gammas == b.gammas;
}

// Wire token of each Request alternative, indexed by variant index,
// plus the trailing "invalid" slot for unparseable lines. The matching
// static_asserts below keep the table and the variant in lockstep.
constexpr const char* kRequestKindNames[] = {
    "load_graph", "load_states", "append_state", "add_edge", "remove_edge",
    "subscribe",  "distance",    "series",       "matrix",   "anomalies",
    "info",       "stats",       "evict",        "version",  "help",
    "quit",       "invalid"};
static_assert(std::size(kRequestKindNames) == std::variant_size_v<Request> + 1,
              "kind-name table out of sync with the Request variant");

// Per-kind counter metric names, in the same variant order.
constexpr const char* kRequestKindMetrics[] = {
    obs::kMetricReqLoadGraph, obs::kMetricReqLoadStates,
    obs::kMetricReqAppendState, obs::kMetricReqAddEdge,
    obs::kMetricReqRemoveEdge, obs::kMetricReqSubscribe,
    obs::kMetricReqDistance, obs::kMetricReqSeries, obs::kMetricReqMatrix,
    obs::kMetricReqAnomalies, obs::kMetricReqInfo, obs::kMetricReqStats,
    obs::kMetricReqEvict, obs::kMetricReqVersion, obs::kMetricReqHelp,
    obs::kMetricReqQuit, obs::kMetricReqInvalid};
static_assert(std::size(kRequestKindMetrics) ==
                  std::variant_size_v<Request> + 1,
              "kind-metric table out of sync with the Request variant");

constexpr size_t kSubscribeKindIndex = 5;
static_assert(
    std::is_same_v<std::variant_alternative_t<kSubscribeKindIndex, Request>,
                   SubscribeRequest>,
    "subscribe moved in the Request variant");

// The session name a request addresses ("" for the global commands) —
// the `name` field of its JSONL event.
std::string RequestSessionName(const Request& request) {
  return std::visit(
      [](const auto& typed) -> std::string {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, InfoRequest> ||
                      std::is_same_v<T, StatsRequest> ||
                      std::is_same_v<T, VersionRequest> ||
                      std::is_same_v<T, HelpRequest> ||
                      std::is_same_v<T, QuitRequest>) {
          return std::string();
        } else {
          return typed.name;
        }
      },
      request);
}

// Stamps the session's epochs onto the current trace (no-op untraced);
// every command that resolves a session calls this so its event can be
// attributed to the exact graph/states version it ran against.
void StampTraceEpochs(uint64_t graph_epoch, uint64_t sub_epoch,
                      uint64_t states_epoch) {
  if (obs::RequestTrace* trace = obs::CurrentRequestTrace()) {
    trace->graph_epoch = graph_epoch;
    trace->sub_epoch = sub_epoch;
    trace->states_epoch = states_epoch;
  }
}

// The shared fields of a distance, series, matrix or anomalies read;
// nullptr for every other request.
const ComputeRequestBase* ComputeReadBase(const Request& request) {
  if (const auto* typed = std::get_if<DistanceRequest>(&request)) {
    return typed;
  }
  if (const auto* typed = std::get_if<SeriesRequest>(&request)) return typed;
  if (const auto* typed = std::get_if<MatrixRequest>(&request)) return typed;
  if (const auto* typed = std::get_if<AnomaliesRequest>(&request)) {
    return typed;
  }
  return nullptr;
}

// The state pairs (local, resident-window indices) a compute read
// evaluates on `session`, or why it cannot run there.
StatusOr<StatePairs> ComputePairs(const Request& request,
                                  const GraphSession& session) {
  const auto num_states = static_cast<int32_t>(session.states.size());
  // Wire indices are global; the resident window is [first, first +
  // num_states) once retention has trimmed (first stays 0 without it).
  const int64_t first = session.first_state_index;
  if (const auto* distance = std::get_if<DistanceRequest>(&request)) {
    if (num_states == 0) {
      // Like series/matrix below: the session exists but has no states
      // yet (for example between load_graph and load_states).
      return Status::FailedPrecondition(
          "distance: no states loaded (have 0 states)");
    }
    for (const int32_t index : {distance->i, distance->j}) {
      if (index < 0 || index < first || index >= first + num_states) {
        if (first == 0) {  // Legacy message, pinned by tests.
          return Status::InvalidArgument(
              "state index '" + std::to_string(index) +
              "' out of range (have " + std::to_string(num_states) +
              " states)");
        }
        return Status::InvalidArgument(
            "state index '" + std::to_string(index) +
            "' outside retained window [" + std::to_string(first) + ", " +
            std::to_string(first + num_states) + ")");
      }
    }
    // SND is symmetric; evaluate the canonical (lower, higher)
    // orientation so reversed queries share cache entries with
    // `series` and `matrix`, which enumerate pairs as i < j.
    const auto li = static_cast<int32_t>(distance->i - first);
    const auto lj = static_cast<int32_t>(distance->j - first);
    return StatePairs{{std::min(li, lj), std::max(li, lj)}};
  }
  if (num_states < 2) {
    const char* noun = std::get_if<SeriesRequest>(&request) != nullptr
                           ? "series"
                           : std::get_if<MatrixRequest>(&request) != nullptr
                                 ? "matrix"
                                 : "anomalies";
    return Status::FailedPrecondition(
        std::string(noun) + ": need at least two states (have " +
        std::to_string(num_states) + ")");
  }
  if (std::get_if<MatrixRequest>(&request) != nullptr) {
    return AllUnorderedPairs(num_states);
  }
  return AdjacentPairs(num_states);
}

// The response to a compute read whose ComputePairs evaluated to
// `values` on `session`.
Response ComputeResponse(const Request& request, const std::string& name,
                         const GraphSession& session,
                         const StatePairs& pairs,
                         const std::vector<double>& values) {
  const int64_t first = session.first_state_index;
  if (const auto* distance = std::get_if<DistanceRequest>(&request)) {
    return Response(
        DistanceResponse{name, distance->i, distance->j, values[0]});
  }
  if (std::get_if<SeriesRequest>(&request) != nullptr) {
    SeriesResponse response;
    response.name = name;
    response.values = values;
    // Report global transition labels.
    response.pairs.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
      response.pairs.emplace_back(static_cast<int32_t>(first + a),
                                  static_cast<int32_t>(first + b));
    }
    return Response(std::move(response));
  }
  if (std::get_if<MatrixRequest>(&request) != nullptr) {
    const auto num_states = static_cast<int32_t>(session.states.size());
    MatrixResponse response;
    response.name = name;
    response.num_states = num_states;
    response.values.assign(
        static_cast<size_t>(num_states) * static_cast<size_t>(num_states),
        0.0);
    for (size_t k = 0; k < pairs.size(); ++k) {
      const auto [a, b] = pairs[k];
      response.values[static_cast<size_t>(a) * num_states + b] = values[k];
      response.values[static_cast<size_t>(b) * num_states + a] = values[k];
    }
    return Response(std::move(response));
  }
  // anomalies: the shared Section 6.2 scoring pipeline (the same
  // ScoreAdjacentDistances the CLI uses) over cache-served distances.
  const std::vector<double> scores =
      ScoreAdjacentDistances(values, session.states, nullptr);
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  AnomaliesResponse response;
  response.name = name;
  for (const size_t t : order) {
    response.transitions.push_back(
        static_cast<int32_t>(first + static_cast<int64_t>(t)));
    response.scores.push_back(scores[t]);
  }
  return Response(std::move(response));
}

// The calculator-table key of (session, options signature). The
// sub-epoch is part of it: an in-place edge mutation retires (or
// rebuilds) the old sub-epoch's calculators, so a lookup can never hit
// a calculator built on a pre-mutation graph.
std::string CalculatorKey(const std::string& name,
                          const GraphSession& session,
                          const std::string& signature) {
  return name + "|g" + std::to_string(session.graph_epoch) + "." +
         std::to_string(session.graph_sub_epoch) + "|" + signature;
}

// The result-cache key prefix shared by every pair of (session, options
// signature).
std::string ResultKeyPrefix(const std::string& name,
                            const GraphSession& session,
                            const std::string& signature) {
  return name + "|g" + std::to_string(session.graph_epoch) + "|s" +
         std::to_string(session.states_epoch) + "|" + signature + "|";
}

// The result-cache key of a local pair. Keys carry GLOBAL indices
// (local + first_state_index): cached values survive retention trimming
// and graph sub-epoch retention can match them against certified
// states.
std::string ResultKey(const std::string& prefix, int64_t base_index,
                      const std::pair<int32_t, int32_t>& pair) {
  return prefix + std::to_string(base_index + pair.first) + "," +
         std::to_string(base_index + pair.second);
}

// Parses one wire line under `trace`, starting its clock.
StatusOr<Request> ParseTraced(const std::string& line, WireFormat format,
                              obs::RequestTrace* trace) {
  trace->start = std::chrono::steady_clock::now();
  const obs::TraceScope scope(trace);
  const obs::ObsSpan span(obs::ObsPhase::kParse);
  return format == WireFormat::kText ? ParseTextRequest(line)
                                     : ParseJsonRequest(line);
}

}  // namespace

SndService::SndService(SndServiceConfig config)
    : config_(config),
      obs_(RegisterObsMetrics(&obs_registry_)),
      results_(config.result_cache_capacity,
               ResultCache::CounterSinks{obs_.result_hits,
                                         obs_.result_misses,
                                         obs_.result_evictions}) {
  config_.max_calculators = std::max<size_t>(1, config_.max_calculators);
  obs_.result_capacity->Set(static_cast<int64_t>(results_.capacity()));
  obs_.calc_capacity->Set(static_cast<int64_t>(config_.max_calculators));
}

SndService::~SndService() {
  // Wake every subscriber and wait for them to unwind before members
  // (registry, caches) start destructing under them.
  MutexLock lock(change_mu_);
  shutting_down_ = true;
  change_cv_.NotifyAll();
  while (active_subscribers_ > 0) change_cv_.Wait(lock);
}

SndService::ObsMetrics SndService::RegisterObsMetrics(
    obs::MetricsRegistry* registry) {
  ObsMetrics m;
  for (size_t k = 0; k < std::size(kRequestKindMetrics); ++k) {
    m.req_kind[k] = registry->RegisterCounter(kRequestKindMetrics[k]);
  }
  m.req_ok = registry->RegisterCounter(obs::kMetricReqOk);
  m.req_error = registry->RegisterCounter(obs::kMetricReqError);
  m.req_latency = registry->RegisterHistogram(obs::kMetricReqLatency);
  constexpr const char* kPhaseMetrics[obs::kNumObsPhases] = {
      obs::kMetricPhaseParse,     obs::kMetricPhaseDispatch,
      obs::kMetricPhaseEdgeCost,  obs::kMetricPhaseSssp,
      obs::kMetricPhaseTransport, obs::kMetricPhaseEncode};
  for (int p = 0; p < obs::kNumObsPhases; ++p) {
    m.phase_ns[p] = registry->RegisterCounter(kPhaseMetrics[p]);
  }
  m.work_sssp_runs = registry->RegisterCounter(obs::kMetricWorkSsspRuns);
  m.work_sssp_settled =
      registry->RegisterCounter(obs::kMetricWorkSsspSettled);
  m.work_transport_solves =
      registry->RegisterCounter(obs::kMetricWorkTransportSolves);
  m.work_edge_cost_builds =
      registry->RegisterCounter(obs::kMetricWorkEdgeCostBuilds);
  m.work_edge_cost_patches =
      registry->RegisterCounter(obs::kMetricWorkEdgeCostPatches);
  m.backend_runs[obs::kSsspSlotDijkstra] =
      registry->RegisterCounter(obs::kMetricSsspDijkstraRuns);
  m.backend_settled[obs::kSsspSlotDijkstra] =
      registry->RegisterCounter(obs::kMetricSsspDijkstraSettled);
  m.backend_runs[obs::kSsspSlotDial] =
      registry->RegisterCounter(obs::kMetricSsspDialRuns);
  m.backend_settled[obs::kSsspSlotDial] =
      registry->RegisterCounter(obs::kMetricSsspDialSettled);
  m.backend_runs[obs::kSsspSlotDelta] =
      registry->RegisterCounter(obs::kMetricSsspDeltaRuns);
  m.backend_settled[obs::kSsspSlotDelta] =
      registry->RegisterCounter(obs::kMetricSsspDeltaSettled);
  m.result_hits = registry->RegisterCounter(obs::kMetricCacheResultHits);
  m.result_misses =
      registry->RegisterCounter(obs::kMetricCacheResultMisses);
  m.result_evictions =
      registry->RegisterCounter(obs::kMetricCacheResultEvictions);
  m.result_size = registry->RegisterGauge(obs::kMetricCacheResultSize);
  m.result_capacity =
      registry->RegisterGauge(obs::kMetricCacheResultCapacity);
  m.calc_builds = registry->RegisterCounter(obs::kMetricCacheCalcBuilds);
  m.calc_hits = registry->RegisterCounter(obs::kMetricCacheCalcHits);
  m.calc_size = registry->RegisterGauge(obs::kMetricCacheCalcSize);
  m.calc_capacity = registry->RegisterGauge(obs::kMetricCacheCalcCapacity);
  m.session_count = registry->RegisterGauge(obs::kMetricSessionCount);
  m.session_mutations =
      registry->RegisterCounter(obs::kMetricSessionMutations);
  m.mutate_retained =
      registry->RegisterCounter(obs::kMetricMutateResultsRetained);
  m.mutate_erased =
      registry->RegisterCounter(obs::kMetricMutateResultsErased);
  m.subscribe_streams =
      registry->RegisterCounter(obs::kMetricSubscribeStreams);
  m.subscribe_events =
      registry->RegisterCounter(obs::kMetricSubscribeEvents);
  m.events_emitted =
      registry->RegisterCounter(obs::kMetricObsEventsEmitted);
  m.events_dropped =
      registry->RegisterCounter(obs::kMetricObsEventsDropped);
  return m;
}

void SndService::FinishTrace(const obs::RequestTrace& trace,
                             size_t kind_index, std::string name,
                             const Status& status) {
  const auto latency = std::chrono::steady_clock::now() - trace.start;
  // Fold into the registry before emitting (and before the response is
  // returned): a snapshot taken by any later request includes this one
  // in full, never partially.
  obs_.req_kind[kind_index]->Add(1);
  (status.ok() ? obs_.req_ok : obs_.req_error)->Add(1);
  obs_.req_latency->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(latency)
          .count());
  int64_t phase_ns[obs::kNumObsPhases];
  for (int p = 0; p < obs::kNumObsPhases; ++p) {
    phase_ns[p] = trace.phase_ns[p].load(std::memory_order_relaxed);
    if (phase_ns[p] != 0) obs_.phase_ns[p]->Add(phase_ns[p]);
  }
  const int64_t sssp_runs =
      trace.sssp_runs.load(std::memory_order_relaxed);
  const int64_t sssp_settled =
      trace.sssp_settled.load(std::memory_order_relaxed);
  const int64_t transport_solves =
      trace.transport_solves.load(std::memory_order_relaxed);
  const int64_t edge_cost_builds =
      trace.edge_cost_builds.load(std::memory_order_relaxed);
  const int64_t edge_cost_patches =
      trace.edge_cost_patches.load(std::memory_order_relaxed);
  if (sssp_runs != 0) obs_.work_sssp_runs->Add(sssp_runs);
  if (sssp_settled != 0) obs_.work_sssp_settled->Add(sssp_settled);
  if (transport_solves != 0) {
    obs_.work_transport_solves->Add(transport_solves);
  }
  if (edge_cost_builds != 0) {
    obs_.work_edge_cost_builds->Add(edge_cost_builds);
  }
  if (edge_cost_patches != 0) {
    obs_.work_edge_cost_patches->Add(edge_cost_patches);
  }
  for (int s = 0; s < obs::kNumSsspSlots; ++s) {
    const int64_t runs = trace.backend_runs[s].load(std::memory_order_relaxed);
    const int64_t settled =
        trace.backend_settled[s].load(std::memory_order_relaxed);
    if (runs != 0) obs_.backend_runs[s]->Add(runs);
    if (settled != 0) obs_.backend_settled[s]->Add(settled);
  }
  if (trace.results_retained >= 0) {
    obs_.session_mutations->Add(1);
    obs_.mutate_retained->Add(trace.results_retained);
    obs_.mutate_erased->Add(trace.results_erased);
  }
  if (config_.event_log == nullptr) return;
  obs::RequestEvent event;
  event.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  event.kind = kRequestKindNames[kind_index];
  event.name = std::move(name);
  event.status = StatusCodeName(status.code());
  event.graph_epoch = trace.graph_epoch;
  event.sub_epoch = trace.sub_epoch;
  event.states_epoch = trace.states_epoch;
  for (int p = 0; p < obs::kNumObsPhases; ++p) {
    event.phase_ns[p] = phase_ns[p];
  }
  event.sssp_runs = sssp_runs;
  event.sssp_settled = sssp_settled;
  event.transport_solves = transport_solves;
  event.edge_cost_builds = edge_cost_builds;
  event.edge_cost_patches = edge_cost_patches;
  event.result_hits = trace.result_hits;
  event.result_misses = trace.result_misses;
  event.results_retained = trace.results_retained;
  event.results_erased = trace.results_erased;
  if (config_.event_log->Emit(std::move(event))) {
    obs_.events_emitted->Add(1);
  } else {
    obs_.events_dropped->Add(1);
  }
}

StatusOr<Response> SndService::HelpCmd() {
  HelpResponse help;
  AppendLines(kCommandUsage, &help.rows);
  AppendLines(kSndFlagUsage, &help.rows);
  return Response(std::move(help));
}

StatusOr<Response> SndService::Dispatch(const Request& request) {
  // Typed entry point: install a fresh trace so pipeline spans and work
  // hooks attribute to this request, then fold + emit on the way out.
  obs::RequestTrace trace;
  trace.start = std::chrono::steady_clock::now();
  const StatusOr<Response> response = [&] {
    const obs::TraceScope scope(&trace);
    const obs::ObsSpan span(obs::ObsPhase::kDispatch);
    return DispatchInner(request);
  }();
  FinishTrace(trace, request.index(), RequestSessionName(request),
              response.status());
  return response;
}

StatusOr<Response> SndService::DispatchInner(const Request& request) {
  if (const auto* typed = std::get_if<LoadGraphRequest>(&request)) {
    return LoadGraphCmd(*typed);
  }
  if (const auto* typed = std::get_if<LoadStatesRequest>(&request)) {
    return LoadStatesCmd(*typed);
  }
  if (const auto* typed = std::get_if<AppendStateRequest>(&request)) {
    return AppendStateCmd(*typed);
  }
  if (const auto* typed = std::get_if<AddEdgeRequest>(&request)) {
    return MutateEdgeCmd(typed->name, typed->u, typed->v, /*add=*/true);
  }
  if (const auto* typed = std::get_if<RemoveEdgeRequest>(&request)) {
    return MutateEdgeCmd(typed->name, typed->u, typed->v, /*add=*/false);
  }
  if (std::get_if<SubscribeRequest>(&request) != nullptr) {
    // Streaming only: ServeStream intercepts subscribe before Dispatch,
    // and in-process callers use SndService::Subscribe directly.
    return Status::FailedPrecondition(
        "subscribe requires a streaming connection");
  }
  if (const ComputeRequestBase* base = ComputeReadBase(request)) {
    return ComputeCmd(request, *base);
  }
  if (std::get_if<InfoRequest>(&request) != nullptr) return InfoCmd();
  if (std::get_if<StatsRequest>(&request) != nullptr) return StatsCmd();
  if (const auto* typed = std::get_if<EvictRequest>(&request)) {
    return EvictCmd(*typed);
  }
  if (std::get_if<VersionRequest>(&request) != nullptr) {
    return Response(VersionResponse{VersionString()});
  }
  if (std::get_if<HelpRequest>(&request) != nullptr) return HelpCmd();
  if (std::get_if<QuitRequest>(&request) != nullptr) {
    return Response(ByeResponse{});
  }
  return Status::Internal("unhandled request variant");
}

StatusOr<Response> SndService::LoadGraphCmd(const LoadGraphRequest& request) {
  // Wire codecs validate the name at parse time; typed in-process
  // callers hit this check.
  if (!ValidSessionName(request.name)) {
    return Status::InvalidArgument("invalid graph name '" + request.name +
                                   "'");
  }
  // File I/O before the writer lock: a slow disk must not stall readers.
  std::optional<Graph> graph = ReadEdgeList(request.path);
  if (!graph.has_value()) {
    return Status::Unavailable("cannot read graph from " + request.path);
  }
  StatusOr<Response> result = [&]() -> StatusOr<Response> {
    const WriterMutexLock lock(session_mu_);
    // Reload: retire the old epoch's calculators and cached results
    // before the registry bumps epochs, so no stale artifact survives.
    PurgeGraphArtifacts(request.name);
    const GraphSession& session =
        registry_.LoadGraph(request.name, *std::move(graph));
    StampTraceEpochs(session.graph_epoch, session.graph_sub_epoch,
                     session.states_epoch);
    return Response(LoadGraphResponse{request.name,
                                      session.graph->num_nodes(),
                                      session.graph->num_edges(),
                                      session.graph_epoch});
  }();
  // Subscribers on a replaced session must wake and end with "replaced".
  if (result.ok()) NotifyChange();
  return result;
}

StatusOr<Response> SndService::LoadStatesCmd(
    const LoadStatesRequest& request) {
  // Existence check first (and again under the writer lock below): the
  // legacy protocol reports an unknown graph before an unreadable file.
  {
    const ReaderMutexLock lock(session_mu_);
    if (registry_.Find(request.name) == nullptr) {
      return Status::NotFound("unknown graph '" + request.name + "'");
    }
  }
  std::optional<std::vector<NetworkState>> states =
      ReadStateSeries(request.path);
  if (!states.has_value()) {
    return Status::Unavailable("cannot read states from " + request.path);
  }
  StatusOr<Response> result = [&]() -> StatusOr<Response> {
    const WriterMutexLock lock(session_mu_);
    GraphSession* session = registry_.Find(request.name);
    if (session == nullptr) {  // Evicted between the check and the lock.
      return Status::NotFound("unknown graph '" + request.name + "'");
    }
    for (const NetworkState& state : *states) {
      if (state.num_users() != session->graph->num_nodes()) {
        return Status::FailedPrecondition(
            "state size does not match graph '" + request.name + "'");
      }
    }
    // Eager memory reclamation only — correctness needs neither step.
    // The old series' results are unreachable once states_epoch bumps,
    // and EvaluatePairs rebuilds any edge-cost cache whose epoch is
    // stale; releasing both now just avoids holding dead buffers until
    // the next request. Calculators survive (the graph is unchanged).
    results_.EraseMatchingPrefix(request.name + "|");
    {
      const MutexLock calc_lock(calc_mu_);
      for (auto& [key, slot] : calculators_) {
        if (key.rfind(request.name + "|", 0) == 0) {
          const MutexLock entry_lock(slot.entry->mu);
          slot.entry->edge_costs.reset();
        }
      }
    }
    registry_.ReplaceStates(session, *std::move(states));
    StampTraceEpochs(session->graph_epoch, session->graph_sub_epoch,
                     session->states_epoch);
    return Response(LoadStatesResponse{
        request.name, static_cast<int64_t>(session->states.size()),
        session->graph->num_nodes(), session->states_epoch});
  }();
  if (result.ok()) NotifyChange();
  return result;
}

StatusOr<Response> SndService::AppendStateCmd(
    const AppendStateRequest& request) {
  StatusOr<Response> result = [&]() -> StatusOr<Response> {
    const WriterMutexLock lock(session_mu_);
    GraphSession* session = registry_.Find(request.name);
    if (session == nullptr) {
      return Status::NotFound("unknown graph '" + request.name + "'");
    }
    const auto n = static_cast<size_t>(session->graph->num_nodes());
    if (request.values.size() != n) {
      return Status::InvalidArgument(
          "append_state: expected " + std::to_string(n) +
          " opinion values, got " + std::to_string(request.values.size()));
    }
    for (const int8_t value : request.values) {
      if (value < -1 || value > 1) {  // Typed callers only; codecs reject.
        return Status::InvalidArgument(
            "invalid opinion value '" + std::to_string(value) + "'");
      }
    }
    registry_.AppendState(session,
                          NetworkState::FromValues(
                              std::vector<int8_t>(request.values)));
    // Sliding-window retention (--retain=N): drop the oldest states
    // past the cap. Global indices keep their meaning — surviving
    // cached results and in-place-trimmed edge-cost caches stay valid.
    const int64_t retain =
        config_.state_retention > 0
            ? std::max<int64_t>(2, config_.state_retention)
            : 0;
    const int64_t excess =
        retain > 0 ? static_cast<int64_t>(session->states.size()) - retain
                   : 0;
    if (excess > 0) {
      const int64_t new_first = session->first_state_index + excess;
      // Results of pairs that left the window are unreachable (their
      // global indices are rejected) — reclaim them eagerly. A key's
      // pair suffix is "|i,j" with global i < j, so i < new_first
      // identifies the departed pairs.
      const std::string result_prefix =
          request.name + "|g" + std::to_string(session->graph_epoch) +
          "|s" + std::to_string(session->states_epoch) + "|";
      results_.EraseMatching(result_prefix, [&](const std::string& key) {
        int64_t i = 0;
        int64_t j = 0;
        if (!ParseKeyPairSuffix(key, &i, &j)) return true;
        return i < new_first;
      });
      // Current-epoch edge-cost caches track the resident window by
      // local index: trim them in place. Stale-epoch caches would be
      // rebuilt on next use anyway; just release them.
      {
        const std::string calc_prefix =
            request.name + "|g" + std::to_string(session->graph_epoch) +
            "." + std::to_string(session->graph_sub_epoch) + "|";
        const MutexLock calc_lock(calc_mu_);
        for (auto& [key, slot] : calculators_) {
          if (key.rfind(calc_prefix, 0) != 0) continue;
          const MutexLock entry_lock(slot.entry->mu);
          if (slot.entry->edge_costs != nullptr &&
              slot.entry->edge_costs_epoch == session->states_epoch) {
            SndCalculator::TrimEdgeCostCache(slot.entry->edge_costs.get(),
                                             static_cast<int32_t>(excess));
          } else {
            slot.entry->edge_costs.reset();
          }
        }
      }
      registry_.TrimStates(session, excess);
    }
    StampTraceEpochs(session->graph_epoch, session->graph_sub_epoch,
                     session->states_epoch);
    return Response(LoadStatesResponse{
        request.name, static_cast<int64_t>(session->states.size()),
        session->graph->num_nodes(), session->states_epoch});
  }();
  if (result.ok()) NotifyChange();
  return result;
}

StatusOr<Response> SndService::MutateEdgeCmd(const std::string& name,
                                             int32_t u, int32_t v,
                                             bool add) {
  StatusOr<Response> result = [&]() -> StatusOr<Response> {
    const WriterMutexLock lock(session_mu_);
    return MutateEdgeLocked(name, u, v, add);
  }();
  if (result.ok()) NotifyChange();
  return result;
}

StatusOr<Response> SndService::MutateEdgeLocked(const std::string& name,
                                                int32_t u, int32_t v,
                                                bool add) {
  if (!ValidSessionName(name)) {
    return Status::InvalidArgument("invalid graph name '" + name + "'");
  }
  GraphSession* session = registry_.Find(name);
  if (session == nullptr) {
    return Status::NotFound("unknown graph '" + name + "'");
  }
  const int32_t n = session->graph->num_nodes();
  for (const int32_t index : {u, v}) {
    if (index < 0 || index >= n) {
      return Status::InvalidArgument(
          "node index '" + std::to_string(index) + "' out of range (have " +
          std::to_string(n) + " nodes)");
    }
  }
  const std::string edge_label =
      std::to_string(u) + "->" + std::to_string(v);
  if (add && u == v) {
    return Status::InvalidArgument("add_edge: self-loop " + edge_label +
                                   " not allowed");
  }
  // Stage the single mutation on a delta overlay and compact
  // immediately: the resident graph stays a plain CSR, so the read path
  // (every SSSP of every term) carries zero overlay overhead.
  GraphDelta delta(session->graph.get());
  if (add) {
    if (!delta.AddEdge(u, v)) {
      return Status::FailedPrecondition("edge " + edge_label +
                                        " already exists in graph '" +
                                        name + "'");
    }
  } else {
    if (!delta.RemoveEdge(u, v)) {
      return Status::FailedPrecondition("no edge " + edge_label +
                                        " in graph '" + name + "'");
    }
  }
  MutationSummary summary;
  auto new_graph = std::make_shared<const Graph>(delta.Compact(&summary));

  const uint64_t graph_epoch = session->graph_epoch;
  const uint64_t old_sub = session->graph_sub_epoch;
  const uint64_t states_epoch = session->states_epoch;
  const int64_t first = session->first_state_index;
  const auto num_states = static_cast<int32_t>(session->states.size());

  // Detach every calculator of this session from the table. Entries of
  // the pre-mutation sub-epoch are candidates for rebuild+retention
  // below; anything older is unreachable and simply retires (its work
  // was already folded into the registry per request).
  const std::string old_calc_prefix = name + "|g" +
                                      std::to_string(graph_epoch) + "." +
                                      std::to_string(old_sub) + "|";
  std::vector<std::shared_ptr<CalcEntry>> old_entries;
  {
    const MutexLock lock(calc_mu_);
    for (auto it = calculators_.begin(); it != calculators_.end();) {
      if (it->first.rfind(name + "|", 0) == 0) {
        if (it->first.rfind(old_calc_prefix, 0) == 0) {
          old_entries.push_back(it->second.entry);
        }
        it = calculators_.erase(it);
      } else {
        ++it;
      }
    }
  }

  registry_.MutateGraph(session, new_graph);
  const uint64_t new_sub = session->graph_sub_epoch;
  StampTraceEpochs(graph_epoch, new_sub, states_epoch);

  // Rebuild each live calculator on the new graph, patch its edge-cost
  // cache, and certify which cached SND values the mutation cannot have
  // changed (see MutateEdgeLocked's declaration for the certificate).
  constexpr Opinion kOps[2] = {Opinion::kPositive, Opinion::kNegative};
  std::unordered_set<std::string> retained_keys;
  for (const std::shared_ptr<CalcEntry>& old_entry : old_entries) {
    SndCalculator* old_calc = nullptr;
    std::shared_ptr<SndCalculator::EdgeCostCache> old_cache;
    {
      const MutexLock entry_lock(old_entry->mu);
      old_calc = old_entry->calc.get();
      if (old_entry->edge_costs != nullptr &&
          old_entry->edge_costs_epoch == states_epoch) {
        old_cache = old_entry->edge_costs;
      }
    }
    if (old_calc == nullptr) continue;  // Never built; nothing to carry.

    // Eager rebuild so warm traffic stays warm across the mutation; the
    // patched cache reuses every built cost buffer the model can remap
    // (O(edges) copies instead of O(nodes * edges) recosting).
    auto new_calc_owned =
        std::make_unique<SndCalculator>(new_graph.get(), old_entry->options);
    SndCalculator* new_calc = new_calc_owned.get();
    std::vector<std::pair<int32_t, Opinion>> patched;
    std::shared_ptr<SndCalculator::EdgeCostCache> new_cache;
    if (old_cache != nullptr) {
      new_cache = new_calc->MakeEdgeCostCachePatched(&session->states,
                                                     *old_cache, summary,
                                                     &patched);
    }

    // Retention is sound only if the transport topology is unchanged
    // (identical bank structure) and every built cost buffer was
    // patched bit-for-bit; otherwise every cached value of this
    // signature could differ and all of it must go.
    bool feasible =
        old_cache != nullptr &&
        SameBankStructure(old_calc->banks(), new_calc->banks());
    std::vector<std::array<bool, 2>> built(
        static_cast<size_t>(num_states), {false, false});
    if (feasible) {
      std::vector<std::array<bool, 2>> patched_ok(
          static_cast<size_t>(num_states), {false, false});
      for (const auto& [state, op] : patched) {
        patched_ok[static_cast<size_t>(state)]
                  [op == Opinion::kPositive ? 0 : 1] = true;
      }
      for (int32_t s = 0; s < num_states && feasible; ++s) {
        for (size_t k = 0; k < 2; ++k) {
          if (!SndCalculator::EdgeCostsBuilt(*old_cache, s, kOps[k])) {
            continue;
          }
          built[static_cast<size_t>(s)][k] = true;
          if (!patched_ok[static_cast<size_t>(s)][k]) feasible = false;
        }
      }
    }

    if (feasible) {
      // Affected-source masks, one per built (state, op), computed
      // lazily (only for states cached pairs actually touch). Two
      // reverse SSSPs each — this is the "work proportional to the
      // affected region" the incremental path buys.
      std::vector<std::array<std::optional<std::vector<bool>>, 2>> affected(
          static_cast<size_t>(num_states));
      const auto affected_mask =
          [&](int32_t s, size_t k) -> const std::vector<bool>& {
        std::optional<std::vector<bool>>& slot =
            affected[static_cast<size_t>(s)][k];
        if (!slot.has_value()) {
          std::vector<bool> mask(static_cast<size_t>(n), false);
          if (add) {
            const std::vector<int64_t> du = old_calc->DistancesToNode(
                session->states, s, kOps[k], u, old_cache.get());
            const std::vector<int64_t> dv = old_calc->DistancesToNode(
                session->states, s, kOps[k], v, old_cache.get());
            const int64_t c = new_calc->EdgeCostAt(
                session->states, s, kOps[k], summary.added_new_indices[0],
                new_cache.get());
            for (int32_t x = 0; x < n; ++x) {
              // A source that cannot reach u cannot use the new edge.
              mask[static_cast<size_t>(x)] =
                  du[static_cast<size_t>(x)] != kUnreachableDistance &&
                  du[static_cast<size_t>(x)] + c <
                      dv[static_cast<size_t>(x)];
            }
          } else {
            const std::vector<int64_t> d_old = old_calc->DistancesToNode(
                session->states, s, kOps[k], v, old_cache.get());
            const std::vector<int64_t> d_new = new_calc->DistancesToNode(
                session->states, s, kOps[k], v, new_cache.get());
            for (int32_t x = 0; x < n; ++x) {
              mask[static_cast<size_t>(x)] =
                  d_old[static_cast<size_t>(x)] !=
                  d_new[static_cast<size_t>(x)];
            }
          }
          slot = std::move(mask);
        }
        return *slot;
      };
      const auto term_ok = [&](int32_t from, int32_t to,
                               size_t k) -> bool {
        const std::vector<bool>& mask = affected_mask(from, k);
        for (const int32_t s : old_calc->TermRowSources(
                 session->states[static_cast<size_t>(from)],
                 session->states[static_cast<size_t>(to)], kOps[k])) {
          if (mask[static_cast<size_t>(s)]) return false;
        }
        return true;
      };
      const std::string result_prefix =
          name + "|g" + std::to_string(graph_epoch) + "|s" +
          std::to_string(states_epoch) + "|" + old_entry->signature + "|";
      for (const std::string& key :
           results_.KeysMatchingPrefix(result_prefix)) {
        int64_t gi = 0;
        int64_t gj = 0;
        if (!ParseKeyPairSuffix(key, &gi, &gj)) continue;
        const int64_t li = gi - first;
        const int64_t lj = gj - first;
        if (li < 0 || lj < 0 || li >= num_states || lj >= num_states) {
          continue;  // Outside the resident window: let it be erased.
        }
        bool keep = true;
        for (size_t k = 0; k < 2 && keep; ++k) {
          // Both cost sides must have been built (else the certificate
          // has nothing to patch against)...
          keep = built[static_cast<size_t>(li)][k] &&
                 built[static_cast<size_t>(lj)][k] &&
                 // ... and no SSSP row source of either directed term
                 // may be affected on its (state, op) side.
                 term_ok(static_cast<int32_t>(li),
                         static_cast<int32_t>(lj), k) &&
                 term_ok(static_cast<int32_t>(lj),
                         static_cast<int32_t>(li), k);
        }
        if (keep) retained_keys.insert(key);
      }
    }

    // Install the rebuilt entry under the new sub-epoch key.
    auto new_entry = std::make_shared<CalcEntry>(
        new_graph, old_entry->options, old_entry->signature);
    {
      const MutexLock entry_lock(new_entry->mu);
      new_entry->calc = std::move(new_calc_owned);
      if (new_cache != nullptr) {
        new_entry->edge_costs = new_cache;
        new_entry->edge_costs_epoch = states_epoch;
      }
    }
    {
      const MutexLock lock(calc_mu_);
      InsertCalculatorLocked(name + "|g" + std::to_string(graph_epoch) +
                                 "." + std::to_string(new_sub) + "|" +
                                 old_entry->signature,
                             std::move(new_entry));
    }
  }

  // One sweep drops everything the certificates did not explicitly
  // keep — including signatures with no live calculator and keys from
  // stale epochs. Nothing stale can survive a mutation.
  const auto erased = static_cast<int64_t>(results_.EraseMatching(
      name + "|", [&retained_keys](const std::string& key) {
        return retained_keys.find(key) == retained_keys.end();
      }));

  MutateEdgeResponse response;
  response.name = name;
  response.added = add;
  response.u = u;
  response.v = v;
  response.edges = new_graph->num_edges();
  response.graph_epoch = graph_epoch;
  response.sub_epoch = new_sub;
  response.results_retained = static_cast<int64_t>(retained_keys.size());
  response.results_erased = erased;
  if (obs::RequestTrace* trace = obs::CurrentRequestTrace()) {
    trace->results_retained = response.results_retained;
    trace->results_erased = erased;
  }
  return Response(response);
}

std::shared_ptr<SndService::CalcEntry> SndService::GetCalculator(
    const std::string& name, const GraphSession& session,
    const SndOptions& options, const std::string& signature) {
  const std::string key = CalculatorKey(name, session, signature);
  std::shared_ptr<CalcEntry> entry;
  {
    const MutexLock lock(calc_mu_);
    const auto it = calculators_.find(key);
    if (it != calculators_.end()) {
      obs_.calc_hits->Add(1);
      it->second.last_used = ++calc_ticks_;
      entry = it->second.entry;
    } else {
      entry = std::make_shared<CalcEntry>(session.graph, options, signature);
      InsertCalculatorLocked(key, entry);
    }
  }
  // Construction happens outside calc_mu_ (building banks and the
  // reversed graph can be expensive; unrelated lookups must not wait)
  // but under the entry's own mutex, so concurrent first users of one
  // calculator build it exactly once.
  {
    const MutexLock lock(entry->mu);
    if (entry->calc == nullptr) {
      entry->calc = std::make_unique<SndCalculator>(entry->graph.get(),
                                                    options);
    }
  }
  return entry;
}

void SndService::InsertCalculatorLocked(const std::string& key,
                                        std::shared_ptr<CalcEntry> entry) {
  // Over capacity: retire the least recently used calculator. In-flight
  // computations on the victim keep it alive through their shared_ptr;
  // its work is already folded into the registry per request, so the
  // snd.work.* counters stay exactly cumulative.
  while (calculators_.size() >= config_.max_calculators) {
    auto victim = calculators_.begin();
    for (auto candidate = calculators_.begin();
         candidate != calculators_.end(); ++candidate) {
      if (candidate->second.last_used < victim->second.last_used) {
        victim = candidate;
      }
    }
    calculators_.erase(victim);
  }
  obs_.calc_builds->Add(1);
  calculators_.emplace(key, CalcSlot{std::move(entry), ++calc_ticks_});
}

std::vector<double> SndService::EvaluatePairs(const GraphSession& session,
                                              CalcEntry* entry,
                                              const std::string& key_prefix,
                                              const StatePairs& pairs,
                                              int64_t base_index) {
  std::vector<double> values(pairs.size(), 0.0);
  StatePairs missing;
  std::vector<size_t> missing_pos;
  std::vector<std::string> missing_keys;
  for (size_t k = 0; k < pairs.size(); ++k) {
    std::string key = ResultKey(key_prefix, base_index, pairs[k]);
    const std::optional<double> cached = results_.Get(key);
    if (cached.has_value()) {
      values[k] = *cached;
    } else {
      missing.push_back(pairs[k]);
      missing_pos.push_back(k);
      missing_keys.push_back(std::move(key));
    }
  }
  if (obs::RequestTrace* trace = obs::CurrentRequestTrace()) {
    trace->result_hits +=
        static_cast<int64_t>(pairs.size() - missing.size());
    trace->result_misses += static_cast<int64_t>(missing.size());
  }
  if (missing.empty()) return values;
  // Swap in a fresh edge-cost cache if the states epoch moved; compute
  // itself runs outside the entry mutex so concurrent readers overlap
  // (the batch path and the shared cache are internally synchronized).
  // The calculator pointer is read under the mutex; the pointee is
  // immutable once built (GetCalculator), so using it lock-free after
  // is safe.
  SndCalculator* calc = nullptr;
  std::shared_ptr<SndCalculator::EdgeCostCache> edge_costs;
  {
    const MutexLock lock(entry->mu);
    calc = entry->calc.get();
    if (entry->edge_costs == nullptr ||
        entry->edge_costs_epoch != session.states_epoch) {
      entry->edge_costs = calc->MakeEdgeCostCache(&session.states);
      entry->edge_costs_epoch = session.states_epoch;
    }
    edge_costs = entry->edge_costs;
  }
  const std::vector<double> computed = calc->BatchDistances(
      session.states, missing, edge_costs.get());
  for (size_t k = 0; k < missing.size(); ++k) {
    values[missing_pos[k]] = computed[k];
    results_.Put(missing_keys[k], computed[k]);
  }
  return values;
}

StatusOr<Response> SndService::ComputeCmd(const Request& request,
                                          const ComputeRequestBase& base) {
  // Reads share the session lock and run concurrently; a request that
  // swaps the global thread pool is dispatched as a writer so the swap
  // cannot race with in-flight ParallelFor work.
  if (base.threads > 0) {
    const WriterMutexLock lock(session_mu_);
    return ComputeLocked(request, base);
  }
  const ReaderMutexLock lock(session_mu_);
  return ComputeLocked(request, base);
}

// A method rather than a lambda inside ComputeCmd so the lock
// requirement is an annotation the analysis checks (attributes on
// lambdas are clang-only syntax soup; an SND_REQUIRES_SHARED method is
// checked at every call site).
StatusOr<Response> SndService::ComputeLocked(const Request& request,
                                             const ComputeRequestBase& base) {
  const GraphSession* session = registry_.Find(base.name);
  if (session == nullptr) {
    return Status::NotFound("unknown graph '" + base.name + "'");
  }
  StampTraceEpochs(session->graph_epoch, session->graph_sub_epoch,
                   session->states_epoch);
  const StatusOr<StatePairs> pairs = ComputePairs(request, *session);
  if (!pairs.ok()) return pairs.status();

  // --threads is process-global pool state, applied only once the
  // request is known valid (and only under the writer lock — see
  // ComputeCmd — so the swap cannot race with parallel compute).
  if (base.threads > 0) ThreadPool::SetGlobalThreads(base.threads);

  const std::string signature = SndOptionsSignature(base.options);
  const std::shared_ptr<CalcEntry> entry =
      GetCalculator(base.name, *session, base.options, signature);
  const std::vector<double> values = EvaluatePairs(
      *session, entry.get(), ResultKeyPrefix(base.name, *session, signature),
      *pairs, session->first_state_index);
  return ComputeResponse(request, base.name, *session, *pairs, values);
}

std::optional<Response> SndService::ProbeCachedLocked(
    const Request& request, const ComputeRequestBase& base,
    obs::RequestTrace* trace) {
  const GraphSession* session = registry_.Find(base.name);
  if (session == nullptr) return std::nullopt;
  const StatusOr<StatePairs> pairs = ComputePairs(request, *session);
  if (!pairs.ok()) return std::nullopt;
  const std::string signature = SndOptionsSignature(base.options);
  const std::string key_prefix =
      ResultKeyPrefix(base.name, *session, signature);
  std::vector<std::string> keys;
  keys.reserve(pairs->size());
  for (const auto& pair : *pairs) {
    keys.push_back(
        ResultKey(key_prefix, session->first_state_index, pair));
  }
  const std::string calc_key = CalculatorKey(base.name, *session, signature);
  std::vector<double> values;
  if (!calc_mu_.TryLock()) return std::nullopt;
  bool hit = false;
  const auto it = calculators_.find(calc_key);
  if (it != calculators_.end()) {
    // A calculator still being built declines: GetCalculator would
    // wait for the build.
    CalcEntry* entry = it->second.entry.get();
    bool built = false;
    if (entry->mu.TryLock()) {
      built = entry->calc != nullptr;
      entry->mu.Unlock();
    }
    hit = built && results_.GetAll(keys, &values);
    if (hit) {
      // What GetCalculator counts on a found calculator.
      obs_.calc_hits->Add(1);
      it->second.last_used = ++calc_ticks_;
    }
  }
  calc_mu_.Unlock();
  if (!hit) return std::nullopt;
  trace->graph_epoch = session->graph_epoch;
  trace->sub_epoch = session->graph_sub_epoch;
  trace->states_epoch = session->states_epoch;
  trace->result_hits += static_cast<int64_t>(pairs->size());
  return ComputeResponse(request, base.name, *session, *pairs, values);
}

StatusOr<Response> SndService::InfoCmd() {
  InfoResponse info;
  {
    const ReaderMutexLock lock(session_mu_);
    for (const auto& [name, session] : registry_.sessions()) {
      InfoResponse::SessionInfo row;
      row.name = name;
      row.nodes = session.graph->num_nodes();
      row.edges = session.graph->num_edges();
      row.graph_epoch = session.graph_epoch;
      row.states = static_cast<int64_t>(session.states.size());
      row.states_epoch = session.states_epoch;
      row.graph_sub_epoch = session.graph_sub_epoch;
      row.first_state = session.first_state_index;
      info.sessions.push_back(std::move(row));
    }
    // Read under the shared lock: a --threads request swaps the global
    // pool under the exclusive lock, so an unlocked read here could
    // touch the pool object mid-replacement.
    info.threads = ThreadPool::GlobalThreads();
  }
  {
    const MutexLock lock(calc_mu_);
    info.calc_size = static_cast<int64_t>(calculators_.size());
  }
  // Counts come straight from the registry the `stats` request
  // snapshots: work is folded in at request completion (FinishTrace),
  // so this is a consistent cut — a finished request's work is all
  // here, an in-flight one's is not half-counted — and `info` and
  // `stats` report the same numbers.
  info.calc_capacity = static_cast<int64_t>(config_.max_calculators);
  info.calc_builds = obs_.calc_builds->Value();
  info.calc_hits = obs_.calc_hits->Value();
  info.result_size = static_cast<int64_t>(results_.size());
  info.result_capacity = static_cast<int64_t>(results_.capacity());
  info.result_hits = obs_.result_hits->Value();
  info.result_misses = obs_.result_misses->Value();
  info.result_evictions = obs_.result_evictions->Value();
  info.sssp_runs = obs_.work_sssp_runs->Value();
  info.transport_solves = obs_.work_transport_solves->Value();
  info.edge_cost_builds = obs_.work_edge_cost_builds->Value();
  info.edge_cost_patches = obs_.work_edge_cost_patches->Value();
  return Response(std::move(info));
}

StatusOr<Response> SndService::EvictCmd(const EvictRequest& request) {
  StatusOr<Response> result = [&]() -> StatusOr<Response> {
    const WriterMutexLock lock(session_mu_);
    if (registry_.Find(request.name) == nullptr) {
      return Status::NotFound("unknown graph '" + request.name + "'");
    }
    PurgeGraphArtifacts(request.name);
    registry_.Evict(request.name);
    return Response(EvictResponse{request.name});
  }();
  // Subscribers on the evicted session must wake and end ("evicted").
  if (result.ok()) NotifyChange();
  return result;
}

void SndService::NotifyChange() {
  {
    const MutexLock lock(change_mu_);
    ++change_tick_;
  }
  change_cv_.NotifyAll();
}

StatusOr<SndService::SubscribeOutcome> SndService::Subscribe(
    const SubscribeRequest& request,
    const std::function<void(int64_t from)>& on_start,
    const std::function<bool(const SubscribeEvent&)>& on_event) {
  obs::RequestTrace trace;
  trace.start = std::chrono::steady_clock::now();
  return SubscribeTraced(&trace, request, on_start, on_event);
}

StatusOr<SndService::SubscribeOutcome> SndService::SubscribeTraced(
    obs::RequestTrace* trace, const SubscribeRequest& request,
    const std::function<void(int64_t from)>& on_start,
    const std::function<bool(const SubscribeEvent&)>& on_event) {
  obs_.subscribe_streams->Add(1);
  const StatusOr<SubscribeOutcome> outcome = [&] {
    const obs::TraceScope scope(trace);
    const obs::ObsSpan span(obs::ObsPhase::kDispatch);
    return SubscribeInner(request, on_start, on_event);
  }();
  if (outcome.ok()) obs_.subscribe_events->Add(outcome->delivered);
  FinishTrace(*trace, kSubscribeKindIndex, request.name, outcome.status());
  return outcome;
}

StatusOr<SndService::SubscribeOutcome> SndService::SubscribeInner(
    const SubscribeRequest& request,
    const std::function<void(int64_t from)>& on_start,
    const std::function<bool(const SubscribeEvent&)>& on_event) {
  SND_CHECK(on_event != nullptr);
  if (request.threads > 0) {
    return Status::InvalidArgument("subscribe does not accept --threads");
  }
  if (!ValidSessionName(request.name)) {
    return Status::InvalidArgument("invalid graph name '" + request.name +
                                   "'");
  }
  // Resolve the starting transition and pin the epochs the stream is
  // valid for; any epoch movement later ends it ("replaced").
  uint64_t graph_epoch = 0;
  uint64_t states_epoch = 0;
  int64_t next = 0;
  {
    const ReaderMutexLock lock(session_mu_);
    const GraphSession* session = registry_.Find(request.name);
    if (session == nullptr) {
      return Status::NotFound("unknown graph '" + request.name + "'");
    }
    graph_epoch = session->graph_epoch;
    states_epoch = session->states_epoch;
    StampTraceEpochs(graph_epoch, session->graph_sub_epoch, states_epoch);
    const int64_t window_first = session->first_state_index;
    if (request.from < 0) {
      // Next future transition: the one the next append completes.
      next = window_first +
             std::max<int64_t>(
                 static_cast<int64_t>(session->states.size()) - 1, 0);
    } else if (request.from < window_first) {
      return Status::InvalidArgument(
          "transition '" + std::to_string(request.from) +
          "' below retained window (first resident state " +
          std::to_string(window_first) + ")");
    } else {
      next = request.from;
    }
  }
  {
    const MutexLock lock(change_mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    ++active_subscribers_;
  }
  if (on_start) on_start(next);

  SubscribeOutcome outcome;
  std::string reason;
  // Per-iteration: snapshot the tick, drain a bounded batch under the
  // reader lock, deliver outside every lock, then wait for the tick to
  // move. Snapshot-before-drain means anything appended during the
  // drain bumps the tick past the snapshot, so no wakeup is lost; the
  // batch cap keeps writers from starving behind a huge backlog.
  constexpr int64_t kMaxBatch = 64;
  while (reason.empty()) {
    uint64_t tick = 0;
    {
      const MutexLock lock(change_mu_);
      tick = change_tick_;
      if (shutting_down_) reason = "shutdown";
    }
    if (!reason.empty()) break;
    std::vector<SubscribeEvent> batch;
    {
      const ReaderMutexLock lock(session_mu_);
      const GraphSession* session = registry_.Find(request.name);
      if (session == nullptr) {
        reason = "evicted";
      } else if (session->graph_epoch != graph_epoch ||
                 session->states_epoch != states_epoch) {
        reason = "replaced";
      } else if (next < session->first_state_index) {
        // Retention outran this consumer: the next transition's states
        // are gone, and silently skipping ahead would hide data loss.
        reason = "trimmed";
      } else {
        const int64_t window_first = session->first_state_index;
        const auto resident = static_cast<int64_t>(session->states.size());
        if (next + 1 < window_first + resident) {
          const std::string signature = SndOptionsSignature(request.options);
          const std::shared_ptr<CalcEntry> entry = GetCalculator(
              request.name, *session, request.options, signature);
          const std::string key_prefix =
              ResultKeyPrefix(request.name, *session, signature);
          while (static_cast<int64_t>(batch.size()) < kMaxBatch &&
                 next + 1 < window_first + resident &&
                 (request.count == 0 ||
                  outcome.delivered + static_cast<int64_t>(batch.size()) <
                      request.count)) {
            const auto li = static_cast<int32_t>(next - window_first);
            const std::vector<double> values =
                EvaluatePairs(*session, entry.get(), key_prefix,
                              {{li, li + 1}}, window_first);
            SubscribeEvent event;
            event.transition = next;
            event.value = values[0];
            event.graph_epoch = session->graph_epoch;
            event.graph_sub_epoch = session->graph_sub_epoch;
            event.states_epoch = session->states_epoch;
            batch.push_back(event);
            ++next;
          }
        }
      }
    }
    const bool drained_all = static_cast<int64_t>(batch.size()) < kMaxBatch;
    for (const SubscribeEvent& event : batch) {
      if (!on_event(event)) {
        reason = "closed";
        break;
      }
      ++outcome.delivered;
      if (request.count > 0 && outcome.delivered >= request.count) break;
    }
    if (reason.empty() && request.count > 0 &&
        outcome.delivered >= request.count) {
      reason = "count";
    }
    if (!reason.empty()) break;
    if (!drained_all) continue;  // Backlog remains; do not sleep on it.
    MutexLock lock(change_mu_);
    while (change_tick_ == tick && !shutting_down_) change_cv_.Wait(lock);
    if (shutting_down_) reason = "shutdown";
  }
  {
    const MutexLock lock(change_mu_);
    --active_subscribers_;
  }
  change_cv_.NotifyAll();  // The destructor may be waiting on us.
  outcome.reason = reason;
  return outcome;
}

void SndService::PurgeGraphArtifacts(const std::string& name) {
  const std::string prefix = name + "|";
  {
    const MutexLock lock(calc_mu_);
    for (auto it = calculators_.begin(); it != calculators_.end();) {
      if (it->first.rfind(prefix, 0) == 0) {
        // In-flight readers keep the entry alive via their shared_ptr;
        // its work is folded into the registry per request regardless.
        it = calculators_.erase(it);
      } else {
        ++it;
      }
    }
  }
  results_.EraseMatchingPrefix(prefix);
}

StatusOr<Response> SndService::StatsCmd() {
  // Gauges are sampled at snapshot time (counters fold continuously).
  {
    const ReaderMutexLock lock(session_mu_);
    obs_.session_count->Set(
        static_cast<int64_t>(registry_.sessions().size()));
  }
  {
    const MutexLock lock(calc_mu_);
    obs_.calc_size->Set(static_cast<int64_t>(calculators_.size()));
  }
  obs_.result_size->Set(static_cast<int64_t>(results_.size()));
  StatsResponse response;
  response.metrics = obs_registry_.Snapshot();
  if (config_.event_log != nullptr) {
    if (config_.event_log->EmitStats(response.metrics)) {
      obs_.events_emitted->Add(1);
    } else {
      obs_.events_dropped->Add(1);
    }
  }
  return Response(std::move(response));
}

bool SkipWireLine(std::string_view line, WireFormat format) {
  const size_t start = line.find_first_not_of(" \t");
  if (start == std::string_view::npos) return true;
  return format == WireFormat::kText && line[start] == '#';
}

SndService::ParsedLine::ParsedLine(const std::string& line,
                                   WireFormat format)
    : format_(format), request_(ParseTraced(line, format, &trace_)) {}

std::unique_ptr<SndService::ParsedLine> SndService::ParseWire(
    const std::string& line, WireFormat format) {
  return std::unique_ptr<ParsedLine>(new ParsedLine(line, format));
}

SndService::LineReply SndService::AnswerLine(ParsedLine* line) {
  // One trace covers parse, dispatch and encode, so the line's event
  // carries the codec time the typed Dispatch (which never sees wire
  // bytes) cannot.
  const StatusOr<Response> response = [&]() -> StatusOr<Response> {
    if (!line->request_.ok()) return line->request_.status();
    const obs::TraceScope scope(&line->trace_);
    const obs::ObsSpan span(obs::ObsPhase::kDispatch);
    return DispatchInner(*line->request_);
  }();
  return EncodeLine(line, response);
}

SndService::LineReply SndService::EncodeLine(
    ParsedLine* line, const StatusOr<Response>& response) {
  LineReply reply;
  {
    const obs::TraceScope scope(&line->trace_);
    const obs::ObsSpan span(obs::ObsPhase::kEncode);
    if (line->format_ == WireFormat::kText) {
      reply.text = response.ok() ? RenderTextResponse(*response)
                                 : RenderTextError(response.status());
    } else {
      reply.json = response.ok() ? RenderJsonResponse(*response)
                                 : RenderJsonError(response.status());
      reply.json += '\n';
    }
  }
  const StatusOr<Request>& request = line->request_;
  FinishTrace(line->trace_,
              request.ok() ? request->index() : kInvalidKindIndex,
              request.ok() ? RequestSessionName(*request) : std::string(),
              response.status());
  reply.close =
      response.ok() && std::holds_alternative<ByeResponse>(*response);
  return reply;
}

SndService::WireReply SndService::ToWire(LineReply reply,
                                         WireFormat format) {
  WireReply wire;
  wire.close = reply.close;
  if (format == WireFormat::kText) {
    AppendTextResponse(reply.text, &wire.bytes);
  } else {
    wire.bytes = std::move(reply.json);
  }
  return wire;
}

ServiceResponse SndService::Call(const std::string& request) {
  ParsedLine line(request, WireFormat::kText);
  return AnswerLine(&line).text;
}

SndService::WireReply SndService::CallWire(const std::string& line,
                                           WireFormat format) {
  ParsedLine parsed(line, format);
  return ToWire(AnswerLine(&parsed), format);
}

SndService::WireReply SndService::CallWire(ParsedLine* line) {
  // Restart the latency clock so it counts the parse and this answer,
  // not the wait in between (a dispatch queue, on the epoll tier).
  line->trace_.start =
      std::chrono::steady_clock::now() -
      std::chrono::nanoseconds(line->trace_.phase_ns[static_cast<int>(
          obs::ObsPhase::kParse)].load(std::memory_order_relaxed));
  return ToWire(AnswerLine(line), line->format_);
}

std::optional<SndService::WireReply> SndService::TryServeCached(
    ParsedLine* line) {
  if (!line->request_.ok()) return std::nullopt;
  const Request& request = *line->request_;
  const ComputeRequestBase* base = ComputeReadBase(request);
  // --threads swaps the global pool under the writer lock.
  if (base == nullptr || base->threads > 0) return std::nullopt;
  const auto dispatch_start = std::chrono::steady_clock::now();
  if (!session_mu_.TryLockShared()) return std::nullopt;
  std::optional<Response> response =
      ProbeCachedLocked(request, *base, &line->trace_);
  session_mu_.UnlockShared();
  if (!response.has_value()) return std::nullopt;
  // The dispatch span, added only now: a declined probe leaves the
  // trace untouched.
  line->trace_.phase_ns[static_cast<int>(obs::ObsPhase::kDispatch)]
      .fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - dispatch_start)
                     .count(),
                 std::memory_order_relaxed);
  return ToWire(EncodeLine(line, *std::move(response)), line->format_);
}

void SndService::ServeSubscribe(obs::RequestTrace* trace,
                                const SubscribeRequest& request,
                                std::ostream& out, WireFormat format) {
  // Framing: the text header deliberately does NOT end in "rows <n>" or
  // "count <n>" — subscribe is the one open-ended response, delimited
  // by its subscribe_end line instead of a row count. Session names are
  // [A-Za-z0-9_.-] and reasons are fixed tokens, so the JSON lines need
  // no escaping.
  const auto on_start = [&](int64_t from) {
    if (format == WireFormat::kText) {
      out << "ok subscribe " << request.name << " from " << from << '\n';
    } else {
      out << "{\"ok\":true,\"cmd\":\"subscribe\",\"name\":\""
          << request.name << "\",\"from\":" << from << "}\n";
    }
    out.flush();
  };
  const auto on_event = [&](const SubscribeEvent& event) -> bool {
    if (format == WireFormat::kText) {
      out << event.transition << ' ' << event.transition + 1 << ' '
          << FormatDouble(event.value) << '\n';
    } else {
      out << "{\"ok\":true,\"cmd\":\"subscribe_event\",\"name\":\""
          << request.name << "\",\"transition\":" << event.transition
          << ",\"i\":" << event.transition
          << ",\"j\":" << event.transition + 1
          << ",\"value\":" << FormatDouble(event.value)
          << ",\"graph_epoch\":" << event.graph_epoch
          << ",\"sub_epoch\":" << event.graph_sub_epoch
          << ",\"states_epoch\":" << event.states_epoch << "}\n";
    }
    out.flush();
    // A dead peer (stream in a failed state) closes the subscription;
    // otherwise an unbounded stream would spin forever unread.
    return static_cast<bool>(out);
  };
  const StatusOr<SubscribeOutcome> outcome =
      SubscribeTraced(trace, request, on_start, on_event);
  if (!outcome.ok()) {
    if (format == WireFormat::kText) {
      WriteTextResponse(RenderTextError(outcome.status()), out);
    } else {
      out << RenderJsonError(outcome.status()) << '\n';
    }
    out.flush();
    return;
  }
  if (format == WireFormat::kText) {
    out << "ok subscribe_end " << request.name << " count "
        << outcome->delivered << " reason " << outcome->reason << '\n';
  } else {
    out << "{\"ok\":true,\"cmd\":\"subscribe_end\",\"name\":\""
        << request.name << "\",\"count\":" << outcome->delivered
        << ",\"reason\":\"" << outcome->reason << "\"}\n";
  }
  out.flush();
}

void SndService::ServeStream(std::istream& in, std::ostream& out,
                             WireFormat format) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (SkipWireLine(line, format)) continue;
    // A subscribe line streams under the trace it was parsed in.
    ParsedLine parsed(line, format);
    if (parsed.request_.ok() &&
        std::holds_alternative<SubscribeRequest>(*parsed.request_)) {
      ServeSubscribe(&parsed.trace_,
                     std::get<SubscribeRequest>(*parsed.request_), out,
                     format);
      continue;
    }
    const LineReply reply = AnswerLine(&parsed);
    if (format == WireFormat::kText) {
      WriteTextResponse(reply.text, out);
    } else {
      out << reply.json;
    }
    out.flush();
    if (reply.close) return;
  }
}

}  // namespace snd
