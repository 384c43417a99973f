// The SND serving subsystem, v1 typed core: a concurrency-safe request
// dispatcher over resident shared sessions, keeping graphs, state
// series, calculators and results hot across requests and across
// *connections*.
//
//   Dispatch(const Request&) -> StatusOr<Response>
//
// is the one true entry point: every wire protocol — the newline text
// protocol (api/text_codec.h) and the JSON protocol (api/json_codec.h)
// — is a thin codec over it, and in-process clients call it directly
// with typed requests. Errors are Status values with canonical codes
// (api/status.h); the text codec renders them in the legacy
// "error <message>" shape, byte-for-byte.
//
// Concurrency model — many clients, one resident network:
//  * One process-wide SndService (and thus one SessionRegistry) is
//    shared by every connection; `snd_serve` threads each connection
//    over it, so N clients hammer one resident graph with zero
//    reparsing.
//  * A std::shared_mutex guards the sessions. Read requests (distance /
//    series / matrix / anomalies / info / version / help) hold the
//    shared lock and run concurrently; mutations (load_graph /
//    load_states / append_state / add_edge / remove_edge / evict) take
//    the writer lock and bump epochs, so a reader can never observe a
//    torn graph/states pair. Graph mutations bump a *sub-epoch* and
//    invalidate only the cached results the edge change can affect
//    (see MutateEdgeLocked) instead of retiring the session; subscribe
//    streams the adjacent-SND series live (see Subscribe).
//    A read request carrying --threads is dispatched as a writer: it
//    swaps the global thread pool, which must not race with in-flight
//    parallel compute.
//  * The result LRU and the calculator table have their own internal
//    locks (fine-grained, held only around lookups/inserts — never
//    during compute). Concurrent readers missing the same cold pair may
//    both compute it; both arrive at the bitwise-identical value
//    (compute is deterministic), so the cache stays consistent.
//  * TryServeCached answers a read whose every pair is cached with
//    try-locks only, so an event-loop thread can call it without ever
//    waiting behind a writer or a calculator build.
//  * File I/O (load_graph / load_states) happens before the writer lock
//    is taken, so a slow disk never stalls readers.
//
// Caching layers behind a request (unchanged from the pre-typed
// service): one SndCalculator per (graph name, graph epoch, options
// signature) LRU-bounded; one EdgeCostCache per calculator and states
// epoch; a bounded LRU of SND values keyed on (graph epoch, states
// epoch, options signature, canonical state pair). SND is symmetric, so
// pairs are cached in (lower, higher) orientation. The registry's
// snd.work.* counters (reported by both `info` and `stats`) prove warm
// requests do zero SSSP/transport work.
//
// `info` output is deterministic and its ordering is contract: sessions
// sorted by name (one row each), then the calculators row, the results
// row, the work row, and the threads row, fields in that fixed order —
// locked in by test.
//
// Results are bitwise identical to direct SndCalculator calls for every
// backend, thread count, and wire format.
#ifndef SND_SERVICE_SERVICE_H_
#define SND_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "snd/api/requests.h"
#include "snd/api/responses.h"
#include "snd/api/status.h"
#include "snd/api/text_codec.h"  // ServiceResponse (legacy text shape).
#include "snd/core/snd.h"
#include "snd/obs/event_log.h"
#include "snd/obs/metrics.h"
#include "snd/obs/trace.h"
#include "snd/service/result_cache.h"
#include "snd/service/session.h"
#include "snd/util/mutex.h"
#include "snd/util/thread_annotations.h"

namespace snd {

// Wire formats ServeStream can speak; see api/text_codec.h and
// api/json_codec.h for the grammars.
enum class WireFormat {
  kText,
  kJson,
};

// True for a line every serve loop drops unanswered: a blank line
// (spaces and tabs only) in both formats, and a '#' comment in text.
// Transport framing, not protocol: ServeStream and the epoll tier both
// apply it before a line reaches the service.
bool SkipWireLine(std::string_view line, WireFormat format);

struct SndServiceConfig {
  // Bound on resident SND values (one double per (pair, options) key).
  size_t result_cache_capacity = 1 << 16;
  // Bound on resident calculators (each holds banks + reversed graph +
  // an edge-cost cache over the series).
  size_t max_calculators = 8;
  // Sliding-window retention (`--retain=N`): keep at most N resident
  // states per session, trimming the oldest after each append. 0 (the
  // default) retains everything. Values below 2 are treated as 2 — a
  // single state would make every series/transition undefined. State
  // indices on the wire are *global* (they survive trimming; see
  // session.h), so million-state streams stay bounded without index
  // churn.
  int64_t state_retention = 0;
  // Structured JSONL event sink: when set, the service emits one
  // self-describing event per completed request (trace id, kind,
  // per-phase durations, work-counter deltas, cache outcomes, status).
  // Not owned; must outlive the service. Null (the default) disables
  // emission — tracing and metric folding still run, so `stats` is
  // always live.
  obs::EventLog* event_log = nullptr;
};

class SndService {
 public:
  explicit SndService(SndServiceConfig config = SndServiceConfig());
  ~SndService();

  SndService(const SndService&) = delete;
  SndService& operator=(const SndService&) = delete;

  // The typed entry point. Thread-safe: may be called concurrently from
  // any number of threads; see the file comment for the locking
  // discipline. Deterministic: the same request sequence yields the
  // same responses (and bitwise the same values) for any thread count
  // and SSSP backend.
  StatusOr<Response> Dispatch(const Request& request);

  // Text-protocol convenience: ParseTextRequest -> dispatch ->
  // RenderText{Response,Error} under one trace. Byte-compatible with the
  // pre-typed protocol. Thread-safe (it is dispatch plus stateless codec
  // work).
  ServiceResponse Call(const std::string& request);

  // Reads requests from `in` line by line and writes each response to
  // `out` (flushed per response, so socket peers see replies promptly)
  // until EOF or `quit`, dropping the lines SkipWireLine matches; each
  // line is parsed once and `subscribe` streams its events here. Many
  // ServeStream calls may run concurrently over one service — that is
  // the shared-session deployment.
  void ServeStream(std::istream& in, std::ostream& out,
                   WireFormat format = WireFormat::kText);

  // One complete wire frame in, the complete wire reply out. `bytes` is
  // every response line '\n'-terminated (multi-row text responses
  // included), byte-identical to what ServeStream would have written
  // for the same line; `close` is set by `quit`, mirroring ServeStream
  // returning after `bye`. This is the entry point for frame-at-a-time
  // transports, which cannot hand the service a blocking istream; the
  // epoll tier uses the ParsedLine form below. The caller drops the
  // lines SkipWireLine matches first. Streaming `subscribe` is the one
  // line with no finite reply; it gets the typed failed_precondition,
  // which is exactly the wire behavior here. Thread-safe, traced like
  // Call (parse, dispatch and encode spans all covered).
  struct WireReply {
    std::string bytes;
    bool close = false;
  };
  WireReply CallWire(const std::string& line, WireFormat format);

  // One wire line parsed under its own trace and not yet answered. The
  // epoll tier parses each line once, on the loop thread that read it,
  // then answers it there (TryServeCached) or on a dispatch worker
  // (CallWire), under the same trace either way. Answer a line once.
  class ParsedLine {
   public:
    ParsedLine(const ParsedLine&) = delete;
    ParsedLine& operator=(const ParsedLine&) = delete;

   private:
    friend class SndService;
    ParsedLine(const std::string& line, WireFormat format);

    const WireFormat format_;
    obs::RequestTrace trace_;
    StatusOr<Request> request_;
  };

  // Parses `line` in `format` under a fresh trace. Thread-safe.
  std::unique_ptr<ParsedLine> ParseWire(const std::string& line,
                                        WireFormat format);

  // Answers `line` now when it is a distance, series, matrix or
  // anomalies read without --threads, the session lock can be had
  // without waiting, its calculator is already built, and every pair it
  // reads is already in the result cache. Otherwise returns nullopt and
  // leaves every counter, trace field and cache order as if it had not
  // run, for CallWire to answer the line. Never waits on the session
  // lock or a calculator's lock, so the epoll loop thread may call it;
  // the result cache's internal lock is short and never held across
  // compute. Thread-safe.
  std::optional<WireReply> TryServeCached(ParsedLine* line);

  // Answers a parsed line, blocking as any request may. The request
  // latency leaves out the wait since ParseWire. Thread-safe.
  WireReply CallWire(ParsedLine* line);

  // One streamed adjacent-SND value: SND(state t, state t+1) by global
  // transition index t, stamped with the epochs it was computed under
  // (graph_sub_epoch moves on add_edge/remove_edge, so a consumer can
  // attribute each value to the exact graph version that produced it).
  struct SubscribeEvent {
    int64_t transition = 0;  // Global index t; the pair is (t, t+1).
    double value = 0.0;
    uint64_t graph_epoch = 0;
    uint64_t graph_sub_epoch = 0;
    uint64_t states_epoch = 0;
  };

  struct SubscribeOutcome {
    int64_t delivered = 0;
    // Why the stream ended: "count" (limit reached), "closed" (the
    // observer returned false), "evicted" (session evicted), "replaced"
    // (graph or states reloaded — epochs moved, indices restarted),
    // "trimmed" (retention dropped the next transition before it was
    // delivered), or "shutdown" (service destruction).
    std::string reason;
  };

  // Serves a SubscribeRequest by streaming events to `on_event`,
  // blocking the calling thread until the stream ends (reasons above).
  // `on_start`, if non-null, is invoked once with the resolved starting
  // transition before any event. `on_event` returning false closes the
  // stream. Both callbacks run with NO service lock held, so they may
  // block on I/O; events are delivered in strictly increasing
  // transition order with epochs monotone. Thread-safe: any number of
  // subscribers may run concurrently with writers; each value is
  // computed (or served from cache) under the shared session lock, so
  // it is never torn and is bitwise identical to a `distance` request
  // at the same epochs.
  StatusOr<SubscribeOutcome> Subscribe(
      const SubscribeRequest& request,
      const std::function<void(int64_t from)>& on_start,
      const std::function<bool(const SubscribeEvent&)>& on_event);

  // The process-wide metrics registry backing `stats`; exposed so
  // embedding callers (snd_serve's --stats-interval loop, tests) can
  // snapshot without issuing a request. Thread-safe.
  const obs::MetricsRegistry& metrics() const { return obs_registry_; }

  // Mutable registry handle for co-located subsystems (the net tier)
  // that register their own instrument families, so their counters ride
  // the same `stats`/`info` snapshot as the request metrics. Thread-safe
  // (registration is get-or-create under the registry's own lock).
  obs::MetricsRegistry& metrics_registry() { return obs_registry_; }

 private:
  // Lets tests hold session_mu_ to make TryServeCached decline.
  friend class SndServiceTestPeer;

  // A resident calculator and its cross-request edge-cost cache, keyed
  // by (graph name, graph epoch, options signature). Held by shared_ptr
  // so table eviction cannot free an entry another thread is computing
  // on. Cumulative work accounting does not live here: every work
  // increment is mirrored into the current request's trace and folded
  // into the metrics registry at request completion, so retiring an
  // entry loses nothing.
  struct CalcEntry {
    CalcEntry(std::shared_ptr<const Graph> graph, SndOptions options,
              std::string signature)
        : graph(std::move(graph)),
          options(std::move(options)),
          signature(std::move(signature)) {}
    CalcEntry(const CalcEntry&) = delete;
    CalcEntry& operator=(const CalcEntry&) = delete;

    // Keeps the epoch's graph alive; const after construction.
    const std::shared_ptr<const Graph> graph;
    // The options the calculator was built with and their signature —
    // const after construction; the mutation path uses them to rebuild
    // the same calculator on the post-mutation graph.
    const SndOptions options;
    const std::string signature;
    // Guards construction of `calc` and the edge_costs swap. NOT held
    // during BatchDistances — compute runs lock-free on a pointer read
    // under mu (SndCalculator's batch path is const and internally
    // synchronized), so readers of different pairs overlap.
    Mutex mu;
    // Built under mu, then immutable.
    std::unique_ptr<SndCalculator> calc SND_GUARDED_BY(mu);
    std::shared_ptr<SndCalculator::EdgeCostCache> edge_costs
        SND_GUARDED_BY(mu);
    // states_epoch the edge-cost cache was built on.
    uint64_t edge_costs_epoch SND_GUARDED_BY(mu) = 0;
  };

  // A table slot: the shared entry plus its LRU tick. The tick lives
  // here, not in CalcEntry, so everything the table mutates is guarded
  // by one capability (calc_mu_) the analysis can name.
  struct CalcSlot {
    std::shared_ptr<CalcEntry> entry;
    uint64_t last_used = 0;
  };

  // Pre-resolved handles into obs_registry_, one per name in
  // obs/names.h the service maintains: the per-request hot path does
  // pointer bumps only, never a registry lookup. req_kind is indexed by
  // Request variant index, with one extra trailing slot for lines that
  // fail to parse at the wire layer ("invalid").
  struct ObsMetrics {
    obs::Counter* req_kind[std::variant_size_v<Request> + 1] = {};
    obs::Counter* req_ok = nullptr;
    obs::Counter* req_error = nullptr;
    obs::Histogram* req_latency = nullptr;
    obs::Counter* phase_ns[obs::kNumObsPhases] = {};
    obs::Counter* work_sssp_runs = nullptr;
    obs::Counter* work_sssp_settled = nullptr;
    obs::Counter* work_transport_solves = nullptr;
    obs::Counter* work_edge_cost_builds = nullptr;
    obs::Counter* work_edge_cost_patches = nullptr;
    obs::Counter* backend_runs[obs::kNumSsspSlots] = {};
    obs::Counter* backend_settled[obs::kNumSsspSlots] = {};
    obs::Counter* result_hits = nullptr;
    obs::Counter* result_misses = nullptr;
    obs::Counter* result_evictions = nullptr;
    obs::Gauge* result_size = nullptr;
    obs::Gauge* result_capacity = nullptr;
    obs::Counter* calc_builds = nullptr;
    obs::Counter* calc_hits = nullptr;
    obs::Gauge* calc_size = nullptr;
    obs::Gauge* calc_capacity = nullptr;
    obs::Gauge* session_count = nullptr;
    obs::Counter* session_mutations = nullptr;
    obs::Counter* mutate_retained = nullptr;
    obs::Counter* mutate_erased = nullptr;
    obs::Counter* subscribe_streams = nullptr;
    obs::Counter* subscribe_events = nullptr;
    obs::Counter* events_emitted = nullptr;
    obs::Counter* events_dropped = nullptr;
  };

  // Registers every service metric under its obs/names.h name and
  // resolves the handle struct; called once from the constructor.
  static ObsMetrics RegisterObsMetrics(obs::MetricsRegistry* registry);

  // Request epilogue, called exactly once per traced request after the
  // work is done (and before the response is returned): folds the
  // trace's phase/work deltas into the registry — so any later stats
  // snapshot sees requests only in full, a consistent cut at request
  // boundaries — records the latency, bumps the kind/outcome counters,
  // and (when config_.event_log is set) emits the request's JSONL
  // event under the next trace id. Ids are drawn here, not when the
  // trace starts, so a line parsed but never answered (a frame shed at
  // --max-inflight) leaves no gap in them. `kind_index` is the Request
  // variant index, or kInvalidKindIndex for unparseable wire lines.
  void FinishTrace(const obs::RequestTrace& trace, size_t kind_index,
                   std::string name, const Status& status);

  static constexpr size_t kInvalidKindIndex = std::variant_size_v<Request>;

  // The dispatch body (the pre-observability Dispatch): both traced
  // request paths — Dispatch and ServeLine — route through it inside
  // their own trace/span bracket.
  StatusOr<Response> DispatchInner(const Request& request);

  StatusOr<Response> LoadGraphCmd(const LoadGraphRequest& request);
  StatusOr<Response> LoadStatesCmd(const LoadStatesRequest& request);
  StatusOr<Response> AppendStateCmd(const AppendStateRequest& request);
  // Shared body of add_edge (`add` true) and remove_edge: stages the
  // mutation on a GraphDelta, compacts to a fresh CSR, bumps the
  // session's graph sub-epoch, rebuilds live calculators with patched
  // edge-cost caches, and erases exactly the cached results the
  // mutation may have changed (certificate below).
  StatusOr<Response> MutateEdgeCmd(const std::string& name, int32_t u,
                                   int32_t v, bool add);
  StatusOr<Response> ComputeCmd(const Request& request,
                                const ComputeRequestBase& base);
  StatusOr<Response> InfoCmd();
  // Refreshes the size/occupancy gauges, snapshots the registry, and —
  // when an event log is attached — emits the snapshot as a `stats`
  // event. The snapshot is taken BEFORE this request's own trace folds
  // (FinishTrace runs after the command body), so it covers exactly the
  // requests that completed before this one.
  StatusOr<Response> StatsCmd();
  StatusOr<Response> EvictCmd(const EvictRequest& request);
  StatusOr<Response> HelpCmd();

  // The compute body shared by distance/series/matrix/anomalies;
  // ComputeCmd wraps it in the shared (or, for --threads requests,
  // exclusive) session lock.
  StatusOr<Response> ComputeLocked(const Request& request,
                                   const ComputeRequestBase& base)
      SND_REQUIRES_SHARED(session_mu_);

  // TryServeCached's probe: the response ComputeLocked would give when
  // the calculator is built and every pair is cached, found with
  // try-locks only; nullopt (with no effect at all) otherwise. On
  // success it counts the calculator hit and the result hits and stamps
  // `trace` exactly as ComputeLocked would.
  std::optional<Response> ProbeCachedLocked(const Request& request,
                                            const ComputeRequestBase& base,
                                            obs::RequestTrace* trace)
      SND_REQUIRES_SHARED(session_mu_);

  // The calculator for (session, options), built on first use. Locks
  // calc_mu_ for the table and the entry's own mutex for construction.
  // Caller holds (at least) the shared session lock keeping `session`
  // alive.
  std::shared_ptr<CalcEntry> GetCalculator(const std::string& name,
                                           const GraphSession& session,
                                           const SndOptions& options,
                                           const std::string& signature)
      SND_REQUIRES_SHARED(session_mu_);

  // Counts one calculator build and files `entry` under `key` with a
  // fresh LRU tick, first retiring least-recently-used slots until the
  // table has room. Shared by GetCalculator and the mutation rebuild.
  void InsertCalculatorLocked(const std::string& key,
                              std::shared_ptr<CalcEntry> entry)
      SND_REQUIRES(calc_mu_);

  // SND values for `pairs` over the session's states: cached values are
  // served from the result LRU, the rest go through one BatchDistances
  // call sharing the entry's edge-cost cache, then populate the LRU.
  // `pairs` hold LOCAL (resident-window) indices; result keys use
  // GLOBAL indices (local + `base_index`, the session's
  // first_state_index) so cached values survive retention trimming.
  std::vector<double> EvaluatePairs(const GraphSession& session,
                                    CalcEntry* entry,
                                    const std::string& key_prefix,
                                    const StatePairs& pairs,
                                    int64_t base_index)
      SND_REQUIRES_SHARED(session_mu_);

  // The writer-locked body of MutateEdgeCmd: the delta-compact +
  // sub-epoch bump + targeted invalidation. Retention certificate (per
  // calculator, per (state, opinion) edge-cost side):
  //   add_edge(u, v):    source s is unaffected iff
  //                      d_old(s, u) + cost_new(u, v) >= d_old(s, v);
  //   remove_edge(u, v): source s is unaffected iff
  //                      d_new(s, v) == d_old(s, v);
  // both computed with one reverse SSSP per target on the old (and for
  // remove, new) calculator. A cached pair is retained iff every SSSP
  // row source of all four of its EMD* terms (SndCalculator::
  // TermRowSources) is unaffected on its (state, opinion) side, the
  // bank structures of the old and new calculators are identical, and
  // the model patched every built edge-cost buffer
  // (OpinionModel::PatchEdgeCosts). Everything else is erased; nothing
  // stale can survive, and every retained value is bitwise identical
  // to a from-scratch rebuild.
  StatusOr<Response> MutateEdgeLocked(const std::string& name, int32_t u,
                                      int32_t v, bool add)
      SND_REQUIRES(session_mu_);

  // Drops every calculator and cached result of `name` (reload/evict).
  // Their work is already folded into the registry per request.
  void PurgeGraphArtifacts(const std::string& name)
      SND_REQUIRES(session_mu_);

  // Subscribe under `trace`, started by the caller: one trace (and one
  // JSONL event) per stream, emitted when it ends, accounting every
  // value the stream computed. Its dispatch span is the stream's whole
  // lifetime, waits included.
  StatusOr<SubscribeOutcome> SubscribeTraced(
      obs::RequestTrace* trace, const SubscribeRequest& request,
      const std::function<void(int64_t from)>& on_start,
      const std::function<bool(const SubscribeEvent&)>& on_event);

  // The pre-observability Subscribe body, run inside SubscribeTraced.
  StatusOr<SubscribeOutcome> SubscribeInner(
      const SubscribeRequest& request,
      const std::function<void(int64_t from)>& on_start,
      const std::function<bool(const SubscribeEvent&)>& on_event);

  // One wire line's reply: `text` on the text codec, `json` (the
  // '\n'-terminated reply line) on the JSON codec. `close` is set by
  // `quit` on both.
  struct LineReply {
    ServiceResponse text;
    std::string json;
    bool close = false;
  };

  // The one per-line wire pipeline behind Call, CallWire and
  // ServeStream, after ParsedLine has parsed the line: dispatches it
  // and hands the outcome to EncodeLine. Subscribe dispatches to its
  // typed streaming error here; ServeStream streams it instead.
  LineReply AnswerLine(ParsedLine* line);

  // Encodes `response` in the line's format and finishes its trace.
  LineReply EncodeLine(ParsedLine* line, const StatusOr<Response>& response);

  // The wire bytes of `reply` in `format`.
  static WireReply ToWire(LineReply reply, WireFormat format);

  // Streaming body of `subscribe` for ServeStream connections: renders
  // the header / events / terminator of the stream onto `out` in
  // `format`, flushing per event, under the line's own trace.
  void ServeSubscribe(obs::RequestTrace* trace,
                      const SubscribeRequest& request, std::ostream& out,
                      WireFormat format);

  // Bumps change_tick_ and wakes subscribers; called (with no service
  // lock held) after every successful writer mutation a subscriber
  // could care about: append_state, add_edge/remove_edge, load_graph,
  // load_states, evict.
  void NotifyChange();

  SndServiceConfig config_;

  // The metrics registry and its pre-resolved handles. Declared FIRST
  // among stateful members: results_ holds counter pointers into the
  // registry, so it must be constructed after and destroyed before.
  obs::MetricsRegistry obs_registry_;
  ObsMetrics obs_;
  std::atomic<uint64_t> next_trace_id_{0};

  // Lock order (outer to inner): session_mu_ -> calc_mu_ -> entry->mu.
  // results_ locks internally and is never held across another lock.
  mutable SharedMutex session_mu_;
  SessionRegistry registry_ SND_GUARDED_BY(session_mu_);

  ResultCache results_;  // Internally synchronized.

  mutable Mutex calc_mu_ SND_ACQUIRED_AFTER(session_mu_);
  std::map<std::string, CalcSlot> calculators_ SND_GUARDED_BY(calc_mu_);
  uint64_t calc_ticks_ SND_GUARDED_BY(calc_mu_) = 0;

  // Subscriber wakeup state. change_mu_ is a leaf: NotifyChange takes
  // it only after the writer lock is released, and a subscriber never
  // holds it while acquiring session_mu_ (it snapshots the tick, drops
  // the lock, then drains under the reader lock — the tick comparison
  // on the next iteration catches anything appended during the drain,
  // so no wakeup is lost). The destructor sets shutting_down_, wakes
  // everyone, and waits for active_subscribers_ to reach zero before
  // tearing down the registry.
  mutable Mutex change_mu_ SND_ACQUIRED_AFTER(session_mu_);
  CondVar change_cv_;
  uint64_t change_tick_ SND_GUARDED_BY(change_mu_) = 0;
  int64_t active_subscribers_ SND_GUARDED_BY(change_mu_) = 0;
  bool shutting_down_ SND_GUARDED_BY(change_mu_) = false;
};

}  // namespace snd

#endif  // SND_SERVICE_SERVICE_H_
