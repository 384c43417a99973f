// Per-request trace spans: a RequestTrace accumulates one request's
// phase durations and work-counter deltas, an ObsSpan is an RAII timer
// attributing its scope to one phase of the current thread's trace,
// and the thread-local current-trace pointer is what lets the core and
// paths layers report work without ever seeing the service.
//
// Propagation: the service installs the trace with a TraceScope for
// the lifetime of one request; snd::ThreadPool::ParallelFor captures
// the caller's current trace and installs it on every worker running a
// slice of that loop, so work done on pool threads lands in the right
// request's trace.  All trace fields written off the dispatch thread
// are relaxed atomics; the service reads them only after the request
// completes (ParallelFor's join is the happens-before edge).
//
// Phase semantics: spans may nest across phases (an edge-cost build
// that internally runs SSSPs accrues both kEdgeCost and kSssp time),
// and parallel phases sum per-thread durations, so phase_ns are a work
// attribution, not a wall-clock partition.
#ifndef SND_OBS_TRACE_H_
#define SND_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace snd {
namespace obs {

enum class ObsPhase {
  kParse = 0,
  kDispatch,
  kEdgeCost,
  kSssp,
  kTransport,
  kEncode,
};
inline constexpr int kNumObsPhases = 6;
const char* ObsPhaseName(ObsPhase phase);

// Engine-level accounting slots; paths/sssp_engine.cc maps its
// SsspBackend to these (obs stays below paths in the layer stack, so
// it cannot name the enum itself).
inline constexpr int kSsspSlotDijkstra = 0;
inline constexpr int kSsspSlotDial = 1;
inline constexpr int kSsspSlotDelta = 2;
inline constexpr int kNumSsspSlots = 3;

struct RequestTrace {
  std::chrono::steady_clock::time_point start;

  // Written from any thread running on behalf of this request.
  std::atomic<int64_t> phase_ns[kNumObsPhases] = {};
  // Calculator-level work (the snd.work.* rows): searches for term and
  // reference-matrix rows (a k-lane sweep counts k), transportation
  // problems solved, and per-(state, opinion) edge costings built by the
  // model or patched across a graph mutation. Searches a model runs
  // while costing edges count as edge-cost builds, not sssp_runs.
  std::atomic<int64_t> sssp_runs{0};
  std::atomic<int64_t> sssp_settled{0};
  std::atomic<int64_t> transport_solves{0};
  std::atomic<int64_t> edge_cost_builds{0};
  std::atomic<int64_t> edge_cost_patches{0};
  std::atomic<int64_t> backend_runs[kNumSsspSlots] = {};
  std::atomic<int64_t> backend_settled[kNumSsspSlots] = {};

  // Written by the dispatch thread only.
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t results_retained = -1;  // -1: request was not a mutation
  int64_t results_erased = -1;
  uint64_t graph_epoch = 0;  // 0: request touched no session
  uint64_t sub_epoch = 0;
  uint64_t states_epoch = 0;
};

// The calling thread's active trace (nullptr outside a traced
// request). SetCurrentRequestTrace returns the previous value so
// scopes nest; prefer TraceScope.
RequestTrace* CurrentRequestTrace();
RequestTrace* SetCurrentRequestTrace(RequestTrace* trace);

class TraceScope {
 public:
  explicit TraceScope(RequestTrace* trace)
      : previous_(SetCurrentRequestTrace(trace)) {}
  ~TraceScope() { SetCurrentRequestTrace(previous_); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  RequestTrace* previous_;
};

// RAII phase timer: attributes its lifetime to `phase` of the current
// trace. A no-op (no clock reads) when no trace is installed, so
// library users outside the service pay nothing.
class ObsSpan {
 public:
  explicit ObsSpan(ObsPhase phase)
      : trace_(CurrentRequestTrace()), phase_(phase) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ObsSpan() {
    if (trace_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    trace_->phase_ns[static_cast<int>(phase_)].fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count(),
        std::memory_order_relaxed);
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  RequestTrace* trace_;
  ObsPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

// Work-counter hooks for the core layer, the one place calculator work
// is counted: each bumps the current trace's delta, which the service
// folds into the registry's snd.work.* counters at request completion.
// A library caller counts a bare calculator's work the same way, by
// running it under a TraceScope over its own RequestTrace. No-ops
// without an installed trace.
inline void TraceCountSsspRun(int64_t runs = 1) {
  if (RequestTrace* t = CurrentRequestTrace()) {
    t->sssp_runs.fetch_add(runs, std::memory_order_relaxed);
  }
}
inline void TraceCountTransportSolve() {
  if (RequestTrace* t = CurrentRequestTrace()) {
    t->transport_solves.fetch_add(1, std::memory_order_relaxed);
  }
}
inline void TraceCountEdgeCostBuild() {
  if (RequestTrace* t = CurrentRequestTrace()) {
    t->edge_cost_builds.fetch_add(1, std::memory_order_relaxed);
  }
}
inline void TraceCountEdgeCostPatch() {
  if (RequestTrace* t = CurrentRequestTrace()) {
    t->edge_cost_patches.fetch_add(1, std::memory_order_relaxed);
  }
}
// Engine-level hook (paths layer): one SSSP Run on backend `slot`
// settled `settled` nodes. Counts every engine run, including searches
// the calculator-level sssp_runs counter excludes by design.
inline void TraceCountEngineRun(int slot, int64_t settled) {
  if (RequestTrace* t = CurrentRequestTrace()) {
    t->backend_runs[slot].fetch_add(1, std::memory_order_relaxed);
    t->backend_settled[slot].fetch_add(settled, std::memory_order_relaxed);
    t->sssp_settled.fetch_add(settled, std::memory_order_relaxed);
  }
}

// Scope of one SsspEngine::Run: times the run as kSssp and reports the
// run + its settled-node count on destruction, whichever exit path the
// engine takes. Costs one local increment per settled node plus two
// clock reads per run when a trace is installed, nothing otherwise.
class EngineRunScope {
 public:
  explicit EngineRunScope(int slot) : span_(ObsPhase::kSssp), slot_(slot) {}
  ~EngineRunScope() { TraceCountEngineRun(slot_, settled_); }

  EngineRunScope(const EngineRunScope&) = delete;
  EngineRunScope& operator=(const EngineRunScope&) = delete;

  void AddSettled(int64_t n = 1) { settled_ += n; }

 private:
  ObsSpan span_;
  int slot_;
  int64_t settled_ = 0;
};

}  // namespace obs
}  // namespace snd

#endif  // SND_OBS_TRACE_H_
