#include "snd/core/snd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <utility>

#include "snd/cluster/diameters.h"
#include "snd/cluster/label_propagation.h"
#include "snd/emd/emd_star.h"
#include "snd/emd/reductions.h"
#include "snd/obs/trace.h"
#include "snd/paths/dial_lanes.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/mutex.h"
#include "snd/util/stopwatch.h"
#include "snd/util/thread_pool.h"

namespace snd {
namespace {

std::unique_ptr<OpinionModel> MakeModel(const SndOptions& options) {
  switch (options.model) {
    case GroundModelKind::kModelAgnostic:
      return std::make_unique<ModelAgnosticModel>(options.agnostic);
    case GroundModelKind::kIndependentCascade:
      return std::make_unique<IccModel>(options.icc);
    case GroundModelKind::kLinearThreshold:
      return std::make_unique<LtModel>(options.lt);
  }
  SND_CHECK(false);
  return nullptr;
}

double HistogramTotal(const std::vector<double>& h) {
  double total = 0.0;
  for (double v : h) total += v;
  return total;
}

size_t OpSlot(Opinion op) { return op == Opinion::kPositive ? 0 : 1; }

}  // namespace

// Per-(state, opinion) edge-cost store shared by every term of every pair
// in a batch — and, when caller-owned (MakeEdgeCostCache), across batch
// calls over one resident append-only state series. Entries are computed
// lazily and exactly once (std::call_once makes concurrent first requests
// safe); the reversed-cost buffer is derived on demand so pairs that
// never search the reversed graph pay nothing for it. Growth for
// appended states happens in EnsureStates at batch entry, serialized by
// its own mutex so overlapping batch calls (the shared service) are
// safe; std::deque keeps existing entries pinned while growing.
class SndCalculator::EdgeCostCache {
 public:
  EdgeCostCache(const SndCalculator& calc,
                const std::vector<NetworkState>* states)
      : calc_(calc), states_(states) {
    EnsureStates();
  }

  EdgeCostCache(const EdgeCostCache&) = delete;
  EdgeCostCache& operator=(const EdgeCostCache&) = delete;

  const std::vector<NetworkState>* states() const { return states_; }

  // Grows the entry table to cover states appended since the last call.
  // Called from the prologue of BatchDistances; the mutex makes the
  // growth safe when concurrent batch calls share one cache (the shared
  // service overlaps read requests). Must not race with an *append* to
  // `*states` itself — the service's session lock guarantees that.
  void EnsureStates() {
    const MutexLock lock(grow_mu_);
    while (entries_.size() < states_->size() * 2) entries_.emplace_back();
  }

  const std::vector<int32_t>& Costs(int32_t state, Opinion op) {
    Entry& entry = EntryFor(state, op);
    std::call_once(entry.costs_once, [&] {
      const obs::ObsSpan span(obs::ObsPhase::kEdgeCost);
      obs::TraceCountEdgeCostBuild();
      calc_.model_->ComputeEdgeCosts(
          *calc_.graph_, (*states_)[static_cast<size_t>(state)], op,
          &entry.costs);
      entry.costs_built.store(true, std::memory_order_release);
    });
    return entry.costs;
  }

  // Whether Costs(state, op) has already run (or been patched in).
  // States appended after the cache's last EnsureStates have no entry
  // yet and report not-built (the mutation path probes every resident
  // state; growth must not be forced on a cache being retired).
  bool CostsBuilt(int32_t state, Opinion op) const {
    const size_t index = 2 * static_cast<size_t>(state) + OpSlot(op);
    if (index >= entries_.size()) return false;
    return entries_[index].costs_built.load(std::memory_order_acquire);
  }

  // Costs(state, op) without the build path; the entry must be built.
  const std::vector<int32_t>& BuiltCosts(int32_t state, Opinion op) const {
    SND_CHECK(CostsBuilt(state, op));
    return entries_[2 * static_cast<size_t>(state) + OpSlot(op)].costs;
  }

  // Installs externally patched costs as the (state, op) entry. Only
  // valid on a fresh entry (mutation-time cache rebuild, before any
  // reader sees the cache).
  void InstallPatched(int32_t state, Opinion op, std::vector<int32_t> costs) {
    Entry& entry = EntryFor(state, op);
    bool installed = false;
    std::call_once(entry.costs_once, [&] {
      entry.costs = std::move(costs);
      entry.costs_built.store(true, std::memory_order_release);
      installed = true;
    });
    SND_CHECK(installed);
  }

  // Drops the first `count` states' entries after the caller erased the
  // same prefix of the backing states vector (sliding-window retention).
  // Must not race with readers.
  void Trim(int32_t count) {
    const MutexLock lock(grow_mu_);
    SND_CHECK(count >= 0);
    SND_CHECK(entries_.size() >= 2 * static_cast<size_t>(count));
    for (int32_t k = 0; k < 2 * count; ++k) entries_.pop_front();
  }

  const std::vector<int32_t>& RevCosts(int32_t state, Opinion op) {
    Entry& entry = EntryFor(state, op);
    std::call_once(entry.rev_once, [&] {
      const std::vector<int32_t>& forward = Costs(state, op);
      entry.rev_costs.resize(forward.size());
      for (size_t e = 0; e < forward.size(); ++e) {
        entry.rev_costs[e] = forward[static_cast<size_t>(
            calc_.reverse_origin_[e])];
      }
    });
    return entry.rev_costs;
  }

 private:
  struct Entry {
    std::once_flag costs_once;
    std::once_flag rev_once;
    std::atomic<bool> costs_built{false};
    std::vector<int32_t> costs;
    std::vector<int32_t> rev_costs;
  };

  Entry& EntryFor(int32_t state, Opinion op) {
    return entries_[2 * static_cast<size_t>(state) + OpSlot(op)];
  }

  const SndCalculator& calc_;
  const std::vector<NetworkState>* states_;
  Mutex grow_mu_;  // Serializes EnsureStates growth.
  // Deliberately unannotated: entries are read lock-free after growth
  // (std::deque pins them), with per-entry std::call_once init.
  std::deque<Entry> entries_;
};

std::shared_ptr<SndCalculator::EdgeCostCache> SndCalculator::MakeEdgeCostCache(
    const std::vector<NetworkState>* states) const {
  SND_CHECK(states != nullptr);
  return std::make_shared<EdgeCostCache>(*this, states);
}

std::shared_ptr<SndCalculator::EdgeCostCache>
SndCalculator::MakeEdgeCostCachePatched(
    const std::vector<NetworkState>* states, const EdgeCostCache& old_cache,
    const MutationSummary& summary,
    std::vector<std::pair<int32_t, Opinion>>* patched) const {
  SND_CHECK(states != nullptr);
  SND_CHECK(old_cache.states() == states);
  const obs::ObsSpan span(obs::ObsPhase::kEdgeCost);
  auto cache = std::make_shared<EdgeCostCache>(*this, states);
  if (patched != nullptr) patched->clear();
  const auto count = static_cast<int32_t>(states->size());
  for (int32_t state = 0; state < count; ++state) {
    for (const Opinion op : {Opinion::kPositive, Opinion::kNegative}) {
      if (!old_cache.CostsBuilt(state, op)) continue;
      std::vector<int32_t> costs;
      if (!model_->PatchEdgeCosts(*graph_,
                                  (*states)[static_cast<size_t>(state)], op,
                                  summary, old_cache.BuiltCosts(state, op),
                                  &costs)) {
        continue;
      }
      obs::TraceCountEdgeCostPatch();
      cache->InstallPatched(state, op, std::move(costs));
      if (patched != nullptr) patched->emplace_back(state, op);
    }
  }
  return cache;
}

bool SndCalculator::EdgeCostsBuilt(const EdgeCostCache& cache, int32_t state,
                                   Opinion op) {
  return cache.CostsBuilt(state, op);
}

void SndCalculator::TrimEdgeCostCache(EdgeCostCache* cache, int32_t count) {
  SND_CHECK(cache != nullptr);
  cache->Trim(count);
}

std::vector<int64_t> SndCalculator::DistancesToNode(
    const std::vector<NetworkState>& states, int32_t state, Opinion op,
    int32_t target, EdgeCostCache* cache) const {
  SND_CHECK(cache != nullptr);
  SND_CHECK(cache->states() == &states);
  cache->EnsureStates();
  SND_CHECK(0 <= state && state < static_cast<int32_t>(states.size()));
  SND_CHECK(0 <= target && target < graph_->num_nodes());
  const std::vector<int32_t>& rev_costs = cache->RevCosts(state, op);
  const std::unique_ptr<SsspEngine> engine = MakeEngine();
  obs::TraceCountSsspRun();
  const SsspSource source{target, 0};
  const std::span<const int64_t> dist =
      engine->Run(reversed_, rev_costs, std::span<const SsspSource>(&source, 1),
                  SsspGoal::AllNodes());
  return {dist.begin(), dist.end()};
}

std::vector<int32_t> SndCalculator::TermRowSources(const NetworkState& from,
                                                   const NetworkState& to,
                                                   Opinion op) const {
  SND_CHECK(from.num_users() == graph_->num_nodes());
  SND_CHECK(to.num_users() == graph_->num_nodes());
  std::vector<double> p = from.OpinionIndicator(op);
  std::vector<double> q = to.OpinionIndicator(op);
  const double total_p = HistogramTotal(p);
  const double total_q = HistogramTotal(q);
  std::vector<int32_t> sources;
  if (total_p < total_q) {
    // Reverse-SSSP branch: the bank rows read cluster minima over the
    // members of every active bank cluster (mirrors ComputeTermFast).
    const std::vector<double> bank_caps =
        ComputeBankCapacities(banks_, p, total_q - total_p);
    const int32_t nb = banks_.banks_per_cluster();
    std::vector<int32_t> bank_clusters;
    for (size_t k = 0; k < bank_caps.size(); ++k) {
      if (bank_caps[k] > 0.0) {
        bank_clusters.push_back(static_cast<int32_t>(k) / nb);
      }
    }
    std::sort(bank_clusters.begin(), bank_clusters.end());
    bank_clusters.erase(
        std::unique(bank_clusters.begin(), bank_clusters.end()),
        bank_clusters.end());
    for (int32_t c : bank_clusters) {
      const std::vector<int32_t>& members =
          cluster_members_[static_cast<size_t>(c)];
      sources.insert(sources.end(), members.begin(), members.end());
    }
  }
  CancelCommonMass(&p, &q);
  const std::vector<int32_t> sup = NonEmptyBins(p);
  sources.insert(sources.end(), sup.begin(), sup.end());
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

int32_t SndCalculator::EdgeCostAt(const std::vector<NetworkState>& states,
                                  int32_t state, Opinion op, int64_t e,
                                  EdgeCostCache* cache) const {
  SND_CHECK(cache != nullptr);
  SND_CHECK(cache->states() == &states);
  cache->EnsureStates();
  SND_CHECK(0 <= state && state < static_cast<int32_t>(states.size()));
  const std::vector<int32_t>& costs = cache->Costs(state, op);
  SND_CHECK(0 <= e && e < static_cast<int64_t>(costs.size()));
  return costs[static_cast<size_t>(e)];
}

SndCalculator::SndCalculator(const Graph* graph, SndOptions options)
    : graph_(graph),
      options_(options),
      model_(MakeModel(options)) {
  SND_CHECK(graph != nullptr);
  sssp_backend_ = ResolveSsspBackend(
      options_.sssp_backend, graph_->num_nodes(), model_->MaxEdgeCost());
  batch_searches_ =
      sssp_backend_ == SsspBackend::kDial &&
      DialLaneEngine::LanesFit(graph_->num_nodes(), model_->MaxEdgeCost());
  reversed_ = graph_->Reversed(&reverse_origin_);

  // Bank clustering.
  const int32_t n = graph_->num_nodes();
  std::vector<int32_t> labels;
  switch (options_.bank_strategy) {
    case BankStrategy::kSingleGlobal:
      labels.assign(static_cast<size_t>(n), 0);
      break;
    case BankStrategy::kPerBin:
      labels.resize(static_cast<size_t>(n));
      for (int32_t v = 0; v < n; ++v) labels[static_cast<size_t>(v)] = v;
      break;
    case BankStrategy::kPerCluster: {
      LabelPropagationOptions lp;
      lp.max_iterations = options_.lp_max_iterations;
      lp.min_community_size = options_.lp_min_community_size;
      labels = LabelPropagation(*graph_, options_.clustering_seed, lp);
      break;
    }
  }
  banks_ = MakeClusterBanks(labels, options_.banks_per_cluster,
                            /*gamma=*/0.0);

  // Bank ground distances gamma(c).
  std::vector<double> gammas(static_cast<size_t>(banks_.num_clusters),
                             options_.fixed_gamma);
  if (options_.gamma_policy == GammaPolicy::kStructuralBound) {
    const std::vector<double> bounds = ClusterDiameterUpperBounds(
        *graph_, banks_.cluster_of, banks_.num_clusters,
        model_->MaxEdgeCost());
    for (int32_t c = 0; c < banks_.num_clusters; ++c) {
      // Integral gamma keeps the whole cost structure integral
      // (Assumption 2); ceil preserves the >= 1/2 * diameter condition.
      gammas[static_cast<size_t>(c)] = std::ceil(
          options_.gamma_scale * 0.5 * bounds[static_cast<size_t>(c)]);
    }
  }
  for (int32_t c = 0; c < banks_.num_clusters; ++c) {
    for (auto& g : banks_.gammas[static_cast<size_t>(c)]) {
      g = gammas[static_cast<size_t>(c)];
    }
  }

  cluster_members_.assign(static_cast<size_t>(banks_.num_clusters), {});
  for (int32_t v = 0; v < n; ++v) {
    cluster_members_[static_cast<size_t>(
                         banks_.cluster_of[static_cast<size_t>(v)])]
        .push_back(v);
  }
}

SndCalculator::~SndCalculator() = default;

SndCalculator::TermScratch::TermScratch(const SndCalculator& calc)
    : engine(calc.MakeEngine()),
      cluster_min(static_cast<size_t>(calc.banks_.num_clusters)) {}

SndCalculator::TermScratch::~TermScratch() = default;

std::unique_ptr<SndCalculator::TermScratch> SndCalculator::TakeScratch()
    const {
  {
    const MutexLock lock(scratch_mu_);
    if (!spare_scratch_.empty()) {
      std::unique_ptr<TermScratch> scratch = std::move(spare_scratch_.back());
      spare_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<TermScratch>(*this);
}

void SndCalculator::ReturnScratch(std::unique_ptr<TermScratch> scratch) const {
  if (scratch == nullptr) return;
  const MutexLock lock(scratch_mu_);
  spare_scratch_.push_back(std::move(scratch));
}

std::unique_ptr<SsspEngine> SndCalculator::MakeEngine() const {
  // The backend is already resolved, and the model's U bounds both the
  // forward and the reversed (permuted-forward) cost buffers, so one
  // engine serves every search of the calculator.
  return MakeSsspEngine(sssp_backend_, graph_->num_nodes(),
                        model_->MaxEdgeCost());
}

int64_t SndCalculator::DisconnectionCost() const {
  return static_cast<int64_t>(model_->MaxEdgeCost()) *
         static_cast<int64_t>(std::max(1, graph_->num_nodes()));
}

std::array<SndCalculator::TermSpec, 4> SndCalculator::MakeTermSpecs(
    const NetworkState& a, const NetworkState& b) const {
  return {{
      {&a, &a, &b, Opinion::kPositive, true},
      {&a, &a, &b, Opinion::kNegative, true},
      {&b, &b, &a, Opinion::kPositive, false},
      {&b, &b, &a, Opinion::kNegative, false},
  }};
}

SndResult SndCalculator::Compute(const NetworkState& a,
                                 const NetworkState& b) const {
  SND_CHECK(a.num_users() == graph_->num_nodes());
  SND_CHECK(b.num_users() == graph_->num_nodes());
  Stopwatch watch;
  SndResult result;
  result.n_delta = NetworkState::CountDiffering(a, b);
  const auto specs = MakeTermSpecs(a, b);
  RunTermJobs(static_cast<int64_t>(specs.size()),
              [&](int64_t t, TermScratch* scratch) {
                result.terms[static_cast<size_t>(t)] = ComputeTermFast(
                    specs[static_cast<size_t>(t)], TermContext{}, scratch);
              });
  for (const SndTermResult& term : result.terms) result.value += term.cost;
  result.value *= 0.5;
  result.total_seconds = watch.ElapsedSeconds();
  return result;
}

double SndCalculator::Distance(const NetworkState& a,
                               const NetworkState& b) const {
  return Compute(a, b).value;
}

std::vector<double> SndCalculator::BatchDistances(
    const std::vector<NetworkState>& states, const StatePairs& pairs) const {
  EdgeCostCache cache(*this, &states);
  return BatchDistances(states, pairs, &cache);
}

std::vector<double> SndCalculator::BatchDistances(
    const std::vector<NetworkState>& states, const StatePairs& pairs,
    EdgeCostCache* cache) const {
  SND_CHECK(cache != nullptr);
  // A cache built over a different vector would serve costs of the wrong
  // states; this is the misuse SND_CHECK can catch.
  SND_CHECK(cache->states() == &states);
  cache->EnsureStates();
  for (const NetworkState& state : states) {
    SND_CHECK(state.num_users() == graph_->num_nodes());
  }
  ValidateStatePairs(pairs, static_cast<int32_t>(states.size()));
  std::vector<double> values(pairs.size(), 0.0);
  if (pairs.empty()) return values;

  // One job per (pair, term); each pair's four costs are then summed in
  // spec order, as Compute() sums them, so every value is bitwise
  // identical to Compute() regardless of the thread count.
  constexpr size_t kTerms = 4;
  std::vector<double> costs(pairs.size() * kTerms);
  RunTermJobs(static_cast<int64_t>(costs.size()),
              [&](int64_t job, TermScratch* scratch) {
                const auto [i, j] = pairs[static_cast<size_t>(job) / kTerms];
                const size_t t = static_cast<size_t>(job) % kTerms;
                const auto specs =
                    MakeTermSpecs(states[static_cast<size_t>(i)],
                                  states[static_cast<size_t>(j)]);
                TermContext ctx;
                ctx.cache = cache;
                ctx.distance_state_index = specs[t].forward ? i : j;
                costs[static_cast<size_t>(job)] =
                    ComputeTermFast(specs[t], ctx, scratch).cost;
              });
  for (size_t k = 0; k < pairs.size(); ++k) {
    double value = 0.0;
    for (size_t t = 0; t < kTerms; ++t) value += costs[k * kTerms + t];
    values[k] = 0.5 * value;
  }
  return values;
}

void SndCalculator::RunTermJobs(
    int64_t num_jobs,
    const std::function<void(int64_t, TermScratch*)>& job) const {
  ThreadPool& pool = ThreadPool::Global();
  // Per-lane scratch, taken on first use so only the lanes that actually
  // run hold an O(n) workspace.
  std::vector<std::unique_ptr<TermScratch>> scratch(
      static_cast<size_t>(pool.num_threads()));
  pool.ParallelFor(num_jobs, [&](int64_t k, int32_t slot) {
    std::unique_ptr<TermScratch>& lane = scratch[static_cast<size_t>(slot)];
    if (lane == nullptr) lane = TakeScratch();
    job(k, lane.get());
  });
  for (std::unique_ptr<TermScratch>& lane : scratch) {
    ReturnScratch(std::move(lane));
  }
}

DenseMatrix SndCalculator::PairwiseDistanceMatrix(
    const std::vector<NetworkState>& states) const {
  const auto n = static_cast<int32_t>(states.size());
  const StatePairs pairs = AllUnorderedPairs(n);
  const std::vector<double> values = BatchDistances(states, pairs);
  DenseMatrix d(n, n, 0.0);
  for (size_t k = 0; k < pairs.size(); ++k) {
    d.Set(pairs[k].first, pairs[k].second, values[k]);
    d.Set(pairs[k].second, pairs[k].first, values[k]);
  }
  return d;
}

std::vector<double> SndCalculator::AdjacentDistanceSeries(
    const std::vector<NetworkState>& states) const {
  SND_CHECK(states.size() >= 2);
  return BatchDistances(states,
                        AdjacentPairs(static_cast<int32_t>(states.size())));
}

BatchDistanceFn SndCalculator::BatchFn() const {
  return [this](const std::vector<NetworkState>& states,
                const StatePairs& pairs) {
    return BatchDistances(states, pairs);
  };
}

SndResult SndCalculator::ComputeReference(const NetworkState& a,
                                          const NetworkState& b) const {
  SND_CHECK(a.num_users() == graph_->num_nodes());
  SND_CHECK(b.num_users() == graph_->num_nodes());
  Stopwatch watch;
  SndResult result;
  result.n_delta = NetworkState::CountDiffering(a, b);
  const auto specs = MakeTermSpecs(a, b);
  for (size_t k = 0; k < specs.size(); ++k) {
    result.terms[k] = ComputeTermReference(specs[k]);
    result.value += result.terms[k].cost;
  }
  result.value *= 0.5;
  result.total_seconds = watch.ElapsedSeconds();
  return result;
}

DenseMatrix SndCalculator::GroundDistanceMatrix(const NetworkState& state,
                                                Opinion op) const {
  const int32_t n = graph_->num_nodes();
  std::vector<int32_t> costs;
  {
    const obs::ObsSpan span(obs::ObsPhase::kEdgeCost);
    obs::TraceCountEdgeCostBuild();
    model_->ComputeEdgeCosts(*graph_, state, op, &costs);
  }
  const auto disconnection = static_cast<double>(DisconnectionCost());
  DenseMatrix d(n, n, 0.0);
  auto compute_row = [&](int32_t u, SsspEngine* engine) {
    obs::TraceCountSsspRun();
    const SsspSource source{u, 0};
    const std::span<const int64_t> dist =
        engine->Run(*graph_, costs, std::span<const SsspSource>(&source, 1),
                    SsspGoal::AllNodes());
    for (int32_t v = 0; v < n; ++v) {
      d.Set(u, v,
            dist[static_cast<size_t>(v)] == kUnreachableDistance
                ? disconnection
                : static_cast<double>(dist[static_cast<size_t>(v)]));
    }
  };
  ThreadPool& pool = ThreadPool::Global();
  if (n > 1 && pool.num_threads() > 1 && !ThreadPool::InParallelRegion()) {
    std::vector<std::unique_ptr<SsspEngine>> engines(
        static_cast<size_t>(pool.num_threads()));
    pool.ParallelFor(n, [&](int64_t u, int32_t slot) {
      std::unique_ptr<SsspEngine>& engine = engines[static_cast<size_t>(slot)];
      if (engine == nullptr) engine = MakeEngine();
      compute_row(static_cast<int32_t>(u), engine.get());
    });
  } else {
    const std::unique_ptr<SsspEngine> engine = MakeEngine();
    for (int32_t u = 0; u < n; ++u) compute_row(u, engine.get());
  }
  return d;
}

SndTermResult SndCalculator::ComputeTermReference(const TermSpec& spec) const {
  SndTermResult result;
  result.op = spec.op;
  result.forward = spec.forward;
  const DenseMatrix ground = GroundDistanceMatrix(*spec.distance_state,
                                                  spec.op);
  const std::vector<double> p = spec.from->OpinionIndicator(spec.op);
  const std::vector<double> q = spec.to->OpinionIndicator(spec.op);
  const obs::ObsSpan transport_span(obs::ObsPhase::kTransport);
  obs::TraceCountTransportSolve();
  result.cost = ComputeEmdStar(p, q, ground, banks_, solver_);
  return result;
}

SndTermResult SndCalculator::ComputeTermFast(const TermSpec& spec,
                                             const TermContext& ctx,
                                             TermScratch* scratch) const {
  SndTermResult result;
  result.op = spec.op;
  result.forward = spec.forward;

  // Ground-distance edge costs for D(distance_state, op): from the batch
  // cache when one is attached, computed locally otherwise.
  std::vector<int32_t> local_costs;
  const std::vector<int32_t>* costs_ptr = nullptr;
  if (ctx.cache != nullptr) {
    costs_ptr = &ctx.cache->Costs(ctx.distance_state_index, spec.op);
  } else {
    const obs::ObsSpan span(obs::ObsPhase::kEdgeCost);
    obs::TraceCountEdgeCostBuild();
    model_->ComputeEdgeCosts(*graph_, *spec.distance_state, spec.op,
                             &local_costs);
    costs_ptr = &local_costs;
  }
  const std::vector<int32_t>& costs = *costs_ptr;

  std::vector<double> p = spec.from->OpinionIndicator(spec.op);
  std::vector<double> q = spec.to->OpinionIndicator(spec.op);
  const double total_p = HistogramTotal(p);
  const double total_q = HistogramTotal(q);
  const bool p_lighter = total_p < total_q;
  const bool q_lighter = total_q < total_p;

  // Bank capacities come from the *original* lighter histogram (the
  // Lemma 2 cancellation below applies to regular bins only).
  std::vector<double> bank_caps;
  if (p_lighter) {
    bank_caps = ComputeBankCapacities(banks_, p, total_q - total_p);
  } else if (q_lighter) {
    bank_caps = ComputeBankCapacities(banks_, q, total_p - total_q);
  }
  std::vector<int32_t> bank_ids;  // Flat bank indices with positive mass.
  for (size_t k = 0; k < bank_caps.size(); ++k) {
    if (bank_caps[k] > 0.0) bank_ids.push_back(static_cast<int32_t>(k));
  }
  result.num_banks = static_cast<int32_t>(bank_ids.size());

  // Lemma 2 + Lemma 1: only users whose op-indicator differs remain.
  CancelCommonMass(&p, &q);
  const std::vector<int32_t> sup = NonEmptyBins(p);
  const std::vector<int32_t> con = NonEmptyBins(q);
  result.num_suppliers = static_cast<int32_t>(sup.size());
  result.num_consumers = static_cast<int32_t>(con.size());
  if (sup.empty() && con.empty() && bank_ids.empty()) {
    return result;  // Identical op-indicators: zero cost.
  }

  const auto disconnection = static_cast<double>(DisconnectionCost());
  auto finite = [&](int64_t d) {
    return d == kUnreachableDistance ? disconnection
                                     : static_cast<double>(d);
  };
  const int32_t nb = banks_.banks_per_cluster();
  auto bank_cluster = [&](int32_t flat) { return flat / nb; };
  auto bank_gamma = [&](int32_t flat) {
    return banks_.gammas[static_cast<size_t>(flat / nb)]
                        [static_cast<size_t>(flat % nb)];
  };

  // Distinct clusters holding an active bank. A search from the plain
  // side reads only their minima, so only their members must be settled;
  // a search from the bank side starts once from each of them.
  std::vector<int32_t> bank_clusters;
  bank_clusters.reserve(bank_ids.size());
  for (int32_t bk : bank_ids) bank_clusters.push_back(bank_cluster(bk));
  std::sort(bank_clusters.begin(), bank_clusters.end());
  bank_clusters.erase(
      std::unique(bank_clusters.begin(), bank_clusters.end()),
      bank_clusters.end());

  // Minimum of dist_at(member) over each active cluster's members.
  auto cluster_minimum = [&](auto&& dist_at,
                             std::vector<int64_t>* cluster_min) {
    for (int32_t c : bank_clusters) {
      int64_t best = kUnreachableDistance;
      for (int32_t member : cluster_members_[static_cast<size_t>(c)]) {
        best = std::min(best, dist_at(member));
      }
      (*cluster_min)[static_cast<size_t>(c)] = best;
    }
  };

  // The cost matrix pairs a *plain* side (the side without banks: `con`
  // when p is lighter, `sup` otherwise) with a *bank* side (the other
  // side's bins, then the active banks). Its entries can be searched from
  // either side: one search per plain bin, or one per bank-side bin plus
  // one per active bank cluster, seeded at 0 from every member so that
  // its distance at a node is the cluster minimum. The term searches from
  // the side with fewer origins (the plain side on a tie), running over
  // the reversed graph when the origins are on the demand side. A single
  // search stops once the opposite side's entries are settled, a batched
  // one (below) settles every node; those entries are exact integers
  // either way, so the matrix is bitwise identical.
  const std::vector<int32_t>& plain = p_lighter ? con : sup;
  const std::vector<int32_t>& paired = p_lighter ? sup : con;
  const bool from_bank_side =
      paired.size() + bank_clusters.size() < plain.size();
  const bool reverse = p_lighter != from_bank_side;
  std::vector<int32_t> row_targets;
  if (!from_bank_side) {
    row_targets = paired;
    for (int32_t c : bank_clusters) {
      const std::vector<int32_t>& members =
          cluster_members_[static_cast<size_t>(c)];
      row_targets.insert(row_targets.end(), members.begin(), members.end());
    }
  }
  const SsspGoal goal =
      SsspGoal::SettleTargets(from_bank_side ? plain : row_targets);

  // Banks join the lighter side: the demand side unless p is lighter.
  std::vector<double> supply, demand;
  for (int32_t s : sup) supply.push_back(p[static_cast<size_t>(s)]);
  for (int32_t t : con) demand.push_back(q[static_cast<size_t>(t)]);
  for (int32_t bk : bank_ids) {
    (p_lighter ? supply : demand)
        .push_back(bank_caps[static_cast<size_t>(bk)]);
  }
  std::vector<double> cost(supply.size() * demand.size());
  // Entry (plain bin x, bank-side index y): y < paired.size() is a bin,
  // paired.size() + k is bank_ids[k].
  auto cell = [&, cols = demand.size()](size_t x, size_t y) -> double& {
    return p_lighter ? cost[y * cols + x] : cost[x * cols + y];
  };

  // The reversed-cost buffer also comes from the cache when attached,
  // instead of being rebuilt for every term of every pair.
  std::vector<int32_t> local_rev;
  const std::vector<int32_t>* search_costs = &costs;
  if (reverse && ctx.cache != nullptr) {
    search_costs = &ctx.cache->RevCosts(ctx.distance_state_index, spec.op);
  } else if (reverse) {
    local_rev.resize(costs.size());
    for (size_t e = 0; e < local_rev.size(); ++e) {
      local_rev[e] = costs[static_cast<size_t>(reverse_origin_[e])];
    }
    search_costs = &local_rev;
  }
  const Graph& search_graph = reverse ? reversed_ : *graph_;

  const size_t num_origins =
      from_bank_side ? paired.size() + bank_clusters.size() : plain.size();
  // Origin o's seeds: a bin, or every member of a bank cluster.
  auto origin_sources = [&](size_t o) -> std::span<const int32_t> {
    if (!from_bank_side) return {&plain[o], 1};
    if (o < paired.size()) return {&paired[o], 1};
    return cluster_members_[static_cast<size_t>(
        bank_clusters[o - paired.size()])];
  };
  // Fills origin o's rows or columns of `cost` from its distances
  // dist_at(node).
  auto write_origin = [&](size_t o, auto&& dist_at) {
    if (!from_bank_side) {
      cluster_minimum(dist_at, &scratch->cluster_min);
      for (size_t y = 0; y < paired.size(); ++y) {
        cell(o, y) = finite(dist_at(paired[y]));
      }
      for (size_t k = 0; k < bank_ids.size(); ++k) {
        const int32_t bk = bank_ids[k];
        cell(o, paired.size() + k) =
            bank_gamma(bk) + finite(scratch->cluster_min[static_cast<size_t>(
                                 bank_cluster(bk))]);
      }
    } else if (o < paired.size()) {
      for (size_t x = 0; x < plain.size(); ++x) {
        cell(x, o) = finite(dist_at(plain[x]));
      }
    } else {
      // This cluster's banks: a contiguous run of the sorted bank_ids.
      const int32_t c = bank_clusters[o - paired.size()];
      for (auto it = std::lower_bound(bank_ids.begin(), bank_ids.end(),
                                      c * nb);
           it != bank_ids.end() && bank_cluster(*it) == c; ++it) {
        const size_t y = paired.size() + static_cast<size_t>(
                                             it - bank_ids.begin());
        for (size_t x = 0; x < plain.size(); ++x) {
          cell(x, y) = bank_gamma(*it) + finite(dist_at(plain[x]));
        }
      }
    }
  };

  // The searches run in passes on this job's scratch: DialLaneEngine
  // sweeps of `width` lanes, then one target-pruned search per leftover
  // origin. A k-lane sweep costs as much as 2.2-3.1, 3.4-5.3, 7.2-8.0,
  // 7.2-9.4 and 9.6-11.3 single 64-target pruned searches for k = 1, 4,
  // 8, 16 and 32 (bench_sssp sssp.lanes.sweep_per_pruned, U=33, three
  // release runs on a 4-vCPU VM), so a sweep pays from about 8 lanes.
  // Each sweep carries min(32, origins) searches and runs only when that
  // is at least 8; a leftover of at least 8 origins takes one more sweep.
  // A term is one pool job (RunTermJobs), so the plan does not depend on
  // the thread count, and every pass writes only its own origins' rows
  // or columns of `cost`.
  constexpr size_t kMinLanes = 8;
  const size_t width =
      std::min<size_t>(DialLaneEngine::kMaxLanes, num_origins);
  size_t num_batches = 0;
  if (batch_searches_ && width >= kMinLanes) {
    num_batches = num_origins / width +
                  (num_origins % width >= kMinLanes ? 1 : 0);
  }
  const size_t batched = std::min(num_origins, num_batches * width);
  result.num_searches = static_cast<int32_t>(num_origins);
  result.num_passes =
      static_cast<int32_t>(num_batches + (num_origins - batched));

  for (size_t pass = 0; pass < num_batches; ++pass) {
    const size_t first = pass * width;
    const size_t count = std::min(width, num_origins - first);
    std::array<std::span<const int32_t>, DialLaneEngine::kMaxLanes>
        lane_sources;
    for (size_t l = 0; l < count; ++l) {
      lane_sources[l] = origin_sources(first + l);
    }
    if (scratch->lanes == nullptr) {
      scratch->lanes = std::make_unique<DialLaneEngine>(
          graph_->num_nodes(), model_->MaxEdgeCost());
    }
    DialLaneEngine& lanes = *scratch->lanes;
    obs::TraceCountSsspRun(static_cast<int64_t>(count));
    lanes.Run(search_graph, *search_costs,
              std::span(lane_sources.data(), count));
    for (size_t l = 0; l < count; ++l) {
      write_origin(first + l, [&](int32_t node) {
        return lanes.Distance(static_cast<int>(l), node);
      });
    }
  }
  for (size_t o = batched; o < num_origins; ++o) {
    std::vector<SsspSource>& sources = scratch->sources;
    sources.clear();
    for (int32_t node : origin_sources(o)) sources.push_back({node, 0});
    obs::TraceCountSsspRun();
    const std::span<const int64_t> dist =
        scratch->engine->Run(search_graph, *search_costs, sources, goal);
    write_origin(o, [&](int32_t node) {
      return dist[static_cast<size_t>(node)];
    });
  }
  const TransportProblem problem(std::move(supply), std::move(demand),
                                 std::move(cost));
  const obs::ObsSpan transport_span(obs::ObsPhase::kTransport);
  obs::TraceCountTransportSolve();
  result.cost = solver_.Solve(problem).total_cost;
  return result;
}

}  // namespace snd
