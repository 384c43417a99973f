#include "snd/flow/simplex_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "snd/flow/ssp_solver.h"

namespace snd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int8_t kUp = 1;     // The tree arc runs from the node to its parent.
constexpr int8_t kDown = -1;  // The tree arc runs from the parent to the node.
constexpr int64_t kArtificial = -1;

// Primal network simplex on the transportation network: suppliers are
// nodes [0, S), consumer j is node S + j, and node S + T is an artificial
// root. The spanning tree is kept in the usual per-node arrays: every
// non-root node u owns the tree arc to parent_[u] - the cell pred_[u]
// (i * T + j) or its artificial arc to the root - together with that
// arc's direction and flow. thread_ lists the nodes in preorder, so a
// subtree is the thread run from its root to last_succ_.
class NetworkSimplex {
 public:
  explicit NetworkSimplex(const TransportProblem& problem)
      : cost_(problem.costs().data()),
        S_(problem.num_suppliers()),
        T_(problem.num_consumers()),
        root_(S_ + T_),
        cells_(static_cast<int64_t>(S_) * T_),
        max_cost_(problem.MaxCost()),
        tol_(1e-9 * (1.0 + max_cost_)),
        // Large enough that no real path is dearer than an artificial
        // one, so optimality drives every artificial arc to zero flow.
        art_cost_((max_cost_ + 1.0) * (root_ + 1)),
        block_(std::max<int64_t>(
            10, std::llround(std::sqrt(static_cast<double>(cells_))))) {
    const auto n = static_cast<size_t>(root_) + 1;
    parent_.resize(n);
    pred_.assign(n, kArtificial);
    dir_.resize(n);
    flow_.resize(n);
    pi_.assign(n, 0.0);
    thread_.resize(n);
    rev_thread_.resize(n);
    succ_num_.assign(n, 1);
    last_succ_.resize(n);
    // Every node hangs off the root by its artificial arc: suppliers (and
    // empty bins) send their mass up at cost 0, consumers receive theirs
    // down at art_cost_. Zero-flow arcs point up, so the tree is strongly
    // feasible: every node can push positive flow to the root.
    for (int32_t u = 0; u < root_; ++u) {
      const auto k = static_cast<size_t>(u);
      const bool demand = u >= S_ && problem.demand(u - S_) > 0.0;
      parent_[k] = root_;
      dir_[k] = demand ? kDown : kUp;
      flow_[k] = u < S_ ? problem.supply(u) : problem.demand(u - S_);
      if (demand) pi_[k] = art_cost_;
      thread_[k] = u + 1;
      rev_thread_[k + 1] = u;
      last_succ_[k] = u;
    }
    parent_[n - 1] = -1;
    thread_[n - 1] = 0;
    rev_thread_[0] = root_;
    succ_num_[n - 1] = root_ + 1;
    last_succ_[n - 1] = root_ - 1;
  }

  // Returns true and fills `plan` at optimality; false if the pivot cap
  // was exceeded (the caller falls back to SSP).
  bool Run(TransportPlan* plan) {
    const int64_t max_pivots =
        200 + 64 * static_cast<int64_t>(root_) *
                  std::max<int64_t>(1, std::llround(std::log2(2.0 + root_)));
    for (int64_t pivots = 0; FindEnteringArc(); ++pivots) {
      if (pivots > max_pivots) return false;
      Pivot();
    }
    plan->flows.clear();
    plan->total_cost = 0.0;
    for (int32_t u = 0; u < root_; ++u) {
      const auto k = static_cast<size_t>(u);
      if (pred_[k] == kArtificial || flow_[k] <= 0.0) continue;
      const auto i = static_cast<int32_t>(pred_[k] / T_);
      const auto j = static_cast<int32_t>(pred_[k] % T_);
      plan->flows.push_back({i, j, flow_[k]});
      plan->total_cost += flow_[k] * cost_[pred_[k]];
    }
    return true;
  }

 private:
  // Block pricing: scans the cost matrix cyclically from the cursor in
  // blocks of block_ cells and takes the most negative reduced cost of
  // the first block that has one. Tree cells price at zero and so never
  // qualify, which is what lets the tree live without per-cell state.
  bool FindEnteringArc() {
    const double* pi_t = pi_.data() + S_;
    double best = -tol_;
    int64_t found = -1;
    int64_t e = next_arc_;
    int64_t budget = block_;
    for (int64_t scanned = 0; scanned < cells_;) {
      const auto i = static_cast<int32_t>(e / T_);
      const auto j0 = static_cast<int32_t>(e % T_);
      const auto j1 = static_cast<int32_t>(
          j0 + std::min({static_cast<int64_t>(T_ - j0), budget,
                         cells_ - scanned}));
      const double* row = cost_ + static_cast<int64_t>(i) * T_;
      const double pi_i = pi_[static_cast<size_t>(i)];
      for (int32_t j = j0; j < j1; ++j) {
        const double rc = row[j] + pi_i - pi_t[j];
        if (rc < best) {
          best = rc;
          found = static_cast<int64_t>(i) * T_ + j;
        }
      }
      scanned += j1 - j0;
      budget -= j1 - j0;
      e += j1 - j0;
      if (e == cells_) e = 0;
      if (budget == 0) {
        if (found >= 0) break;
        budget = block_;
      }
    }
    if (found < 0) return false;
    next_arc_ = e;
    in_arc_ = found;
    return true;
  }

  int32_t Parent(int32_t u) const { return parent_[static_cast<size_t>(u)]; }

  void Pivot() {
    const auto source = static_cast<int32_t>(in_arc_ / T_);
    const auto target = static_cast<int32_t>(S_ + in_arc_ % T_);
    int32_t u = source, v = target;
    while (u != v) {
      if (succ_num_[static_cast<size_t>(u)] <
          succ_num_[static_cast<size_t>(v)]) {
        u = Parent(u);
      } else {
        v = Parent(v);
      }
    }
    join_ = u;

    // Leaving arc, by the strongly feasible rule: the last blocking arc
    // met when walking the cycle in the entering direction from the join
    // node ('<' on the source side, '<=' on the target side). Only arcs
    // the cycle flow runs against can block; every cycle has one, since
    // the network is acyclic.
    double delta = kInf;
    bool out_on_source_side = true;
    for (int32_t w = source; w != join_; w = Parent(w)) {
      const auto k = static_cast<size_t>(w);
      if (dir_[k] == kUp && flow_[k] < delta) {
        delta = flow_[k];
        u_out_ = w;
      }
    }
    for (int32_t w = target; w != join_; w = Parent(w)) {
      const auto k = static_cast<size_t>(w);
      if (dir_[k] == kDown && flow_[k] <= delta) {
        delta = flow_[k];
        u_out_ = w;
        out_on_source_side = false;
      }
    }
    SND_DCHECK(delta < kInf);
    u_in_ = out_on_source_side ? source : target;
    v_in_ = out_on_source_side ? target : source;

    if (delta > 0.0) {
      // flow >= delta on every blocking arc, so none goes negative and
      // the leaving arc's drops to exactly zero.
      for (int32_t w = source; w != join_; w = Parent(w)) {
        const auto k = static_cast<size_t>(w);
        flow_[k] -= dir_[k] * delta;
      }
      for (int32_t w = target; w != join_; w = Parent(w)) {
        const auto k = static_cast<size_t>(w);
        flow_[k] += dir_[k] * delta;
      }
    }
    UpdateTree(source, delta);
    UpdatePotentials();
  }

  // Swaps the leaving arc (above u_out_) for the entering one (u_in_ ->
  // v_in_): the stem u_in_ .. u_out_ reverses, and the subtree of u_out_
  // moves under v_in_ in the thread. LEMON's O(stem + thread splice)
  // update of thread_, rev_thread_, succ_num_ and last_succ_.
  void UpdateTree(int32_t source, double delta) {
    auto at = [](std::vector<int32_t>& a, int32_t u) -> int32_t& {
      return a[static_cast<size_t>(u)];
    };
    const int32_t old_rev_thread = at(rev_thread_, u_out_);
    const int32_t old_succ_num = at(succ_num_, u_out_);
    const int32_t old_last_succ = at(last_succ_, u_out_);
    const int32_t v_out = at(parent_, u_out_);

    if (u_in_ == u_out_) {
      at(parent_, u_in_) = v_in_;
      if (at(thread_, v_in_) != u_out_) {
        int32_t after = at(thread_, old_last_succ);
        at(thread_, old_rev_thread) = after;
        at(rev_thread_, after) = old_rev_thread;
        after = at(thread_, v_in_);
        at(thread_, v_in_) = u_out_;
        at(rev_thread_, u_out_) = v_in_;
        at(thread_, old_last_succ) = after;
        at(rev_thread_, after) = old_last_succ;
      }
    } else {
      // When u_out_ directly follows v_in_ in the thread, join_ == v_out.
      const int32_t thread_continue = old_rev_thread == v_in_
                                          ? at(thread_, old_last_succ)
                                          : at(thread_, v_in_);
      // Re-hang the stem nodes one by one, each under the previous one.
      int32_t stem = u_in_;
      int32_t par_stem = v_in_;
      int32_t last = at(last_succ_, u_in_);
      int32_t after = at(thread_, last);
      at(thread_, v_in_) = u_in_;
      dirty_revs_.clear();
      dirty_revs_.push_back(v_in_);
      while (stem != u_out_) {
        const int32_t next_stem = at(parent_, stem);
        at(thread_, last) = next_stem;
        dirty_revs_.push_back(last);
        const int32_t before = at(rev_thread_, stem);
        at(thread_, before) = after;
        at(rev_thread_, after) = before;
        at(parent_, stem) = par_stem;
        par_stem = stem;
        stem = next_stem;
        last = at(last_succ_, stem) == at(last_succ_, par_stem)
                   ? at(rev_thread_, par_stem)
                   : at(last_succ_, stem);
        after = at(thread_, last);
      }
      at(parent_, u_out_) = par_stem;
      at(thread_, last) = thread_continue;
      at(rev_thread_, thread_continue) = last;
      at(last_succ_, u_out_) = last;
      if (old_rev_thread != v_in_) {
        at(thread_, old_rev_thread) = after;
        at(rev_thread_, after) = old_rev_thread;
      }
      for (int32_t w : dirty_revs_) at(rev_thread_, at(thread_, w)) = w;

      // Each stem node takes over the arc to its new parent (the old arc
      // of that parent, reversed), walking down from u_out_.
      int32_t tmp_sc = 0;
      const int32_t tmp_ls = at(last_succ_, u_out_);
      for (int32_t w = u_out_, p = at(parent_, w); w != u_in_;
           w = p, p = at(parent_, w)) {
        const auto k = static_cast<size_t>(w);
        const auto kp = static_cast<size_t>(p);
        pred_[k] = pred_[kp];
        dir_[k] = static_cast<int8_t>(-dir_[kp]);
        flow_[k] = flow_[kp];
        tmp_sc += succ_num_[k] - succ_num_[kp];
        succ_num_[k] = tmp_sc;
        last_succ_[kp] = tmp_ls;
      }
      at(succ_num_, u_in_) = old_succ_num;
    }
    pred_[static_cast<size_t>(u_in_)] = in_arc_;
    dir_[static_cast<size_t>(u_in_)] = u_in_ == source ? kUp : kDown;
    flow_[static_cast<size_t>(u_in_)] = delta;

    // last_succ_ and succ_num_ up the two paths to the join node.
    const int32_t up_limit_out = at(last_succ_, join_) == v_in_ ? join_ : -1;
    const int32_t last_succ_out = at(last_succ_, u_out_);
    for (int32_t w = v_in_; w != -1 && at(last_succ_, w) == v_in_;
         w = at(parent_, w)) {
      at(last_succ_, w) = last_succ_out;
    }
    const int32_t fix = join_ != old_rev_thread && v_in_ != old_rev_thread
                            ? old_rev_thread
                            : last_succ_out;
    if (fix != old_last_succ) {
      for (int32_t w = v_out;
           w != up_limit_out && at(last_succ_, w) == old_last_succ;
           w = at(parent_, w)) {
        at(last_succ_, w) = fix;
      }
    }
    for (int32_t w = v_in_; w != join_; w = at(parent_, w)) {
      at(succ_num_, w) += old_succ_num;
    }
    for (int32_t w = v_out; w != join_; w = at(parent_, w)) {
      at(succ_num_, w) -= old_succ_num;
    }
  }

  // Only the moved subtree (rooted at u_in_) changes potential.
  void UpdatePotentials() {
    const auto k = static_cast<size_t>(u_in_);
    const double sigma = pi_[static_cast<size_t>(v_in_)] - pi_[k] -
                         dir_[k] * cost_[in_arc_];
    const int32_t end = thread_[static_cast<size_t>(last_succ_[k])];
    for (int32_t w = u_in_; w != end; w = thread_[static_cast<size_t>(w)]) {
      pi_[static_cast<size_t>(w)] += sigma;
    }
  }

  const double* const cost_;
  const int32_t S_;
  const int32_t T_;
  const int32_t root_;
  const int64_t cells_;
  const double max_cost_;
  const double tol_;  // Price tolerance.
  const double art_cost_;
  const int64_t block_;
  int64_t next_arc_ = 0;

  std::vector<int32_t> parent_;
  std::vector<int64_t> pred_;
  std::vector<int8_t> dir_;
  std::vector<double> flow_;
  std::vector<double> pi_;
  std::vector<int32_t> thread_, rev_thread_, succ_num_, last_succ_;
  std::vector<int32_t> dirty_revs_;

  // The current pivot.
  int64_t in_arc_ = 0;
  int32_t join_ = 0, u_in_ = 0, v_in_ = 0, u_out_ = 0;
};

}  // namespace

TransportPlan SimplexSolver::Solve(const TransportProblem& problem) const {
  TransportPlan plan;
  if (problem.num_suppliers() == 0 || problem.num_consumers() == 0 ||
      problem.total_mass() <= 0.0) {
    return plan;
  }
  NetworkSimplex simplex(problem);
  if (simplex.Run(&plan)) return plan;
  // Pivot cap exceeded (a guard against floating-point stalling); the SSP
  // solver is slower but unconditionally exact.
  return SspSolver().Solve(problem);
}

}  // namespace snd
