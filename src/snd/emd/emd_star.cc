#include "snd/emd/emd_star.h"

#include <algorithm>
#include <limits>

namespace snd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// min_{q in cluster c} ground(u, q) for every (u, c); `transpose` swaps the
// argument order to get distances *to* u from cluster members.
DenseMatrix MinDistanceToClusters(const DenseMatrix& ground,
                                  const BankSpec& banks, bool transpose) {
  const int32_t n = banks.num_bins();
  DenseMatrix result(n, banks.num_clusters, kInf);
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t q = 0; q < n; ++q) {
      const double d = transpose ? ground.At(q, u) : ground.At(u, q);
      const int32_t c = banks.cluster_of[static_cast<size_t>(q)];
      if (d < result.At(u, c)) result.Set(u, c, d);
    }
  }
  return result;
}

// min over p in cluster a, q in cluster c of ground(p, q); 0 on the
// diagonal by the identity of indiscernibles.
DenseMatrix ClusterDistances(const DenseMatrix& ground, const BankSpec& banks) {
  DenseMatrix d(banks.num_clusters, banks.num_clusters, kInf);
  const int32_t n = banks.num_bins();
  for (int32_t p = 0; p < n; ++p) {
    const int32_t a = banks.cluster_of[static_cast<size_t>(p)];
    for (int32_t q = 0; q < n; ++q) {
      const int32_t c = banks.cluster_of[static_cast<size_t>(q)];
      if (ground.At(p, q) < d.At(a, c)) d.Set(a, c, ground.At(p, q));
    }
  }
  for (int32_t c = 0; c < banks.num_clusters; ++c) d.Set(c, c, 0.0);
  return d;
}

}  // namespace

ExtendedProblem BuildExtendedProblem(const std::vector<double>& p,
                                     const std::vector<double>& q,
                                     const DenseMatrix& ground,
                                     const BankSpec& banks,
                                     const EmdStarOptions& options) {
  const int32_t n = banks.num_bins();
  SND_CHECK(static_cast<int32_t>(p.size()) == n);
  SND_CHECK(static_cast<int32_t>(q.size()) == n);
  SND_CHECK(ground.rows() == n && ground.cols() == n);
  banks.Validate();

  double total_p = 0.0, total_q = 0.0;
  for (double v : p) total_p += v;
  for (double v : q) total_q += v;

  ExtendedProblem ext;
  ext.p_tilde = p;
  ext.q_tilde = q;
  const int32_t num_banks = banks.num_banks();
  // Default: the lighter histogram's banks absorb the mismatch and the
  // heavier's banks stay empty (removed by Lemma 1 during the solve).
  // With common_total_mass set, both sides are topped up to M.
  std::vector<double> p_banks(static_cast<size_t>(num_banks), 0.0);
  std::vector<double> q_banks(static_cast<size_t>(num_banks), 0.0);
  const double target = options.common_total_mass.has_value()
                            ? *options.common_total_mass
                            : std::max(total_p, total_q);
  SND_CHECK(target >= std::max(total_p, total_q) -
                          1e-9 * (1.0 + std::max(total_p, total_q)));
  if (target > total_p) {
    p_banks = ComputeBankCapacities(banks, p, target - total_p);
  }
  if (target > total_q) {
    q_banks = ComputeBankCapacities(banks, q, target - total_q);
  }
  ext.p_tilde.insert(ext.p_tilde.end(), p_banks.begin(), p_banks.end());
  ext.q_tilde.insert(ext.q_tilde.end(), q_banks.begin(), q_banks.end());

  // Extended ground distance.
  const int32_t nb = banks.banks_per_cluster();
  const int32_t total_bins = n + num_banks;
  ext.d_tilde = DenseMatrix(total_bins, total_bins, 0.0);
  const DenseMatrix to_cluster =
      MinDistanceToClusters(ground, banks, /*transpose=*/false);
  const DenseMatrix from_cluster =
      MinDistanceToClusters(ground, banks, /*transpose=*/true);
  const DenseMatrix cluster_dist = ClusterDistances(ground, banks);

  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v = 0; v < n; ++v) {
      ext.d_tilde.Set(u, v, ground.At(u, v));
    }
  }
  for (int32_t c = 0; c < banks.num_clusters; ++c) {
    for (int32_t b = 0; b < nb; ++b) {
      const int32_t bank = n + banks.BankIndex(c, b);
      const double gamma = banks.gammas[static_cast<size_t>(c)]
                                       [static_cast<size_t>(b)];
      for (int32_t u = 0; u < n; ++u) {
        ext.d_tilde.Set(u, bank, gamma + to_cluster.At(u, c));
        ext.d_tilde.Set(bank, u, gamma + from_cluster.At(u, c));
      }
    }
  }
  for (int32_t a = 0; a < banks.num_clusters; ++a) {
    for (int32_t x = 0; x < nb; ++x) {
      const int32_t bank_ax = n + banks.BankIndex(a, x);
      const double gamma_ax =
          banks.gammas[static_cast<size_t>(a)][static_cast<size_t>(x)];
      for (int32_t c = 0; c < banks.num_clusters; ++c) {
        for (int32_t y = 0; y < nb; ++y) {
          const int32_t bank_cy = n + banks.BankIndex(c, y);
          if (bank_ax == bank_cy) {
            ext.d_tilde.Set(bank_ax, bank_cy, 0.0);
            continue;
          }
          const double gamma_cy =
              banks.gammas[static_cast<size_t>(c)][static_cast<size_t>(y)];
          ext.d_tilde.Set(bank_ax, bank_cy,
                          gamma_ax + gamma_cy + cluster_dist.At(a, c));
        }
      }
    }
  }
  return ext;
}

double ComputeEmdStar(const std::vector<double>& p,
                      const std::vector<double>& q, const DenseMatrix& ground,
                      const BankSpec& banks, const TransportSolver& solver,
                      const EmdStarOptions& options) {
  const ExtendedProblem ext =
      BuildExtendedProblem(p, q, ground, banks, options);

  // Lemma 1: keep only non-empty bins on each side.
  std::vector<int32_t> sup_ids, con_ids;
  std::vector<double> supply, demand;
  for (size_t i = 0; i < ext.p_tilde.size(); ++i) {
    if (ext.p_tilde[i] > 0.0) {
      sup_ids.push_back(static_cast<int32_t>(i));
      supply.push_back(ext.p_tilde[i]);
    }
  }
  for (size_t j = 0; j < ext.q_tilde.size(); ++j) {
    if (ext.q_tilde[j] > 0.0) {
      con_ids.push_back(static_cast<int32_t>(j));
      demand.push_back(ext.q_tilde[j]);
    }
  }
  if (supply.empty() || demand.empty()) {
    SND_CHECK(supply.empty() && demand.empty());  // Balance guarantees both.
    return 0.0;
  }
  const auto rows = static_cast<int32_t>(supply.size());
  const auto cols = static_cast<int32_t>(demand.size());
  std::vector<double> cost(static_cast<size_t>(rows) *
                           static_cast<size_t>(cols));
  for (int32_t i = 0; i < rows; ++i) {
    for (int32_t j = 0; j < cols; ++j) {
      cost[static_cast<size_t>(i) * static_cast<size_t>(cols) +
           static_cast<size_t>(j)] =
          ext.d_tilde.At(sup_ids[static_cast<size_t>(i)],
                         con_ids[static_cast<size_t>(j)]);
    }
  }
  const TransportProblem problem(std::move(supply), std::move(demand),
                                 std::move(cost));
  return solver.Solve(problem).total_cost;
}

}  // namespace snd
