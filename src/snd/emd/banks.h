// Bank-bin machinery shared by EMDalpha and EMD* (Section 4 of the paper).
//
// A BankSpec assigns every histogram bin to a cluster and attaches one or
// more bank bins to each cluster, each with a ground distance gamma to the
// cluster's bins. Theorem 3 requires gamma(c) >= 1/2 * diameter(c) (w.r.t.
// the ground distance, within the cluster) for EMD* to remain metric.
//
// Bank capacities even out the total masses of the two histograms under
// comparison: the lighter histogram's banks receive the mass mismatch,
// distributed in proportion to the cluster masses. The paper's displayed
// capacity formula does not sum to the mismatch as stated; we implement the
// stated *requirements* (proportionality + exact balancing), which
// BankCapacitiesTest.ProportionalSumsToMismatch pins.
#ifndef SND_EMD_BANKS_H_
#define SND_EMD_BANKS_H_

#include <cstdint>
#include <vector>

#include "snd/util/check.h"

namespace snd {

struct BankSpec {
  // cluster_of[bin] in [0, num_clusters).
  std::vector<int32_t> cluster_of;
  int32_t num_clusters = 0;
  // gammas[c] holds the ground distances of cluster c's banks; all
  // clusters must carry the same number of banks (banks_per_cluster()).
  std::vector<std::vector<double>> gammas;

  int32_t num_bins() const { return static_cast<int32_t>(cluster_of.size()); }
  int32_t banks_per_cluster() const {
    return gammas.empty() ? 0 : static_cast<int32_t>(gammas.front().size());
  }
  int32_t num_banks() const { return num_clusters * banks_per_cluster(); }

  // Flat bank index of bank `b` of cluster `c` (banks are ordered by
  // cluster, then bank).
  int32_t BankIndex(int32_t c, int32_t b) const {
    return c * banks_per_cluster() + b;
  }

  // Aborts if the spec is malformed (out-of-range clusters, ragged or
  // negative gammas).
  void Validate() const;
};

// One bank covering all bins: the EMDalpha configuration. `gamma` is the
// bank's ground distance (alpha * max D in EMDalpha terms).
BankSpec MakeSingleGlobalBank(int32_t num_bins, double gamma);

// One bank per bin, each with the same gamma.
BankSpec MakePerBinBanks(int32_t num_bins, double gamma);

// One bank per cluster from a labeling (labels need not be contiguous;
// they are compacted). Every cluster receives `banks_per_cluster` banks
// with the given gamma.
BankSpec MakeClusterBanks(const std::vector<int32_t>& labels,
                          int32_t banks_per_cluster, double gamma);

// Computes per-bank capacities summing to `mismatch` (>= 0), exactly
// proportional to the cluster masses of `histogram` (uniform across each
// cluster's banks; uniform across all banks when the histogram is
// empty). The capacities are real-valued, which the simplex accepts.
std::vector<double> ComputeBankCapacities(const BankSpec& banks,
                                          const std::vector<double>& histogram,
                                          double mismatch);

}  // namespace snd

#endif  // SND_EMD_BANKS_H_
