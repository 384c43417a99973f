#include "snd/emd/banks.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace snd {

void BankSpec::Validate() const {
  SND_CHECK(num_clusters >= 0);
  SND_CHECK(static_cast<int32_t>(gammas.size()) == num_clusters);
  const int32_t nb = banks_per_cluster();
  for (const auto& g : gammas) {
    SND_CHECK(static_cast<int32_t>(g.size()) == nb);
    for (double v : g) SND_CHECK(v >= 0.0);
  }
  for (int32_t c : cluster_of) SND_CHECK(0 <= c && c < num_clusters);
}

BankSpec MakeSingleGlobalBank(int32_t num_bins, double gamma) {
  BankSpec spec;
  spec.cluster_of.assign(static_cast<size_t>(num_bins), 0);
  spec.num_clusters = 1;
  spec.gammas = {{gamma}};
  spec.Validate();
  return spec;
}

BankSpec MakePerBinBanks(int32_t num_bins, double gamma) {
  BankSpec spec;
  spec.cluster_of.resize(static_cast<size_t>(num_bins));
  std::iota(spec.cluster_of.begin(), spec.cluster_of.end(), 0);
  spec.num_clusters = num_bins;
  spec.gammas.assign(static_cast<size_t>(num_bins), {gamma});
  spec.Validate();
  return spec;
}

BankSpec MakeClusterBanks(const std::vector<int32_t>& labels,
                          int32_t banks_per_cluster, double gamma) {
  SND_CHECK(banks_per_cluster >= 1);
  BankSpec spec;
  spec.cluster_of.resize(labels.size());
  std::unordered_map<int32_t, int32_t> compact;
  for (size_t i = 0; i < labels.size(); ++i) {
    const auto [it, inserted] =
        compact.emplace(labels[i], static_cast<int32_t>(compact.size()));
    spec.cluster_of[i] = it->second;
  }
  spec.num_clusters = static_cast<int32_t>(compact.size());
  spec.gammas.assign(
      static_cast<size_t>(spec.num_clusters),
      std::vector<double>(static_cast<size_t>(banks_per_cluster), gamma));
  spec.Validate();
  return spec;
}

std::vector<double> ComputeBankCapacities(const BankSpec& banks,
                                          const std::vector<double>& histogram,
                                          double mismatch) {
  SND_CHECK(mismatch >= 0.0);
  SND_CHECK(static_cast<int32_t>(histogram.size()) == banks.num_bins());
  const int32_t nb = banks.banks_per_cluster();
  const int32_t num_banks = banks.num_banks();
  std::vector<double> capacities(static_cast<size_t>(num_banks), 0.0);
  if (num_banks == 0 || mismatch <= 0.0) {
    SND_CHECK(mismatch <= 0.0);  // A mismatch with no banks is an error.
    return capacities;
  }

  // Per-bank weights: cluster mass split evenly over the cluster's banks.
  std::vector<double> weights(static_cast<size_t>(num_banks), 0.0);
  double total = 0.0;
  for (int32_t bin = 0; bin < banks.num_bins(); ++bin) {
    const double m = histogram[static_cast<size_t>(bin)];
    SND_CHECK(m >= 0.0);
    const int32_t c = banks.cluster_of[static_cast<size_t>(bin)];
    for (int32_t b = 0; b < nb; ++b) {
      weights[static_cast<size_t>(banks.BankIndex(c, b))] +=
          m / static_cast<double>(nb);
    }
    total += m;
  }
  if (total <= 0.0) {
    // Empty histogram: spread the mismatch uniformly over all banks.
    std::fill(weights.begin(), weights.end(), 1.0);
    total = static_cast<double>(num_banks);
  }

  for (int32_t k = 0; k < num_banks; ++k) {
    capacities[static_cast<size_t>(k)] =
        mismatch * weights[static_cast<size_t>(k)] / total;
  }
  return capacities;
}

}  // namespace snd
