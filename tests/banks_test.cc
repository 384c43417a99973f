#include "snd/emd/banks.h"

#include <numeric>

#include <gtest/gtest.h>

#include "snd/util/random.h"

namespace snd {
namespace {

TEST(BankSpecTest, Factories) {
  const BankSpec global = MakeSingleGlobalBank(5, 2.5);
  EXPECT_EQ(global.num_clusters, 1);
  EXPECT_EQ(global.num_banks(), 1);
  EXPECT_EQ(global.banks_per_cluster(), 1);
  EXPECT_DOUBLE_EQ(global.gammas[0][0], 2.5);

  const BankSpec per_bin = MakePerBinBanks(4, 1.0);
  EXPECT_EQ(per_bin.num_clusters, 4);
  EXPECT_EQ(per_bin.num_banks(), 4);
  for (int32_t i = 0; i < 4; ++i) EXPECT_EQ(per_bin.cluster_of[i], i);

  const BankSpec clustered =
      MakeClusterBanks({7, 7, 9, 9, 7}, /*banks_per_cluster=*/2, 3.0);
  EXPECT_EQ(clustered.num_clusters, 2);
  EXPECT_EQ(clustered.num_banks(), 4);
  EXPECT_EQ(clustered.cluster_of[0], clustered.cluster_of[1]);
  EXPECT_EQ(clustered.cluster_of[0], clustered.cluster_of[4]);
  EXPECT_NE(clustered.cluster_of[0], clustered.cluster_of[2]);
}

TEST(BankSpecTest, BankIndexLayout) {
  const BankSpec spec = MakeClusterBanks({0, 1, 2}, 3, 1.0);
  EXPECT_EQ(spec.BankIndex(0, 0), 0);
  EXPECT_EQ(spec.BankIndex(0, 2), 2);
  EXPECT_EQ(spec.BankIndex(1, 0), 3);
  EXPECT_EQ(spec.BankIndex(2, 1), 7);
}

TEST(BankCapacitiesTest, ProportionalSumsToMismatch) {
  const BankSpec spec = MakeClusterBanks({0, 0, 1, 1}, 1, 1.0);
  const std::vector<double> histogram{3.0, 1.0, 2.0, 0.0};  // Clusters: 4, 2.
  const auto caps = ComputeBankCapacities(spec, histogram, 3.0);
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_NEAR(caps[0], 2.0, 1e-12);  // 3 * 4/6.
  EXPECT_NEAR(caps[1], 1.0, 1e-12);  // 3 * 2/6.
}

TEST(BankCapacitiesTest, EmptyHistogramSpreadsUniformly) {
  const BankSpec spec = MakeClusterBanks({0, 0, 1, 1}, 1, 1.0);
  const std::vector<double> histogram{0.0, 0.0, 0.0, 0.0};
  const auto caps = ComputeBankCapacities(spec, histogram, 2.0);
  EXPECT_NEAR(caps[0], 1.0, 1e-12);
  EXPECT_NEAR(caps[1], 1.0, 1e-12);
}

TEST(BankCapacitiesTest, ZeroMismatchZeroCapacities) {
  const BankSpec spec = MakeClusterBanks({0, 1}, 1, 1.0);
  const auto caps = ComputeBankCapacities(spec, {1.0, 1.0}, 0.0);
  for (double c : caps) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(BankCapacitiesTest, MultipleBanksSplitClusterMass) {
  const BankSpec spec = MakeClusterBanks({0, 0}, 2, 1.0);
  const std::vector<double> histogram{4.0, 0.0};
  const auto caps = ComputeBankCapacities(spec, histogram, 6.0);
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_NEAR(caps[0], 3.0, 1e-12);
  EXPECT_NEAR(caps[1], 3.0, 1e-12);
}

TEST(BankCapacitiesTest, ProportionalKeepsFractionalShares) {
  // Equal clusters split a mismatch that their count does not divide:
  // every bank gets the same fractional share, none is rounded.
  const BankSpec spec = MakeClusterBanks({0, 1, 2}, 1, 1.0);
  const std::vector<double> histogram{1.0, 1.0, 1.0};
  const auto caps = ComputeBankCapacities(spec, histogram, 4.0);
  ASSERT_EQ(caps.size(), 3u);
  for (double c : caps) EXPECT_NEAR(c, 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(caps[0] + caps[1] + caps[2], 4.0, 1e-12);
}

TEST(BankCapacitiesTest, ProportionalSweep) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const int32_t clusters = 1 + static_cast<int32_t>(rng.UniformInt(0, 5));
    const int32_t banks_per_cluster =
        1 + static_cast<int32_t>(rng.UniformInt(0, 2));
    std::vector<int32_t> labels;
    std::vector<double> histogram;
    std::vector<double> cluster_mass(static_cast<size_t>(clusters), 0.0);
    for (int32_t c = 0; c < clusters; ++c) {
      const int32_t size = 1 + static_cast<int32_t>(rng.UniformInt(0, 3));
      for (int32_t k = 0; k < size; ++k) {
        labels.push_back(c);
        histogram.push_back(static_cast<double>(rng.UniformInt(0, 4)));
        cluster_mass[static_cast<size_t>(c)] += histogram.back();
      }
    }
    const BankSpec spec = MakeClusterBanks(labels, banks_per_cluster, 1.0);
    const double mismatch = static_cast<double>(rng.UniformInt(0, 12));
    const auto caps = ComputeBankCapacities(spec, histogram, mismatch);
    ASSERT_EQ(static_cast<int32_t>(caps.size()), spec.num_banks());
    const double total =
        std::accumulate(cluster_mass.begin(), cluster_mass.end(), 0.0);
    double sum = 0.0;
    for (int32_t c = 0; c < clusters; ++c) {
      // Labels are already contiguous, so cluster c keeps its index.
      const double share =
          total > 0.0 ? cluster_mass[static_cast<size_t>(c)] / total
                      : 1.0 / static_cast<double>(clusters);
      for (int32_t b = 0; b < banks_per_cluster; ++b) {
        const double cap = caps[static_cast<size_t>(spec.BankIndex(c, b))];
        EXPECT_GE(cap, 0.0);
        EXPECT_NEAR(cap, mismatch * share / banks_per_cluster, 1e-12)
            << "trial=" << trial << " c=" << c << " b=" << b;
        sum += cap;
      }
    }
    EXPECT_NEAR(sum, mismatch, 1e-12 * (1.0 + mismatch)) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace snd
