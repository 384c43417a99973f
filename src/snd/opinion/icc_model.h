// Independent Cascade with Competition (Carnes et al.'s distance-based
// model, Section 3). The spreading probability of an edge <u, v> depends
// on whether u can be v's "frontier infector": whether u attains the
// shortest distance d_v(I) from the set I of active users to v.
//
// With the default unit edge distances, d_v({u}) for an in-neighbor u
// equals the edge distance, so the frontier test "d_uv == d_v(I)" is
// exact. For general edge distances it is an approximation: the exact
// test needs d_v({u}), one SSSP per edge, where the approximation reuses
// the one multi-source search for d_v(I).
//
// The paper's epsilon assigns a negligible probability to transitions the
// original model forbids, keeping all network states at finite distance.
#ifndef SND_OPINION_ICC_MODEL_H_
#define SND_OPINION_ICC_MODEL_H_

#include <optional>
#include <vector>

#include "snd/opinion/opinion_model.h"

namespace snd {

struct IccParams {
  EdgeCostParams edge = {};
  // Uniform activation probability p_uv; overridden per edge by
  // `edge_probabilities` when provided (CSR-aligned).
  double activation_probability = 0.5;
  std::optional<std::vector<double>> edge_probabilities;
  // Integer edge distances d_uv used for d_v(I); defaults to 1 per edge.
  std::optional<std::vector<int32_t>> edge_distances;
  // Negligible probability for events the original model posits as
  // impossible.
  double epsilon = 1e-3;
};

class IccModel final : public OpinionModel {
 public:
  explicit IccModel(IccParams params = {});

  void ComputeEdgeCosts(const Graph& g, const NetworkState& state, Opinion op,
                        std::vector<int32_t>* costs) const override;
  int32_t MaxEdgeCost() const override;
  const char* name() const override { return "independent-cascade"; }

  const IccParams& params() const { return params_; }

 private:
  double EdgeProbability(int64_t e) const;
  int32_t EdgeDistance(int64_t e) const;

  IccParams params_;
};

}  // namespace snd

#endif  // SND_OPINION_ICC_MODEL_H_
