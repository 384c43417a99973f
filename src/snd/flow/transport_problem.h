// Balanced transportation problem: the optimization core underlying every
// EMD variant in this library (Section 2, Eq. 1 of the paper).
//
// The problem ships `supply` mass from suppliers to consumers over a dense
// cost matrix, minimizing total cost. All EMD variants reduce to a
// *balanced* instance (total supply == total demand): the unbalanced
// Rubner EMD adds a zero-cost dummy consumer, EMDalpha/EMD* add bank bins.
#ifndef SND_FLOW_TRANSPORT_PROBLEM_H_
#define SND_FLOW_TRANSPORT_PROBLEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "snd/util/check.h"

namespace snd {

// Relative tolerance used when validating balance and conservation of
// real-valued masses.
inline constexpr double kMassTolerance = 1e-7;

class TransportProblem {
 public:
  TransportProblem() = default;

  // Takes ownership of a row-major `cost` matrix with
  // supply.size() * demand.size() entries. Supplies and demands must be
  // non-negative and balanced within kMassTolerance (relative).
  TransportProblem(std::vector<double> supply, std::vector<double> demand,
                   std::vector<double> cost);

  int32_t num_suppliers() const { return static_cast<int32_t>(supply_.size()); }
  int32_t num_consumers() const { return static_cast<int32_t>(demand_.size()); }

  double supply(int32_t i) const { return supply_[static_cast<size_t>(i)]; }
  double demand(int32_t j) const { return demand_[static_cast<size_t>(j)]; }
  const std::vector<double>& supplies() const { return supply_; }
  const std::vector<double>& demands() const { return demand_; }
  // Row-major, num_suppliers() x num_consumers().
  const std::vector<double>& costs() const { return cost_; }

  double Cost(int32_t i, int32_t j) const {
    SND_DCHECK(0 <= i && i < num_suppliers());
    SND_DCHECK(0 <= j && j < num_consumers());
    return cost_[static_cast<size_t>(i) * static_cast<size_t>(num_consumers()) +
                 static_cast<size_t>(j)];
  }

  double total_mass() const { return total_supply_; }

  // Largest cost entry; 0 for an empty matrix.
  double MaxCost() const;

  // True when every cost / every mass is integral within kMassTolerance.
  // The cost-scaling and oracle reference solvers require integral data;
  // SND's proportional bank capacities are real-valued, so its terms go
  // to the simplex instead.
  bool HasIntegralCosts() const;
  bool HasIntegralMasses() const;

 private:
  std::vector<double> supply_;
  std::vector<double> demand_;
  std::vector<double> cost_;
  double total_supply_ = 0.0;
};

// One positive entry of a transportation plan.
struct FlowEntry {
  int32_t supplier = 0;
  int32_t consumer = 0;
  double amount = 0.0;
};

struct TransportPlan {
  std::vector<FlowEntry> flows;
  double total_cost = 0.0;
};

// Verifies that `plan` ships every supply to every demand (within the
// relative tolerance) and that total_cost matches the flows. On failure
// returns false and, if `error` is non-null, a human-readable reason.
bool ValidatePlan(const TransportProblem& problem, const TransportPlan& plan,
                  std::string* error);

}  // namespace snd

#endif  // SND_FLOW_TRANSPORT_PROBLEM_H_
