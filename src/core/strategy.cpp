#include "core/strategy.hpp"

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "util/error.hpp"

namespace linesearch {

Fleet SearchStrategy::build_unbounded_fleet() const {
  expects(false, [this] {
    return "build_unbounded_fleet: strategy '" + name() +
           "' does not support analytic (unbounded) schedules";
  });
  // expects(false, ...) always throws; build_fleet keeps working.
  return build_fleet(2);  // unreachable
}

StrategyPtr make_optimal_strategy(const int n, const int f) {
  expects(f >= 0 && f < n, "make_optimal_strategy: need 0 <= f < n");
  if (n >= 2 * f + 2) return std::make_unique<TwoGroupSplit>(n, f);
  return std::make_unique<ProportionalAlgorithm>(n, f);
}

}  // namespace linesearch
