// Interference-aware DVFS policy.
//
// P-states change under power/thermal pressure (Section IV-A4), and the
// paper's models take the per-P-state baseline as input precisely so that
// predictions remain valid across the DVFS ladder. This module closes the
// loop: given a deadline for a target application and a known co-location,
// pick the slowest (lowest-power) P-state whose *predicted co-located*
// execution time still meets the deadline — naive policies that consult
// only the baseline time miss deadlines once interference appears.
#pragma once

#include <cstddef>
#include <vector>

#include "core/methodology.hpp"
#include "sched/energy.hpp"

namespace coloc::sched {

struct DvfsDecision {
  bool feasible = false;        // some P-state meets the deadline
  std::size_t pstate_index = 0;  // chosen state (P0 when infeasible)
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;  // target's share of package energy
                                    // (NaN if P0's time is unusable)
};

/// Chooses the most efficient P-state meeting `deadline_s` for `target`
/// co-located with `coapps` (their baselines), using the trained model for
/// time and the DVFS power model for energy. When no state meets the
/// deadline, returns infeasible with the P0 prediction filled in. A
/// non-finite or non-positive predicted time makes its state infeasible;
/// when P0's is one, the fallback reports a NaN energy.
DvfsDecision choose_pstate_for_deadline(
    const sim::MachineConfig& machine,
    const core::ColocationPredictor& predictor,
    const core::BaselineProfile& target,
    const std::vector<const core::BaselineProfile*>& coapps,
    double deadline_s);

/// The naive comparator: same policy but consulting only the target's
/// run-alone baseline time (what a co-location-blind manager would do).
/// Exposed so examples/benches can show how often it violates deadlines.
DvfsDecision choose_pstate_baseline_only(
    const sim::MachineConfig& machine, const core::BaselineProfile& target,
    std::size_t num_coapps, double deadline_s);

}  // namespace coloc::sched
