#include "sched/dvfs_policy.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace coloc::sched {

namespace {

/// Target's share of package energy over its own execution window.
double shared_energy(const sim::MachineConfig& machine, std::size_t pstate,
                     std::size_t active_cores, double duration_s) {
  return energy_j(machine, pstate, active_cores, duration_s) /
         static_cast<double>(active_cores);
}

/// A model can extrapolate to a non-positive or NaN time; such a
/// prediction says nothing about the state, so it can neither meet a
/// deadline nor price one.
bool usable_time(double t) { return std::isfinite(t) && t > 0.0; }

}  // namespace

DvfsDecision choose_pstate_for_deadline(
    const sim::MachineConfig& machine,
    const core::ColocationPredictor& predictor,
    const core::BaselineProfile& target,
    const std::vector<const core::BaselineProfile*>& coapps,
    double deadline_s) {
  COLOC_CHECK_MSG(deadline_s > 0.0, "deadline must be positive");
  const std::size_t active = coapps.size() + 1;
  COLOC_CHECK_MSG(active <= machine.cores, "co-location exceeds cores");

  DvfsDecision best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < machine.pstates.size(); ++p) {
    const double t = predictor.predict_time(target, coapps, p);
    if (!usable_time(t) || t > deadline_s) continue;
    const double e = shared_energy(machine, p, active, t);
    if (e < best_energy) {
      best_energy = e;
      best.feasible = true;
      best.pstate_index = p;
      best.predicted_time_s = t;
      best.predicted_energy_j = e;
    }
  }
  if (!best.feasible) {
    best.pstate_index = 0;
    best.predicted_time_s = predictor.predict_time(target, coapps, 0);
    best.predicted_energy_j =
        usable_time(best.predicted_time_s)
            ? shared_energy(machine, 0, active, best.predicted_time_s)
            : std::numeric_limits<double>::quiet_NaN();
  }
  return best;
}

DvfsDecision choose_pstate_baseline_only(
    const sim::MachineConfig& machine, const core::BaselineProfile& target,
    std::size_t num_coapps, double deadline_s) {
  COLOC_CHECK_MSG(deadline_s > 0.0, "deadline must be positive");
  const std::size_t active = num_coapps + 1;
  COLOC_CHECK_MSG(active <= machine.cores, "co-location exceeds cores");

  DvfsDecision best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < machine.pstates.size(); ++p) {
    const double t = target.time_at(p);  // ignores interference entirely
    if (t > deadline_s) continue;
    const double e = shared_energy(machine, p, active, t);
    if (e < best_energy) {
      best_energy = e;
      best.feasible = true;
      best.pstate_index = p;
      best.predicted_time_s = t;
      best.predicted_energy_j = e;
    }
  }
  if (!best.feasible) {
    best.pstate_index = 0;
    best.predicted_time_s = target.time_at(0);
    best.predicted_energy_j =
        shared_energy(machine, 0, active, best.predicted_time_s);
  }
  return best;
}

}  // namespace coloc::sched
