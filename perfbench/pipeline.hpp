// Pipeline pieces shared by the workloads and the ledger: the campaign on
// either machine preset, the placement fleet pipeline (campaign -> nn-F ->
// store bundle -> reloaded predictor), the single-client closed decision
// loop, and the four-policy replay at the loaded utilization.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/methodology.hpp"
#include "harness.hpp"
#include "sim/app_model.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/// The two machine presets of the paper's campaign, and their metric keys.
const std::vector<coloc::sim::MachineConfig>& presets();
std::string preset_key(std::size_t preset);

/// One Table V campaign on presets()[preset], measured by a fresh
/// Simulator seeded with `measure_seed`.
coloc::core::CampaignResult campaign_on(std::size_t preset,
                                        coloc::sim::AppMrcLibrary& lib,
                                        const coloc::core::CampaignConfig& config,
                                        std::uint64_t measure_seed,
                                        Tracer& tracer);

struct PlacementRig {
  coloc::sim::MachineConfig machine;
  std::vector<coloc::sim::ApplicationSpec> catalog;
  coloc::sim::AppMrcLibrary library;
  coloc::core::CampaignResult campaign;
  std::optional<coloc::core::ColocationPredictor> predictor;
  double save_s = 0.0;
  double load_s = 0.0;
};

/// Profiles the fleet catalog, runs its campaign, trains nn-F with the
/// default zoo options, saves it as a store bundle under `bundle_dir` and
/// serves the predictor reloaded from that bundle.
std::unique_ptr<PlacementRig> build_placement_rig(std::uint64_t profile_seed,
                                                  std::uint64_t measure_seed,
                                                  const std::string& bundle_dir);

struct DecisionStats {
  std::vector<double> latency_us;
  std::uint64_t nonfinite = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::string digest;  // chosen node sequence
};

/// One client, closed loop: each decision scores every node with a free
/// core, places the job on the cheapest, and retires the oldest resident
/// (FIFO) once the fleet holds kLoadedUtilization of its cores.
DecisionStats run_decisions(const PlacementRig& rig, std::size_t decisions,
                            std::uint64_t seed, Tracer& tracer);

struct PolicyReplay {
  std::string policy;
  double wall_s = 0.0;
  double mean_slowdown = 0.0;
  double mean_wait_s = 0.0;
  double miss_rate = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t solves = 0;
  std::uint64_t nonfinite = 0;
  std::string digest;
  std::string error;  // what the replay threw, if it failed
};

/// Replays one seeded arrival stream at kLoadedUtilization under all four
/// placement policies, one policy per pool worker.
std::vector<PolicyReplay> replay_policies(PlacementRig& rig,
                                          std::size_t arrivals,
                                          std::uint64_t seed, Tracer& tracer);

/// Checks every replay: jobs == arrivals, finite outcomes, and
/// interference-aware mean slowdown below first-fit. A replay that threw
/// counts as one failed operation and is left out of the checks.
void check_replays(const std::vector<PolicyReplay>& replays,
                   std::size_t arrivals, PassResult& out);

}  // namespace perfbench
