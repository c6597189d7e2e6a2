// Server-consolidation scenario from the paper's introduction: a batch of
// jobs must be packed onto as few 12-core nodes as possible without
// blowing the QoS budget. The trained co-location model steers placement;
// the simulator grades the outcome.
//
// Usage: ./build/examples/consolidation_scheduler [--max-slowdown=1.25]
#include <cstdio>
#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "sched/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  try {
    args.reject_unknown({"max-slowdown"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "consolidation_scheduler: %s\n", e.what());
    return 2;
  }
  const double max_slowdown = args.get_double("max-slowdown", 1.25);

  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);

  std::printf("training the co-location model on %s...\n",
              machine.name.c_str());
  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 1200;
  const core::ColocationPredictor predictor =
      core::ColocationPredictor::train(
          campaign.dataset,
          {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
          zoo);

  // A mixed batch: two copies of every suite application (22 jobs).
  std::vector<sched::Job> jobs;
  for (const auto& app : sim::benchmark_suite()) {
    for (int copy = 0; copy < 2; ++copy) {
      jobs.push_back(sched::Job{app, &campaign.baselines.at(app.name)});
    }
  }
  std::printf("scheduling %zu jobs onto %zu-core nodes "
              "(QoS bound: %.2fx slowdown)\n\n",
              jobs.size(), machine.cores, max_slowdown);

  sched::SchedulerConfig config;
  config.max_slowdown = max_slowdown;
  sched::Scheduler scheduler(machine, &predictor, config);

  TextTable table("Consolidation policies compared");
  table.set_columns({"policy", "nodes", "mean slowdown", "max slowdown",
                     "energy (kJ)", "makespan (s)", "predicted mean"});
  for (sched::Policy policy : {sched::Policy::kPacked, sched::Policy::kSpread,
                               sched::Policy::kInterferenceAware}) {
    const sched::ScheduleOutcome outcome =
        scheduler.evaluate(jobs, policy, testbed);
    table.add_row({to_string(policy), TextTable::num(outcome.nodes_used),
                   TextTable::num(outcome.actual_mean_slowdown, 3),
                   TextTable::num(outcome.max_actual_slowdown, 3),
                   TextTable::num(outcome.total_energy_j / 1000.0, 1),
                   TextTable::num(outcome.makespan_s, 0),
                   TextTable::num(outcome.predicted_mean_slowdown, 3)});
  }
  table.print(std::cout);
  std::printf(
      "interference-aware placement consolidates close to `packed` while\n"
      "honouring the QoS bound that `packed` ignores — the scheduling win\n"
      "the paper's Section VI anticipates.\n");
  return 0;
}
