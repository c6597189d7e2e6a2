// EventSimulator: the cluster-scale discrete-event replay loop
// (DESIGN.md §12). Focus areas: stream seeding, physics invariants
// (capacity, FIFO queueing, ground-truth slowdowns), policy behaviour, and
// the determinism contract — identical JobOutcome streams across
// independent instances, across a parallel policy sweep, and across zoo
// bundle save/load.
#include "serve/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "sim/execution.hpp"
#include "store/zoo_store.hpp"
#include "test_helpers.hpp"

namespace coloc::serve {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class EventSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new sim::AppMrcLibrary();
    simulator_ = new sim::Simulator(tiny_machine(), library_);
    core::CampaignConfig config;
    config.targets = tiny_suite();
    config.coapps = {config.targets[0], config.targets[3]};
    campaign_ =
        new core::CampaignResult(core::run_campaign(*simulator_, config));
    core::ModelZooOptions zoo;
    zoo.mlp.max_iterations = 300;
    predictor_ = new core::ColocationPredictor(
        core::ColocationPredictor::train(
            campaign_->dataset,
            {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
            zoo));
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete campaign_;
    delete simulator_;
    delete library_;
  }

  /// Service with the catalog registered in tiny_suite order, so AppId i
  /// is catalog[i] as the simulator requires.
  static PlacementService make_service(
      const core::ColocationPredictor* predictor) {
    PlacementService service(predictor);
    for (const sim::ApplicationSpec& spec : tiny_suite()) {
      service.register_app(campaign_->baselines.at(spec.name));
    }
    return service;
  }

  static EventSimConfig sim_config(std::size_t nodes) {
    EventSimConfig config;
    config.node = tiny_machine();
    config.nodes = nodes;
    return config;
  }

  /// Mean run-alone time over the catalog at P0 — the unit for picking
  /// arrival rates relative to fleet capacity.
  static double mean_service_time() {
    double sum = 0.0;
    for (const sim::ApplicationSpec& spec : tiny_suite()) {
      sum += campaign_->baselines.at(spec.name).time_at(0);
    }
    return sum / static_cast<double>(tiny_suite().size());
  }

  static ReplayOutcome replay_fresh(const std::vector<Job>& jobs,
                                    sched::PlacementPolicy policy,
                                    const core::ColocationPredictor* p) {
    PlacementService service = make_service(p);
    EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                       &campaign_->baselines);
    return sim.replay(jobs, policy);
  }

  static void expect_identical(const ReplayOutcome& a,
                               const ReplayOutcome& b) {
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      ASSERT_EQ(a.jobs[i].node, b.jobs[i].node) << i;
      ASSERT_EQ(a.jobs[i].pstate, b.jobs[i].pstate) << i;
      ASSERT_EQ(a.jobs[i].start_s, b.jobs[i].start_s) << i;
      ASSERT_EQ(a.jobs[i].finish_s, b.jobs[i].finish_s) << i;
      ASSERT_EQ(a.jobs[i].slowdown, b.jobs[i].slowdown) << i;
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static core::CampaignResult* campaign_;
  static core::ColocationPredictor* predictor_;
};

sim::AppMrcLibrary* EventSimTest::library_ = nullptr;
sim::Simulator* EventSimTest::simulator_ = nullptr;
core::CampaignResult* EventSimTest::campaign_ = nullptr;
core::ColocationPredictor* EventSimTest::predictor_ = nullptr;

TEST_F(EventSimTest, JobStreamIsSeededAndSorted) {
  const std::vector<Job> a = make_job_stream(4, 64, 2.0, 11);
  const std::vector<Job> b = make_job_stream(4, 64, 2.0, 11);
  const std::vector<Job> c = make_job_stream(4, 64, 2.0, 12);
  ASSERT_EQ(a.size(), 64u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_LT(a[i].app, 4u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    differs = differs || a[i].app != c[i].app ||
              a[i].arrival_s != c[i].arrival_s;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST_F(EventSimTest, LoneJobRunsUndisturbedAtBaseline) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = {{/*app=*/2, /*arrival_s=*/1.5}};
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  ASSERT_EQ(out.jobs.size(), 1u);
  const JobOutcome& job = out.jobs[0];
  EXPECT_EQ(job.node, 0u);  // first fit, empty fleet
  EXPECT_EQ(job.start_s, 1.5);
  // Ground truth comes from the same solver that produced alone_time, so
  // an undisturbed run is slowdown 1 up to solver round-off.
  EXPECT_NEAR(job.slowdown, 1.0, 1e-9);
  EXPECT_TRUE(job.deadline_met);
  EXPECT_NEAR(out.makespan_s - 1.5, sim.alone_time(2), 1e-9);
  EXPECT_GT(out.total_energy_j, 0.0);
}

TEST_F(EventSimTest, CapacityNeverExceedsCoresPerNode) {
  // Saturating burst: everything arrives at t=0; residency intervals on
  // each node must never overlap more than `cores` deep, and queued jobs
  // must start only when earlier ones finish (start >= arrival).
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = make_job_stream(4, 24, 0.0, 5);
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kLeastLoaded);
  ASSERT_EQ(out.jobs.size(), 24u);
  bool queued = false;
  // Sweep-line over residency intervals: departures before arrivals at
  // equal times (a queued job may start exactly when another finishes).
  std::vector<std::vector<std::pair<double, int>>> events(2);
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    const JobOutcome& job = out.jobs[i];
    ASSERT_LT(job.node, events.size()) << i;
    EXPECT_GE(job.start_s, job.arrival_s) << i;
    EXPECT_GT(job.finish_s, job.start_s) << i;
    EXPECT_GE(job.slowdown, 0.999) << i;
    queued = queued || job.start_s > job.arrival_s;
    events[job.node].push_back({job.start_s, +1});
    events[job.node].push_back({job.finish_s, -1});
  }
  for (std::size_t n = 0; n < events.size(); ++n) {
    std::sort(events[n].begin(), events[n].end());
    int depth = 0;
    for (const auto& [time, delta] : events[n]) {
      depth += delta;
      EXPECT_LE(depth, static_cast<int>(tiny_machine().cores))
          << "node " << n << " at t=" << time;
    }
    EXPECT_EQ(depth, 0);
  }
  EXPECT_TRUE(queued) << "24 simultaneous jobs on 8 cores must queue";
}

TEST_F(EventSimTest, CoLocationSlowsJobsDown) {
  // A packed node must report slowdowns > 1 (ground truth from the
  // contention solver, not the model).
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = {{0, 0.0}, {0, 0.0}, {1, 0.0}, {2, 0.0}};
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  for (const JobOutcome& job : out.jobs) EXPECT_GT(job.slowdown, 1.0);
  EXPECT_GT(out.mean_slowdown, 1.0);
  EXPECT_EQ(out.deadline_miss_rate, 0.0);  // slack 3.0 is generous here
}

TEST_F(EventSimTest, OutcomeAggregatesMatchPerJobRecords) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs =
      make_job_stream(4, 40, mean_service_time() / 6.0, 3);
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  double slow_sum = 0.0, wait_sum = 0.0, max_slow = 0.0, makespan = 0.0;
  std::size_t missed = 0;
  for (const JobOutcome& job : out.jobs) {
    slow_sum += job.slowdown;
    wait_sum += job.start_s - job.arrival_s;
    max_slow = std::max(max_slow, job.slowdown);
    makespan = std::max(makespan, job.finish_s);
    missed += job.deadline_met ? 0 : 1;
  }
  const double n = static_cast<double>(out.jobs.size());
  EXPECT_NEAR(out.mean_slowdown, slow_sum / n, 1e-12);
  EXPECT_NEAR(out.mean_wait_s, wait_sum / n, 1e-12);
  EXPECT_EQ(out.max_slowdown, max_slow);
  EXPECT_EQ(out.makespan_s, makespan);
  EXPECT_NEAR(out.deadline_miss_rate, static_cast<double>(missed) / n,
              1e-12);
}

TEST_F(EventSimTest, InterferenceAwareBeatsFirstFitOnMeanSlowdown) {
  const std::vector<Job> jobs =
      make_job_stream(4, 400, mean_service_time() / 8.0, 7);
  const ReplayOutcome ff =
      replay_fresh(jobs, sched::PlacementPolicy::kFirstFit, predictor_);
  const ReplayOutcome ia = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  EXPECT_LT(ia.mean_slowdown, ff.mean_slowdown);
}

TEST_F(EventSimTest, DvfsAwareStaysInRangeAndSavesEnergy) {
  const std::vector<Job> jobs =
      make_job_stream(4, 200, mean_service_time() / 8.0, 9);
  const ReplayOutcome ia = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  const ReplayOutcome dvfs =
      replay_fresh(jobs, sched::PlacementPolicy::kDvfsAware, predictor_);
  for (const JobOutcome& job : dvfs.jobs) {
    EXPECT_LT(job.pstate, tiny_machine().pstates.size());
  }
  // With slack 3.0 the deadline leg has headroom to drop P-states, so the
  // fleet must not spend MORE energy than the fixed-P0 policy.
  EXPECT_LE(dvfs.total_energy_j, ia.total_energy_j);
  EXPECT_GT(dvfs.total_energy_j, 0.0);
}

TEST_F(EventSimTest, ReplayIsDeterministicAcrossInstancesAndReuse) {
  const std::vector<Job> jobs =
      make_job_stream(4, 150, mean_service_time() / 8.0, 13);
  const ReplayOutcome first = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  const ReplayOutcome fresh = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  expect_identical(first, fresh);

  // Reusing one simulator across policies (replay resets the fleet but
  // keeps its pure memo caches) must not perturb results either.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  (void)sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  const ReplayOutcome reused =
      sim.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  expect_identical(first, reused);
}

TEST_F(EventSimTest, ParallelPolicySweepMatchesSerialReplay) {
  // The tool/bench replay policies concurrently on independent instances;
  // each must equal its serial twin bit-for-bit at any worker count.
  const std::vector<Job> jobs =
      make_job_stream(4, 150, mean_service_time() / 8.0, 17);
  const std::vector<sched::PlacementPolicy>& policies =
      sched::all_placement_policies();
  std::vector<ReplayOutcome> serial(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    serial[i] = replay_fresh(jobs, policies[i], predictor_);
  }
  std::vector<ReplayOutcome> parallel(policies.size());
  parallel_for(global_pool(), policies.size(), [&](std::size_t i) {
    parallel[i] = replay_fresh(jobs, policies[i], predictor_);
  });
  for (std::size_t i = 0; i < policies.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST_F(EventSimTest, ReplayIdenticalAcrossZooSaveLoad) {
  const std::string dir = ::testing::TempDir() + "/event_sim_zoo";
  store::save_zoo(store::FileOps::real(), dir,
                  {{predictor_->id().name(), &predictor_->model()}});
  const core::ColocationPredictor reloaded = load_bundle_predictor(
      store::FileOps::real(), dir, predictor_->id());
  const std::vector<Job> jobs =
      make_job_stream(4, 120, mean_service_time() / 8.0, 19);
  const ReplayOutcome original = replay_fresh(
      jobs, sched::PlacementPolicy::kDvfsAware, predictor_);
  const ReplayOutcome warm = replay_fresh(
      jobs, sched::PlacementPolicy::kDvfsAware, &reloaded);
  expect_identical(original, warm);
}

TEST_F(EventSimTest, MisalignedCatalogRejected) {
  PlacementService service = make_service(predictor_);
  std::vector<sim::ApplicationSpec> shuffled = tiny_suite();
  std::swap(shuffled[0], shuffled[1]);
  EXPECT_THROW(EventSimulator(sim_config(2), library_, shuffled, &service,
                              &campaign_->baselines),
               coloc::runtime_error);
}

// Small-fleet placement cases: queueing, spreading, packing and argument
// checks, on the same trained predictor and campaign as EventSimTest.
using ClusterTest = EventSimTest;

TEST_F(ClusterTest, QueueingHappensWhenCoresExhausted) {
  // 1 node x 4 cores, 6 simultaneous jobs: two must wait.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs(6, Job{3, 0.0});
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  std::size_t waited = 0;
  for (const JobOutcome& job : out.jobs) {
    if (job.start_s > job.arrival_s) ++waited;
  }
  EXPECT_EQ(waited, 2u);
  EXPECT_GT(out.mean_wait_s, 0.0);
}

TEST_F(ClusterTest, LeastLoadedSpreadsAcrossNodes) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs(4, Job{0, 0.0});
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kLeastLoaded);
  std::set<std::uint32_t> used;
  for (const JobOutcome& job : out.jobs) used.insert(job.node);
  EXPECT_EQ(used.size(), 4u);
  EXPECT_NEAR(out.mean_slowdown, 1.0, 0.02);
}

TEST_F(ClusterTest, FirstFitPacksOneNode) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs(4, Job{1, 0.0});
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  std::set<std::uint32_t> used;
  for (const JobOutcome& job : out.jobs) used.insert(job.node);
  EXPECT_EQ(used.size(), 1u);
}

TEST_F(ClusterTest, EmptyJobListYieldsEmptyOutcome) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const ReplayOutcome out = sim.replay({}, sched::PlacementPolicy::kFirstFit);
  EXPECT_TRUE(out.jobs.empty());
  EXPECT_EQ(out.makespan_s, 0.0);
  EXPECT_EQ(out.total_energy_j, 0.0);
}

TEST_F(ClusterTest, ZeroInterarrivalMeansSimultaneous) {
  const std::vector<Job> jobs = make_job_stream(4, 5, 0.0, 1);
  ASSERT_EQ(jobs.size(), 5u);
  for (const Job& job : jobs) EXPECT_EQ(job.arrival_s, 0.0);
}

TEST_F(ClusterTest, InvalidConfigRejected) {
  PlacementService service = make_service(predictor_);
  EXPECT_THROW(EventSimulator(sim_config(0), library_, tiny_suite(),
                              &service),
               coloc::runtime_error);
  EventSimConfig bad_pstate = sim_config(1);
  bad_pstate.pstate_index = 99;
  EXPECT_THROW(EventSimulator(bad_pstate, library_, tiny_suite(), &service),
               coloc::runtime_error);
  EXPECT_THROW(EventSimulator(sim_config(1), nullptr, tiny_suite(),
                              &service),
               coloc::runtime_error);
  EXPECT_THROW(EventSimulator(sim_config(1), library_, tiny_suite(),
                              nullptr),
               coloc::runtime_error);
}

TEST_F(ClusterTest, InterferenceAwareNeedsPredictor) {
  // The model-driven policies need a predictor behind the service (checked
  // at construction) and, for the DVFS leg, the baseline library (checked
  // at replay).
  EXPECT_THROW(PlacementService(nullptr), coloc::runtime_error);
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service);
  const std::vector<Job> jobs = {{0, 0.0}};
  EXPECT_THROW(sim.replay(jobs, sched::PlacementPolicy::kDvfsAware),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::serve
