// The four workloads. Each pass calls only public library functions with
// default configs; every input is derived from the run seed and the pass
// index. perfbench/README.md records why each workload exists.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>

#include "common/thread_pool.hpp"
#include "core/feature_sets.hpp"
#include "core/zoo_artifacts.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "serve/demo_fleet.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"
#include "sim/execution.hpp"
#include "store/file_ops.hpp"

namespace perfbench {

using namespace coloc;

namespace {

// Seed salts: each kind of input draws from its own stream.
enum Salt : std::uint64_t {
  kProfileSalt = 1,
  kMeasureSalt = 2,
  kValidationSalt = 3,
  kJobStreamSalt = 4,
  kDecisionSalt = 5,
};

// paper_fit: validation partitions per preset (the paper uses 100).
constexpr std::size_t kPaperFitPartitions = 2;
// resweep: campaign targets are the suite cloned this many times.
constexpr std::size_t kResweepScale = 10;
// placement: closed-loop decisions and replayed arrivals per pass.
constexpr std::size_t kDecisionsPerPass = 20'000;
constexpr std::size_t kArrivalsPerPass = 100'000;

std::string dataset_digest(const ml::Dataset& d) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    const std::span<const double> f = d.features(r);
    h = fnv1a(h, f.data(), f.size_bytes());
    const double y = d.target(r);
    h = fnv1a(h, &y, sizeof y);
    h = fnv1a(h, d.tag(r).data(), d.tag(r).size());
  }
  return hex64(h);
}

std::string suite_digest(const core::EvaluationSuite& suite) {
  std::uint64_t h = kFnvBasis;
  for (const core::ModelEvaluation& e : suite.evaluations) {
    const double v[4] = {e.result.train_mpe, e.result.test_mpe,
                         e.result.train_nrmse, e.result.test_nrmse};
    h = fnv1a(h, v, sizeof v);
  }
  return hex64(h);
}

void check(PassResult& out, bool ok, const std::string& name) {
  if (!ok) {
    out.failed_checks.push_back(name);
    ++out.failed_ops;
  }
}

// Accumulates the pool busy/idle seconds the last `stage` run exported.
void note_pool_stage(PassResult& out, const std::string& stage) {
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", stage}};
  out.values["pool_busy_s"] +=
      registry.gauge("stage_pool_busy_seconds", labels).value();
  out.values["pool_idle_s"] +=
      registry.gauge("stage_pool_idle_seconds", labels).value();
}

// Books a campaign's cells, quarantines and completeness check.
void note_campaign(PassResult& out, const core::CampaignResult& c,
                   const std::string& key, bool digest) {
  out.ops += c.completeness.cells_attempted;
  out.failed_ops += c.completeness.cells_quarantined;
  out.values["cells"] += static_cast<double>(c.dataset.num_rows());
  if (c.completeness.completeness() < 1.0 || c.dataset.num_rows() == 0) {
    out.failed_checks.push_back("campaign_complete." + key);
  }
  if (digest) out.digests["campaign." + key] = dataset_digest(c.dataset);
  note_pool_stage(out, "campaign");
}

// ---------------------------------------------------------------------------

class PaperFit final : public Workload {
 public:
  explicit PaperFit(std::uint64_t seed)
      : seed_(seed), config_(core::CampaignConfig::paper_defaults()) {}

  // Set-up profiles the suite cold; each pass re-profiles it into a fresh
  // library on the same seed, which the profile memo serves.
  void setup(std::uint64_t repeat) override {
    profile_seed_ = derive_seed(seed_, kProfileSalt, repeat);
    sim::AppMrcLibrary cold;
    cold.profile_all(config_.targets, profile_seed_);
  }

  PassResult pass(std::uint64_t index, Tracer& tracer) override {
    PassResult out;
    const auto t0 = Clock::now();
    sim::AppMrcLibrary library;
    {
      Tracer::Span span(tracer, "sim.profile_all");
      library.profile_all(config_.targets, profile_seed_);
    }
    double mpe_sum = 0.0;
    for (std::size_t p = 0; p < presets().size(); ++p) {
      const std::string key = preset_key(p);
      const core::CampaignResult c =
          campaign_on(p, library, config_,
                      derive_seed(seed_, kMeasureSalt, 2 * index + p), tracer);
      note_campaign(out, c, key, index == 0);

      core::EvaluationConfig eval;
      eval.validation.partitions = kPaperFitPartitions;
      eval.validation.seed = derive_seed(seed_, kValidationSalt, 2 * index + p);
      core::EvaluationSuite suite;
      {
        Tracer::Span span(tracer, "core.evaluate_model_zoo");
        suite = core::evaluate_model_zoo(c.dataset, eval);
      }
      note_pool_stage(out, "validation");
      out.ops += suite.evaluations.size() * kPaperFitPartitions;
      bool finite = true;
      for (const core::ModelEvaluation& e : suite.evaluations) {
        finite = finite && std::isfinite(e.result.test_mpe) &&
                 std::isfinite(e.result.test_nrmse);
      }
      check(out, finite, "zoo_finite." + key);
      const double nn = suite.find(core::ModelTechnique::kNeuralNetwork,
                                   core::FeatureSet::kF)
                            .result.test_mpe;
      const double lin =
          suite.find(core::ModelTechnique::kLinear, core::FeatureSet::kF)
              .result.test_mpe;
      check(out, nn < lin, "nn_f_beats_linear_f." + key);
      out.values["nn_f_test_mpe." + key] = nn;
      out.values["linear_f_test_mpe." + key] = lin;
      mpe_sum += nn;
      if (index == 0) out.digests["zoo." + key] = suite_digest(suite);
    }
    out.wall_s = seconds_since(t0);
    out.values["nn_f_test_mpe"] = mpe_sum / 2.0;
    out.units = static_cast<double>(12 * kPaperFitPartitions * 2);
    return out;
  }

 private:
  std::uint64_t seed_;
  core::CampaignConfig config_;
  std::uint64_t profile_seed_ = 0;
};

// ---------------------------------------------------------------------------

class Characterize final : public Workload {
 public:
  explicit Characterize(std::uint64_t seed)
      : seed_(seed), config_(core::CampaignConfig::paper_defaults()) {
    for (const sim::ApplicationSpec& app : config_.targets) {
      refs_per_pass_ += static_cast<double>(app.suggested_profile_length());
    }
  }

  // A warm-up profile of the suite on its own seeds: the passes then start
  // with the pool and code paths warm.
  void setup(std::uint64_t repeat) override {
    sim::AppMrcLibrary warm;
    warm.profile_all(config_.targets,
                     derive_seed(seed_, kProfileSalt, 1'000'000 + repeat));
  }

  PassResult pass(std::uint64_t index, Tracer& tracer) override {
    PassResult out;
    const auto t0 = Clock::now();
    sim::AppMrcLibrary library;
    {
      Tracer::Span span(tracer, "sim.profile_all");
      library.profile_all(config_.targets,
                          derive_seed(seed_, kProfileSalt, index));
    }
    out.ops += config_.targets.size();
    for (std::size_t p = 0; p < presets().size(); ++p) {
      const core::CampaignResult c =
          campaign_on(p, library, config_,
                      derive_seed(seed_, kMeasureSalt, 2 * index + p), tracer);
      note_campaign(out, c, preset_key(p), index == 0);
    }
    out.wall_s = seconds_since(t0);
    out.units = refs_per_pass_;
    return out;
  }

 private:
  std::uint64_t seed_;
  core::CampaignConfig config_;
  double refs_per_pass_ = 0.0;
};

// ---------------------------------------------------------------------------

class Resweep final : public Workload {
 public:
  explicit Resweep(std::uint64_t seed)
      : seed_(seed), config_(core::CampaignConfig::paper_defaults()) {
    const std::vector<sim::ApplicationSpec> originals = config_.targets;
    groups_.push_back(originals);
    for (std::size_t k = 2; k <= kResweepScale; ++k) {
      std::vector<sim::ApplicationSpec> group;
      for (const sim::ApplicationSpec& app : originals) {
        sim::ApplicationSpec clone = app;
        clone.name = app.name + "~" + std::to_string(k);
        clone.trace.name = clone.name;
        group.push_back(clone);
        config_.targets.push_back(std::move(clone));
      }
      groups_.push_back(std::move(group));
    }
  }

  // Clones share their donor's trace shape. Profiling each clone group with
  // the originals' seed lets the profile memo serve them, so set-up costs
  // one cold suite profile, and every pass's profile of all groups into a
  // fresh library is served from the memo.
  void setup(std::uint64_t repeat) override {
    profile_seed_ = derive_seed(seed_, kProfileSalt, repeat);
    sim::AppMrcLibrary cold;
    profile_groups(cold);
  }

  PassResult pass(std::uint64_t index, Tracer& tracer) override {
    PassResult out;
    const auto t0 = Clock::now();
    sim::AppMrcLibrary library;
    {
      Tracer::Span span(tracer, "sim.profile_all");
      profile_groups(library);
    }
    for (std::size_t p = 0; p < presets().size(); ++p) {
      const core::CampaignResult c =
          campaign_on(p, library, config_,
                      derive_seed(seed_, kMeasureSalt, 2 * index + p), tracer);
      note_campaign(out, c, preset_key(p), index == 0);
    }
    out.wall_s = seconds_since(t0);
    out.units = out.values["cells"];
    return out;
  }

 private:
  void profile_groups(sim::AppMrcLibrary& library) const {
    for (const auto& group : groups_) library.profile_all(group, profile_seed_);
  }

  std::uint64_t seed_;
  core::CampaignConfig config_;
  std::vector<std::vector<sim::ApplicationSpec>> groups_;
  std::uint64_t profile_seed_ = 0;
};

// ---------------------------------------------------------------------------

class Placement final : public Workload {
 public:
  Placement(std::uint64_t seed, std::string scratch)
      : seed_(seed), bundle_dir_(std::move(scratch) + "/placement_zoo") {}

  void setup(std::uint64_t repeat) override {
    rig_ = build_placement_rig(derive_seed(seed_, kProfileSalt, repeat),
                               derive_seed(seed_, kMeasureSalt, repeat),
                               bundle_dir_);
  }

  PassResult pass(std::uint64_t index, Tracer& tracer) override {
    PassResult out;
    const auto t0 = Clock::now();
    const DecisionStats d = run_decisions(
        *rig_, kDecisionsPerPass, derive_seed(seed_, kDecisionSalt, index),
        tracer);
    const std::vector<PolicyReplay> replays = replay_policies(
        *rig_, kArrivalsPerPass, derive_seed(seed_, kJobStreamSalt, index),
        tracer);
    out.wall_s = seconds_since(t0);

    out.ops += kDecisionsPerPass;
    out.failed_ops += d.nonfinite;
    check(out, d.nonfinite == 0, "decision_scores_finite");
    check_replays(replays, kArrivalsPerPass, out);
    out.values["score_cache_hits"] = static_cast<double>(d.cache_hits);
    out.values["score_cache_misses"] = static_cast<double>(d.cache_misses);
    for (const PolicyReplay& r : replays) {
      out.ops += r.error.empty() ? r.jobs : 1;
      out.values["replay_events"] += static_cast<double>(r.events);
      out.values["mean_slowdown." + r.policy] = r.mean_slowdown;
      if (index == 0) out.digests["replay." + r.policy] = r.digest;
    }
    if (index == 0) out.digests["decisions"] = d.digest;
    out.units = static_cast<double>(kDecisionsPerPass + 4 * kArrivalsPerPass);
    return out;
  }

 private:
  std::uint64_t seed_;
  std::string bundle_dir_;
  std::unique_ptr<PlacementRig> rig_;
};

// Policies are enumerated through the replay outcome's policy type (found
// by argument-dependent lookup for to_string), so the harness does not
// depend on which module declares the enum.
using PolicyType = decltype(serve::ReplayOutcome{}.policy);
constexpr int kNumPolicies = 4;

}  // namespace

// ---------------------------------------------------------------------------
// Pipeline pieces (pipeline.hpp).

const std::vector<sim::MachineConfig>& presets() {
  static const std::vector<sim::MachineConfig> machines = {
      sim::xeon_e5649(), sim::xeon_e5_2697v2()};
  return machines;
}

std::string preset_key(std::size_t i) {
  return i == 0 ? "xeon_e5649" : "xeon_e5_2697v2";
}

core::CampaignResult campaign_on(std::size_t preset, sim::AppMrcLibrary& lib,
                                 const core::CampaignConfig& config,
                                 std::uint64_t measure_seed, Tracer& tracer) {
  sim::MeasurementOptions measurement;
  measurement.seed = measure_seed;
  sim::Simulator testbed(presets()[preset], &lib, measurement);
  Tracer::Span span(tracer, "core.run_campaign");
  return core::run_campaign(testbed, config);
}

std::unique_ptr<PlacementRig> build_placement_rig(std::uint64_t profile_seed,
                                                  std::uint64_t measure_seed,
                                                  const std::string& bundle_dir) {
  auto rig = std::make_unique<PlacementRig>();
  rig->machine = serve::demo::fleet_node();
  rig->catalog = serve::demo::catalog();
  rig->library.profile_all(rig->catalog, profile_seed);
  sim::MeasurementOptions measurement;
  measurement.seed = measure_seed;
  sim::Simulator testbed(rig->machine, &rig->library, measurement);
  rig->campaign = core::run_campaign(testbed, serve::demo::campaign_config(0));
  const core::ModelId nn_f{core::ModelTechnique::kNeuralNetwork,
                           core::FeatureSet::kF};
  const core::TrainedZoo zoo =
      core::train_full_zoo(rig->campaign.dataset, {}, {nn_f});
  std::filesystem::remove_all(bundle_dir);
  auto t0 = Clock::now();
  core::save_trained_zoo(store::FileOps::real(), bundle_dir, zoo);
  rig->save_s = seconds_since(t0);
  t0 = Clock::now();
  rig->predictor.emplace(serve::load_bundle_predictor(store::FileOps::real(),
                                                      bundle_dir, nn_f));
  rig->load_s = seconds_since(t0);
  return rig;
}

DecisionStats run_decisions(const PlacementRig& rig, std::size_t decisions,
                            std::uint64_t seed, Tracer& tracer) {
  DecisionStats stats;
  serve::PlacementService service(&*rig.predictor);
  for (const sim::ApplicationSpec& spec : rig.catalog) {
    service.register_app(rig.campaign.baselines.at(spec.name));
  }
  service.reset_fleet(kFleetNodes);
  const std::size_t cores = rig.machine.cores;
  const std::size_t live_cap = static_cast<std::size_t>(
      kLoadedUtilization * static_cast<double>(kFleetNodes * cores));
  const std::vector<serve::Job> jobs =
      serve::make_job_stream(rig.catalog.size(), decisions, 0.0, seed);

  std::vector<std::uint32_t> candidates;
  std::vector<double> cost;
  std::deque<std::pair<std::uint32_t, serve::AppId>> fifo;
  std::uint64_t h = kFnvBasis;
  stats.latency_us.reserve(decisions);
  for (const serve::Job& job : jobs) {
    const auto t0 = Clock::now();
    candidates.clear();
    for (std::uint32_t n = 0; n < kFleetNodes; ++n) {
      if (service.occupancy(n) < cores) candidates.push_back(n);
    }
    cost.resize(candidates.size());
    {
      Tracer::Span span(tracer, "serve.score_candidates");
      service.score_candidates(job.app, candidates, 0, cost);
    }
    std::size_t best = 0;
    for (std::size_t i = 0; i < cost.size(); ++i) {
      if (!std::isfinite(cost[i])) ++stats.nonfinite;
      if (cost[i] < cost[best]) best = i;
    }
    const std::uint32_t node = candidates[best];
    {
      Tracer::Span span(tracer, "serve.add_resident");
      service.add_resident(node, job.app);
    }
    fifo.emplace_back(node, job.app);
    if (fifo.size() > live_cap) {
      Tracer::Span span(tracer, "serve.remove_resident");
      service.remove_resident(fifo.front().first, fifo.front().second);
      fifo.pop_front();
    }
    stats.latency_us.push_back(seconds_since(t0) * 1e6);
    h = fnv1a(h, &node, sizeof node);
  }
  stats.cache_hits = service.stats().cache_hits;
  stats.cache_misses = service.stats().cache_misses;
  stats.digest = hex64(h);
  return stats;
}

std::vector<PolicyReplay> replay_policies(PlacementRig& rig,
                                          std::size_t arrivals,
                                          std::uint64_t seed, Tracer& tracer) {
  double mean_service_s = 0.0;
  for (const sim::ApplicationSpec& spec : rig.catalog) {
    mean_service_s += rig.campaign.baselines.at(spec.name).execution_time_s[0];
  }
  mean_service_s /= static_cast<double>(rig.catalog.size());
  const double mean_interarrival_s =
      mean_service_s / (static_cast<double>(kFleetNodes * rig.machine.cores) *
                        kLoadedUtilization);
  const std::vector<serve::Job> stream = serve::make_job_stream(
      rig.catalog.size(), arrivals, mean_interarrival_s, seed);
  serve::EventSimConfig config;
  config.node = rig.machine;
  config.nodes = kFleetNodes;

  std::vector<PolicyReplay> replays(kNumPolicies);
  Tracer::Span span(tracer, "serve.replay");
  parallel_for(global_pool(), replays.size(), [&](std::size_t i) {
    const PolicyType policy = static_cast<PolicyType>(i);
    const auto t0 = Clock::now();
    serve::PlacementService service(&*rig.predictor);
    for (const sim::ApplicationSpec& spec : rig.catalog) {
      service.register_app(rig.campaign.baselines.at(spec.name));
    }
    serve::EventSimulator sim(config, &rig.library, rig.catalog, &service,
                              &rig.campaign.baselines);
    PolicyReplay& r = replays[i];
    r.policy = to_string(policy);
    serve::ReplayOutcome outcome;
    try {
      outcome = sim.replay(stream, policy);
    } catch (const std::exception& e) {
      r.wall_s = seconds_since(t0);
      r.error = e.what();
      return;
    }
    r.wall_s = seconds_since(t0);
    r.mean_slowdown = outcome.mean_slowdown;
    r.mean_wait_s = outcome.mean_wait_s;
    r.miss_rate = outcome.deadline_miss_rate;
    r.jobs = outcome.jobs.size();
    r.events = outcome.events_processed;
    r.solves = outcome.contention_solves;
    std::uint64_t h = kFnvBasis;
    for (const serve::JobOutcome& j : outcome.jobs) {
      if (!std::isfinite(j.slowdown) || !std::isfinite(j.finish_s)) {
        ++r.nonfinite;
      }
      const double v[3] = {j.start_s, j.finish_s, j.slowdown};
      h = fnv1a(h, &j.node, sizeof j.node);
      h = fnv1a(h, &j.pstate, sizeof j.pstate);
      h = fnv1a(h, &j.deadline_met, sizeof j.deadline_met);
      h = fnv1a(h, v, sizeof v);
    }
    r.digest = hex64(h);
  }, 1);
  return replays;
}

void check_replays(const std::vector<PolicyReplay>& replays,
                   std::size_t arrivals, PassResult& out) {
  const PolicyReplay* first_fit = nullptr;
  const PolicyReplay* aware = nullptr;
  for (const PolicyReplay& r : replays) {
    if (!r.error.empty()) {
      ++out.failed_ops;
      out.errors.push_back("replay." + r.policy + ": " + r.error);
      continue;
    }
    out.failed_ops += r.nonfinite;
    check(out, r.nonfinite == 0, "replay_finite." + r.policy);
    check(out, r.jobs == arrivals, "replayed_jobs_equal_arrivals." + r.policy);
    if (r.policy == "first-fit") first_fit = &r;
    if (r.policy == "interference-aware") aware = &r;
  }
  if (first_fit != nullptr && aware != nullptr) {
    check(out, aware->mean_slowdown < first_fit->mean_slowdown,
          "interference_aware_beats_first_fit");
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == "paper_fit") return std::make_unique<PaperFit>(seed);
  if (name == "characterize") return std::make_unique<Characterize>(seed);
  if (name == "resweep") return std::make_unique<Resweep>(seed);
  if (name == "placement") {
    return std::make_unique<Placement>(seed, scratch_dir);
  }
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_fit", "characterize",
                                                 "resweep", "placement"};
  return names;
}

}  // namespace perfbench
