// The per-layer ledger: fixed-size probes of every layer's public
// functions, measured in the same process as the traced passes and next to
// the host ceilings. Every traced run of every workload runs the same
// probes (inputs derived from the run seed), so each per-layer metric is
// defined the same way everywhere. README.md maps each figure to the
// end-to-end metric it should move.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/rng.hpp"
#include "core/feature_sets.hpp"
#include "core/methodology.hpp"
#include "core/model_zoo.hpp"
#include "linalg/fast_math.hpp"
#include "linalg/gemm_batch.hpp"
#include "linalg/qr.hpp"
#include "ml/mlp.hpp"
#include "ml/validation.hpp"
#include "pipeline.hpp"
#include "serve/placement_service.hpp"
#include "sim/contention.hpp"
#include "sim/execution.hpp"
#include "sim/stack_distance.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using namespace coloc;

namespace {

constexpr std::uint64_t kLedgerSalt = 6;
constexpr std::size_t kProbePartitions = 1;
constexpr std::size_t kProbeDecisions = 5'000;
constexpr std::size_t kProbeArrivals = 20'000;
constexpr double kMinProbeSeconds = 0.1;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<std::size_t>(q * static_cast<double>(v.size())))];
}

// Repeats `body` until kMinProbeSeconds have passed; returns seconds per
// call.
template <typename F>
double seconds_per_call(F&& body) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < kMinProbeSeconds);
  return elapsed / static_cast<double>(calls);
}

// Trace generation and stack distance over the two ends of the memory
// intensity range (cg, class I; ep, class IV) at their suite horizons, one
// thread, in the 4096-reference chunks the profiler uses. Then one whole
// single-app profile through AppMrcLibrary on a fresh seed (a profile-memo
// miss) of a class III app.
void sim_kernels(std::uint64_t seed, std::map<std::string, double>& m) {
  double refs = 0.0, gen_s = 0.0, sd_s = 0.0;
  std::uint64_t salt = 0;
  for (const char* name : {"cg", "ep"}) {
    const sim::ApplicationSpec app = sim::find_application(name);
    const std::size_t n = app.suggested_profile_length();
    std::vector<sim::LineAddress> trace(n);
    sim::TraceGenerator gen(app.trace, derive_seed(seed, kLedgerSalt, ++salt));
    gen.set_horizon(n);
    auto t0 = Clock::now();
    for (std::size_t done = 0; done < n; done += 4096) {
      gen.next_batch(std::span<sim::LineAddress>(
          trace.data() + done, std::min<std::size_t>(4096, n - done)));
    }
    gen_s += seconds_since(t0);
    sim::StackDistanceProfiler profiler(n);
    t0 = Clock::now();
    for (std::size_t done = 0; done < n; done += 4096) {
      profiler.record_batch(std::span<const sim::LineAddress>(
          trace.data() + done, std::min<std::size_t>(4096, n - done)));
    }
    sd_s += seconds_since(t0);
    refs += static_cast<double>(n);
  }
  m["sim.trace_gen_refs_per_s"] = refs / gen_s;
  m["sim.stack_distance_refs_per_s"] = refs / sd_s;

  sim::AppMrcLibrary fresh;
  const auto t0 = Clock::now();
  fresh.profile_all({sim::find_application("fluidanimate")},
                    derive_seed(seed, kLedgerSalt, ++salt));
  m["sim.profile_app_s"] = seconds_since(t0);
}

// Contention fixed points for every Table V schedule on the 6-core preset
// at its top P-state.
void sim_solve(sim::AppMrcLibrary& lib, std::map<std::string, double>& m,
               PassResult& checks) {
  const sim::MachineConfig machine = sim::xeon_e5649();
  const core::CampaignConfig config = core::CampaignConfig::paper_defaults();
  std::vector<std::vector<sim::ScheduledApp>> schedules;
  for (const sim::ApplicationSpec& target : config.targets) {
    for (const sim::ApplicationSpec& co : config.coapps) {
      for (std::size_t k = 1; k < machine.cores; ++k) {
        std::vector<sim::ScheduledApp> apps = {{&target, &lib.curve(target)}};
        for (std::size_t j = 0; j < k; ++j) apps.push_back({&co, &lib.curve(co)});
        schedules.push_back(std::move(apps));
      }
    }
  }
  const double ghz = machine.pstates[0].frequency_ghz;
  bool finite = true;
  const double per_sweep = seconds_per_call([&] {
    for (const auto& apps : schedules) {
      finite = finite && std::isfinite(sim::solve_contention(machine, ghz, apps)
                                           .memory_latency_ns);
    }
  });
  m["sim.solve_us"] = per_sweep / static_cast<double>(schedules.size()) * 1e6;
  if (!finite) checks.failed_checks.push_back("solve_finite");
}

std::vector<ml::ValidationJob> zoo_jobs(core::ModelTechnique technique,
                                        std::uint64_t seed) {
  std::vector<ml::ValidationJob> jobs;
  // Same factory salts as the zoo (technique-major, sets A-F, from 1).
  std::uint64_t salt = technique == core::ModelTechnique::kLinear ? 1 : 7;
  for (const core::FeatureSet set : core::kAllFeatureSets) {
    ml::ValidationJob job;
    const auto& columns = core::feature_set_columns(set);
    job.columns.assign(columns.begin(), columns.end());
    job.factory = core::make_model_factory({technique, set}, {}, salt++);
    job.options.partitions = kProbePartitions;
    job.options.seed = seed;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct KernelTotals {
  double gemm_flops = 0.0, gemm_s = 0.0;
  double tanh_elems = 0.0, tanh_s = 0.0;
  double qr_us = 0.0;
  std::size_t shapes = 0;
};

// GEMM/tanh/QR at the nn-F training shape of one preset's dataset.
void linalg_kernels(const ml::Dataset& data, std::uint64_t seed,
                    KernelTotals& totals) {
  const std::size_t rows = data.num_rows() * 7 / 10;
  const std::size_t inputs = core::feature_set_columns(core::FeatureSet::kF).size();
  const std::size_t hidden = core::hidden_units_for(core::FeatureSet::kF);
  Rng rng(seed);
  linalg::Matrix x(rows, inputs), w(inputs, hidden), out;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < inputs; ++c) x(r, c) = rng.normal();
  for (std::size_t r = 0; r < inputs; ++r)
    for (std::size_t c = 0; c < hidden; ++c) w(r, c) = 0.3 * rng.normal();
  std::vector<double> bias(hidden, 0.1);
  const double s = seconds_per_call([&] { linalg::gemm_bias(x, w, bias, out); });
  totals.gemm_flops += 2.0 * static_cast<double>(rows * inputs * hidden);
  totals.gemm_s += s;

  std::vector<double> z(rows * hidden);
  const double tanh_s = seconds_per_call([&] {
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = out.data()[i];
    linalg::vector_tanh(z.data(), z.size());
  });
  totals.tanh_elems += static_cast<double>(z.size());
  totals.tanh_s += tanh_s;

  std::vector<double> y(rows);
  for (double& v : y) v = rng.normal();
  totals.qr_us += seconds_per_call([&] { linalg::QR(x).solve(y); }) * 1e6;
  ++totals.shapes;
}

}  // namespace

void run_ledger(std::uint64_t seed, const std::string& scratch_dir) {
  std::map<std::string, double> m;
  PassResult checks;  // failed checks of the probes
  Tracer off;

  const double fma = fma_peak_gflops();
  const StreamResult stream = stream_triad();
  m["host.fma_peak_gflops"] = fma;
  m["host.stream_gbps"] = stream.gbps;
  m["host.stream_array_mib"] = stream.array_mib;
  m["host.llc_mib"] = llc_mib();

  sim_kernels(seed, m);

  // Suite curves, then the Table V campaign on both presets.
  const core::CampaignConfig config = core::CampaignConfig::paper_defaults();
  sim::AppMrcLibrary lib;
  lib.profile_all(config.targets, derive_seed(seed, kLedgerSalt, 100));
  sim_solve(lib, m, checks);
  std::vector<core::CampaignResult> campaigns;
  double cells = 0.0, campaign_s = 0.0;
  for (std::size_t p = 0; p < presets().size(); ++p) {
    const auto t0 = Clock::now();
    campaigns.push_back(campaign_on(
        p, lib, config, derive_seed(seed, kLedgerSalt, 200 + p), off));
    campaign_s += seconds_since(t0);
    cells += static_cast<double>(campaigns.back().dataset.num_rows());
  }
  m["core.campaign_cells_per_s"] = cells / campaign_s;

  KernelTotals kernels;
  for (std::size_t p = 0; p < presets().size(); ++p) {
    const ml::Dataset& data = campaigns[p].dataset;
    core::EvaluationConfig eval;
    eval.validation.partitions = kProbePartitions;
    eval.validation.seed = derive_seed(seed, kLedgerSalt, 300 + p);
    const auto t0 = Clock::now();
    const core::EvaluationSuite suite = core::evaluate_model_zoo(data, eval);
    m["core.zoo_eval_s." + preset_key(p)] = seconds_since(t0);
    m["ml.nn_f_test_mpe." + preset_key(p)] =
        suite.find(core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF)
            .result.test_mpe;
    linalg_kernels(data, derive_seed(seed, kLedgerSalt, 400 + p), kernels);
  }
  m["linalg.gemm_gflops"] = kernels.gemm_flops / kernels.gemm_s * 1e-9;
  m["linalg.tanh_elems_per_s"] = kernels.tanh_elems / kernels.tanh_s;
  m["linalg.qr_solve_us"] = kernels.qr_us / static_cast<double>(kernels.shapes);
  m["linalg.gemm_frac_of_fma_peak"] = m["linalg.gemm_gflops"] / fma;

  // ml: the nn and linear halves of the zoo validated on their own, then
  // one nn-F fit on a 70% split and batched inference on the other 30%.
  const ml::Dataset& data = campaigns[0].dataset;
  const std::uint64_t vseed = derive_seed(seed, kLedgerSalt, 500);
  for (const auto technique : core::kAllTechniques) {
    const std::vector<ml::ValidationJob> jobs = zoo_jobs(technique, vseed);
    const auto t0 = Clock::now();
    ml::repeated_subsampling_validation_batch(data, jobs);
    m[technique == core::ModelTechnique::kLinear ? "ml.validate_linear_s"
                                                 : "ml.validate_nn_s"] =
        seconds_since(t0);
  }
  const ml::SplitIndices split = ml::random_split(data.num_rows(), 0.3, vseed);
  const auto& columns = core::feature_set_columns(core::FeatureSet::kF);
  const linalg::Matrix x_train = data.design_matrix(split.train, columns);
  const std::vector<double> y_train = data.target_subset(split.train);
  const linalg::Matrix x_test = data.design_matrix(split.test, columns);
  const ml::ModelFactory factory = core::make_model_factory(
      {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF}, {}, 12);
  std::vector<double> fit_ms, iters_per_s;
  ml::RegressorPtr model;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    model = factory(x_train, y_train);
    const double s = seconds_since(t0);
    fit_ms.push_back(s * 1e3);
    if (const auto* mlp = dynamic_cast<const ml::MlpRegressor*>(model.get())) {
      iters_per_s.push_back(static_cast<double>(mlp->iterations_used()) / s);
    }
  }
  m["ml.mlp_fit_ms"] = median(fit_ms);
  m["ml.scg_iters_per_s"] = iters_per_s.empty() ? 0.0 : median(iters_per_s);
  std::vector<double> predictions(x_test.rows());
  m["ml.predict_rows_per_s"] =
      static_cast<double>(x_test.rows()) /
      seconds_per_call([&] { model->predict_into(x_test, predictions); });

  // serve + store: the fleet pipeline, batched queries, a short decision
  // loop and a four-policy replay at the loaded utilization.
  const std::string bundle_dir = scratch_dir + "/ledger_zoo";
  std::unique_ptr<PlacementRig> rig =
      build_placement_rig(derive_seed(seed, kLedgerSalt, 600),
                          derive_seed(seed, kLedgerSalt, 601), bundle_dir);
  std::filesystem::remove_all(bundle_dir);
  m["store.zoo_save_s"] = rig->save_s;
  m["store.zoo_load_s"] = rig->load_s;
  {
    serve::PlacementService service(&*rig->predictor);
    for (const sim::ApplicationSpec& spec : rig->catalog) {
      service.register_app(rig->campaign.baselines.at(spec.name));
    }
    service.reset_fleet(kFleetNodes);
    const std::size_t apps = rig->catalog.size();
    for (std::size_t n = 0; n < kFleetNodes; ++n) {
      service.add_resident(n, static_cast<serve::AppId>(n % apps));
      service.add_resident(n, static_cast<serve::AppId>((n + 3) % apps));
    }
    const std::size_t batch = 4096;
    std::vector<serve::AppId> targets(batch);
    std::vector<std::uint32_t> nodes(batch);
    std::vector<double> times(batch);
    for (std::size_t k = 0; k < batch; ++k) {
      targets[k] = static_cast<serve::AppId>(k % apps);
      nodes[k] = static_cast<std::uint32_t>((k * 7) % kFleetNodes);
    }
    m["serve.predict_batch_rows_per_s"] =
        static_cast<double>(batch) /
        seconds_per_call([&] { service.predict_batch(targets, nodes, 0, times); });
  }
  const DecisionStats d = run_decisions(
      *rig, kProbeDecisions, derive_seed(seed, kLedgerSalt, 700), off);
  m["serve.decision_p50_us"] = quantile(d.latency_us, 0.50);
  m["serve.decision_p99_us"] = quantile(d.latency_us, 0.99);
  m["serve.score_memo_hit_ratio"] =
      static_cast<double>(d.cache_hits) /
      static_cast<double>(std::max<std::uint64_t>(1, d.cache_hits + d.cache_misses));
  const std::vector<PolicyReplay> replays = replay_policies(
      *rig, kProbeArrivals, derive_seed(seed, kLedgerSalt, 800), off);
  check_replays(replays, kProbeArrivals, checks);
  for (const PolicyReplay& r : replays) {
    m["serve.replay_s." + r.policy] = r.wall_s;
    m["serve.events." + r.policy] = static_cast<double>(r.events);
    m["serve.contention_solves." + r.policy] = static_cast<double>(r.solves);
    m["serve.mean_wait_s." + r.policy] = r.mean_wait_s;
    m["serve.miss_rate." + r.policy] = r.miss_rate;
    m["serve.mean_slowdown." + r.policy] = r.mean_slowdown;
  }

  std::map<std::string, std::string> failed, errors;
  for (const std::string& c : checks.failed_checks) failed[c] = "failed";
  for (const std::string& e : checks.errors) errors[e] = "threw";
  Record("ledger")
      .object("metrics", m)
      .integer("ops", replays.size())
      .integer("failed_ops", checks.failed_ops)
      .strings("failed_checks", failed)
      .strings("errors", errors)
      .emit();
}

}  // namespace perfbench
