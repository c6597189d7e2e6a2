// Performance-trajectory harness for the pipeline stages: trace profiling,
// the Table V collection campaign, the 12-model zoo, and the paper's
// 100-partition set-F MLP validation.
//
// Writes a machine-readable BENCH_pipeline.json (override with --out=FILE)
// recording the stage timings, the serial-vs-parallel speedups, and a set
// of numerical-equivalence gates. The exit status reflects ONLY the
// equivalence gates — never timing — so CI can run this on noisy shared
// runners without flaking:
//   gate trace_batch_bit_identical next_batch() == per-reference next()
//   gate solve_cache_bit_identical cached contention solve == cold solve
//   gate campaign_parallel_bit_identical  parallel campaign == serial sweep
//   gate zoo_parallel_bit_identical       zoo on the flat task graph ==
//                                         the same zoo serially scheduled
//   gate zoo_warm_start_bit_identical     zoo reloaded from the store
//                                         bundle == freshly trained zoo
//   gate jobs_sweep_bit_identical         every --jobs-sweep point ==
//                                         the serial campaign
// The kernels' own oracles (the row-at-a-time MLP loss/gradient and
// sequential restart loop, the Fenwick-tree stack distance) are held to
// the fast paths bit for bit by the unit tests, not here.
//
// The zoo race runs at max(--restarts, 4) SCG restarts per MLP fit with
// the same fused trainer in both arms: the serial arm schedules validation
// serially while the parallel arm runs the flat model x partition task
// graph, so zoo_speedup measures the scheduler alone and the
// zoo_parallel_bit_identical gate polices its bit-identity. The JSON also
// records a "training" block (scg_fused_restarts_total, train_gemm_seconds
// sum/count, design-memo hits/misses) mirroring the manifest's training
// attribution section that obs_report --gate consumes.
//
// Scale knobs (this binary's own flags, besides --out): --sweep-scale=N
// clones every campaign target N-fold, pushing the sweep to 10-100x the
// paper's cell count; --jobs-sweep=1,2,4,8 re-runs the (scaled) campaign at
// each jobs value and emits a "jobs_scaling" curve in the JSON, each run
// gated bit-identical against the serial dataset. The common --restarts=N
// raises the restart count everywhere (the zoo race floor stays 4).
//
// The warm-start arm times training the full 12-model zoo cold against
// saving it to a checksummed store bundle (--zoo-out, default
// BENCH_zoo_bundle) and loading it back (--zoo-in overrides the load
// path). At --fault-rate 0 the reloaded models must serialize
// byte-identically to the trained ones.
//
// The campaign and model-zoo stages are additionally timed serial vs.
// parallel (--jobs / COLOC_JOBS workers) and the speedups reported; on a
// single-core host both arms time about the same, by design — the gates
// still verify the orchestration is byte-equivalent.
//
// Run the headline number (Release build):
//   ./build/bench/bench_perf_pipeline --partitions=100 --jobs=0
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/zoo_artifacts.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "ml/serialization.hpp"
#include "ml/validation.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/stack_distance.hpp"
#include "sim/trace.hpp"

namespace {

using namespace coloc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One numerical-equivalence check: `value` must stay <= `limit`.
struct Gate {
  const char* name;
  double value = 0.0;
  double limit = 0.0;
  bool pass() const { return value <= limit; }
};

/// Parses "1,2,4,8" into jobs values; ignores empty/invalid tokens.
std::vector<std::size_t> parse_jobs_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0' && v > 0) {
      out.push_back(static_cast<std::size_t>(v));
    }
  }
  return out;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Row-for-row, bit-for-bit dataset comparison (targets, tags, features).
bool datasets_bit_identical(const ml::Dataset& a, const ml::Dataset& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    if (!bitwise_equal(a.target(r), b.target(r)) || a.tag(r) != b.tag(r)) {
      return false;
    }
    const auto fa = a.features(r);
    const auto fb = b.features(r);
    if (fa.size() != fb.size()) return false;
    for (std::size_t c = 0; c < fa.size(); ++c) {
      if (!bitwise_equal(fa[c], fb[c])) return false;
    }
  }
  return true;
}

void json_gate(std::ofstream& os, const Gate& g, bool last) {
  os << "    {\"name\": \"" << g.name << "\", \"value\": " << g.value
     << ", \"limit\": " << g.limit << ", \"pass\": "
     << (g.pass() ? "true" : "false") << "}" << (last ? "\n" : ",\n");
}

// ---------------------------------------------------------------------------
// Attribution capture. Each timed arm (campaign serial/parallel, zoo
// serial/parallel) gets its pool accounting read from the per-stage gauges
// the orchestrators export, its queue-wait/commit-hold histogram activity
// isolated as a before/after snapshot delta (the histograms are cumulative
// across the whole process), and — when tracing is live — a critical-path
// pass over only the spans recorded inside the arm's time window, so the
// two same-named stage roots (serial arm, parallel arm) never collide.
// ---------------------------------------------------------------------------

/// Cumulative-histogram activity attributable to one arm.
struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p99 = 0.0;
};

HistDelta hist_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  HistDelta d;
  const obs::MetricSample* a = after.find(name);
  if (a == nullptr) return d;
  const obs::MetricSample* b = before.find(name);
  std::vector<std::uint64_t> buckets = a->histogram_buckets;
  d.count = a->histogram_count;
  d.sum = a->histogram_sum;
  if (b != nullptr) {
    d.count -= b->histogram_count;
    d.sum -= b->histogram_sum;
    for (std::size_t i = 0;
         i < buckets.size() && i < b->histogram_buckets.size(); ++i)
      buckets[i] -= b->histogram_buckets[i];
  }
  d.p99 = obs::Histogram::quantile_from_counts(buckets, 0.99);
  return d;
}

/// Everything the attribution report needs about one timed arm.
struct ArmAttribution {
  double wall_s = 0.0;
  double busy_s = 0.0;
  double idle_s = 0.0;
  double workers = 0.0;
  double utilization = 0.0;
  HistDelta queue_wait;
  HistDelta commit_hold;
  obs::CriticalPathResult critical_path;
};

/// Critical path over only the spans that started inside [from_ns, to_ns].
obs::CriticalPathResult window_critical_path(std::uint64_t from_ns,
                                             std::uint64_t to_ns,
                                             const std::string& root) {
  const obs::TraceSink* sink = obs::TraceSink::current();
  if (sink == nullptr) return {};
  std::vector<obs::TraceEvent> window;
  for (obs::TraceEvent& e : sink->events()) {
    if (e.start_ns >= from_ns && e.start_ns <= to_ns)
      window.push_back(std::move(e));
  }
  return obs::CriticalPath::analyze(obs::SpanGraph::build(window), root);
}

/// Reads the arm's stage pool gauges (exported at the end of the arm) and
/// histogram deltas vs `before`. `stage` is the gauge label the
/// orchestrator exported ("campaign" or "validation").
ArmAttribution capture_arm(const char* stage, double wall_s,
                           const obs::MetricsSnapshot& before,
                           std::uint64_t from_ns, std::uint64_t to_ns,
                           const std::string& root_span) {
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", stage}};
  ArmAttribution arm;
  arm.wall_s = wall_s;
  arm.busy_s = registry.gauge("stage_pool_busy_seconds", labels).value();
  arm.idle_s = registry.gauge("stage_pool_idle_seconds", labels).value();
  arm.workers = registry.gauge("stage_pool_workers", labels).value();
  arm.utilization = registry.gauge("stage_pool_utilization", labels).value();
  const obs::MetricsSnapshot after = registry.snapshot();
  arm.queue_wait = hist_delta(before, after, "pool_queue_wait_seconds");
  arm.commit_hold = hist_delta(before, after, "pool_commit_hold_seconds");
  arm.critical_path = window_critical_path(from_ns, to_ns, root_span);
  return arm;
}

/// One stage's serial and parallel walls plus the parallel arm's measured
/// pool accounting. serial_section_seconds is the worker capacity
/// (jobs * wall) the arm spent outside any pool busy/idle window: setup,
/// baselines, checkpoint flushes and the ordered reduction.
void json_arm(std::ofstream& os, const char* key, std::size_t jobs,
              const ArmAttribution& serial, const ArmAttribution& parallel,
              bool last) {
  const obs::CriticalPathResult& cp = parallel.critical_path;
  const double serial_section_s = static_cast<double>(jobs) * parallel.wall_s -
                                  parallel.busy_s - parallel.idle_s;
  os << "    \"" << key << "\": {\n"
     << "      \"wall_serial_s\": " << serial.wall_s << ",\n"
     << "      \"wall_parallel_s\": " << parallel.wall_s << ",\n"
     << "      \"idle_seconds\": " << parallel.idle_s << ",\n"
     << "      \"serial_section_seconds\": " << serial_section_s << ",\n"
     << "      \"mean_worker_utilization\": " << parallel.utilization << ",\n"
     << "      \"pool_workers\": " << parallel.workers << ",\n"
     << "      \"pool_busy_seconds\": " << parallel.busy_s << ",\n"
     << "      \"queue_wait\": {\"sum_s\": " << parallel.queue_wait.sum
     << ", \"p99_s\": " << parallel.queue_wait.p99 << ", \"count\": "
     << parallel.queue_wait.count << "},\n"
     << "      \"commit_hold\": {\"sum_s\": " << parallel.commit_hold.sum
     << ", \"count\": " << parallel.commit_hold.count << "},\n"
     << "      \"critical_path_seconds\": " << cp.critical_path_seconds
     << ",\n"
     << "      \"parallel_overhead_seconds\": "
     << cp.parallel_overhead_seconds << ",\n"
     << "      \"critical_path_found\": " << (cp.found ? "true" : "false")
     << ",\n"
     << "      \"critical_path_coverage\": " << cp.coverage << ",\n"
     << "      \"critical_chain_length\": " << cp.chain_length << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

void print_arm(const char* name, const ArmAttribution& parallel) {
  if (parallel.critical_path.found) {
    std::printf(
      "critical path (%-8s): %8.3f s of %.3f s wall (chain %zu/%zu "
      "tasks); queue-wait p99 %.2g s, commit-hold sum %.2g s\n",
      name, parallel.critical_path.critical_path_seconds,
      parallel.critical_path.wall_seconds,
      parallel.critical_path.chain_length, parallel.critical_path.tasks,
      parallel.queue_wait.p99, parallel.commit_hold.sum);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(
      args, {"out", "sweep-scale", "jobs-sweep"});
  const obs::ObsSession session(config.run_session());
  const std::string out_path = args.get("out", "BENCH_pipeline.json");
  const std::size_t sweep_scale = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("sweep-scale", 1)));
  const std::string jobs_sweep = args.get("jobs-sweep", "");

  // The attribution pass below walks the span graph; keep tracing live
  // even when the run was started without --trace-out/--bundle-out. The
  // local sink is destroyed before `session` (reverse declaration order),
  // by which point every span has closed.
  std::unique_ptr<obs::TraceSink> local_sink;
  if (obs::TraceSink::current() == nullptr) {
    local_sink = std::make_unique<obs::TraceSink>();
    local_sink->install();
  }

  // --- Stage 1: trace profiling (stack-distance pass over one app trace).
  const sim::ApplicationSpec canneal = sim::find_application("canneal");
  const std::size_t trace_len = config.quick ? 200'000 : 2'000'000;
  sim::TraceGenerator generator(canneal.trace, config.seed);
  auto t0 = std::chrono::steady_clock::now();
  const std::vector<sim::LineAddress> trace = generator.generate(trace_len);
  const double generate_s = seconds_since(t0);

  // next_batch() must replay the per-reference next() stream exactly.
  bool trace_batch_identical = true;
  {
    sim::TraceGenerator scalar_gen(canneal.trace, config.seed);
    for (std::size_t i = 0; i < trace.size() && trace_batch_identical; ++i) {
      trace_batch_identical = scalar_gen.next() == trace[i];
    }
  }

  // Min-of-3: sub-second single-shot walls swing by tens of percent on a
  // shared host.
  double profile_s = 0.0;
  std::optional<sim::StackDistanceProfiler> profiler_opt;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = std::chrono::steady_clock::now();
    sim::StackDistanceProfiler run = sim::profile_trace(trace);
    const double wall = seconds_since(t0);
    if (rep == 0 || wall < profile_s) profile_s = wall;
    if (rep == 0) profiler_opt.emplace(std::move(run));
  }
  const sim::StackDistanceProfiler& profiler = *profiler_opt;

  std::printf("trace profiling      : %8.3f s  (%zu refs, %llu cold; "
              "gen %.3f s)\n",
              profile_s, trace.size(),
              static_cast<unsigned long long>(profiler.cold_misses()),
              generate_s);

  // --- Stage 2: collection campaign (Table V sweep on the 6-core Xeon),
  // serial vs. task-parallel. Each arm gets a fresh simulator so neither
  // benefits from the other's contention-solve cache; the sequenced
  // collector guarantees the two datasets are byte-identical.
  const std::size_t jobs = config.jobs != 0 ? config.jobs : configured_jobs();
  const sim::MachineConfig machine = sim::xeon_e5649();
  core::CampaignConfig campaign_config = core::CampaignConfig::paper_defaults();
  if (config.quick)
    campaign_config.pstate_indices = {0, machine.pstates.size() - 1};

  // --sweep-scale=N: clone every target N-1 times under derived names.
  // Clones share their donor's trace shape, so the sweep grows N-fold in
  // cells while the profile memo keeps cross-arm MRC work deduplicated.
  if (sweep_scale > 1) {
    const std::vector<sim::ApplicationSpec> originals = campaign_config.targets;
    for (std::size_t k = 2; k <= sweep_scale; ++k) {
      for (const sim::ApplicationSpec& app : originals) {
        sim::ApplicationSpec clone = app;
        clone.name = app.name + "~" + std::to_string(k);
        clone.trace.name = clone.name;
        campaign_config.targets.push_back(std::move(clone));
      }
    }
    std::printf("sweep scale          : %8zu x  (%zu target apps)\n",
                sweep_scale, campaign_config.targets.size());
  }

  sim::MeasurementOptions measurement;
  measurement.seed = config.seed;

  campaign_config.jobs = 1;
  sim::AppMrcLibrary serial_library;
  sim::Simulator serial_testbed(machine, &serial_library, measurement);
  serial_library.profile_all(campaign_config.targets);
  obs::MetricsSnapshot pre_arm = obs::Registry::global().snapshot();
  std::uint64_t arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign_serial =
      core::run_campaign(serial_testbed, campaign_config);
  const double campaign_serial_s = seconds_since(t0);
  const ArmAttribution campaign_serial_attr =
      capture_arm("campaign", campaign_serial_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "campaign");
  std::printf("campaign (serial)    : %8.3f s  (%zu rows)\n",
              campaign_serial_s, campaign_serial.dataset.num_rows());

  campaign_config.jobs = jobs;
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library, measurement);
  library.profile_all(campaign_config.targets);
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  const double campaign_s = seconds_since(t0);
  const ArmAttribution campaign_parallel_attr =
      capture_arm("campaign", campaign_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "campaign");
  const double campaign_speedup =
      campaign_s > 0.0 ? campaign_serial_s / campaign_s : 0.0;
  std::printf("campaign (jobs=%zu)   : %8.3f s  (%.2fx vs serial)\n", jobs,
              campaign_s, campaign_speedup);

  const bool campaign_identical =
      datasets_bit_identical(campaign.dataset, campaign_serial.dataset);

  // --- Stage 2a: jobs-scaling curve (--jobs-sweep=1,2,4,8). Each point
  // re-runs the (scaled) campaign at that jobs value; the profile memo
  // keeps the MRC work warm across points so the curve isolates
  // orchestration. Every point must reproduce the serial dataset
  // bit-for-bit. Each point is the minimum of three runs (fresh simulator
  // each, so no solve-cache carry-over): a paper-scale campaign is tens of
  // milliseconds, where one-shot walls are dominated by thread-spawn and
  // scheduler jitter. Speedups are quoted against the jobs=1 sweep point
  // when the list includes it (the same min-of-3 protocol on both sides),
  // falling back to the one-shot serial arm above.
  struct JobsScalingPoint {
    std::size_t jobs = 0;
    double wall_s = 0.0;
    double speedup_vs_serial = 0.0;
    bool bit_identical = true;
  };
  std::vector<JobsScalingPoint> jobs_scaling;
  bool jobs_sweep_identical = true;
  const std::vector<std::size_t> sweep_jobs = parse_jobs_list(jobs_sweep);
  for (const std::size_t j : sweep_jobs) {
    campaign_config.jobs = j;
    JobsScalingPoint point;
    point.jobs = j;
    point.wall_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      sim::AppMrcLibrary sweep_library;
      sim::Simulator sweep_testbed(machine, &sweep_library, measurement);
      sweep_library.profile_all(campaign_config.targets);
      t0 = std::chrono::steady_clock::now();
      const core::CampaignResult sweep_run =
          core::run_campaign(sweep_testbed, campaign_config);
      const double wall = seconds_since(t0);
      if (rep == 0 || wall < point.wall_s) point.wall_s = wall;
      if (rep == 0) {
        point.bit_identical = datasets_bit_identical(sweep_run.dataset,
                                                     campaign_serial.dataset);
      }
    }
    jobs_sweep_identical = jobs_sweep_identical && point.bit_identical;
    jobs_scaling.push_back(point);
  }
  const auto serial_point =
      std::find_if(jobs_scaling.begin(), jobs_scaling.end(),
                   [](const JobsScalingPoint& p) { return p.jobs == 1; });
  const double sweep_baseline_s =
      serial_point != jobs_scaling.end() ? serial_point->wall_s
                                         : campaign_serial_s;
  for (JobsScalingPoint& point : jobs_scaling) {
    point.speedup_vs_serial =
        point.wall_s > 0.0 ? sweep_baseline_s / point.wall_s : 0.0;
    std::printf("campaign (jobs=%zu sweep): %6.3f s  (%.2fx vs serial, %s)\n",
                point.jobs, point.wall_s, point.speedup_vs_serial,
                point.bit_identical ? "bit-identical" : "DIVERGED");
  }

  // --- Stage 2b: the 12-model evaluation zoo, serial vs. flattened batch
  // across the pool. Reduced partition/iteration counts keep the stage
  // proportionate; the equivalence gate is what matters on slow runners.
  // The race runs at >= 4 SCG restarts per MLP fit through the fused
  // multi-restart trainer in both arms: the serial arm schedules
  // validation serially, the parallel arm runs the flat task graph, so the
  // speedup and the bit-identity gate below cover the scheduler alone.
  // zoo_config itself stays untouched for Stage 2c so the bundle digest is
  // comparable across runs at default --restarts.
  core::EvaluationConfig zoo_config = config.evaluation();
  zoo_config.validation.partitions = std::min<std::size_t>(config.partitions,
                                                           10);
  zoo_config.zoo.mlp.max_iterations =
      std::min<std::size_t>(config.nn_iterations, 300);
  const std::size_t zoo_race_restarts =
      std::max<std::size_t>(config.restarts, 4);

  core::EvaluationConfig zoo_serial_config = zoo_config;
  zoo_serial_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_serial_config.validation.parallel = false;
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_serial =
      core::evaluate_model_zoo(campaign.dataset, zoo_serial_config);
  const double zoo_serial_s = seconds_since(t0);
  const ArmAttribution zoo_serial_attr =
      capture_arm("validation", zoo_serial_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "validation");
  std::printf("model zoo (serial)   : %8.3f s  (12 models, %zu partitions, "
              "%zu restarts)\n",
              zoo_serial_s, zoo_config.validation.partitions,
              zoo_race_restarts);

  core::EvaluationConfig zoo_parallel_config = zoo_config;
  zoo_parallel_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_parallel_config.validation.parallel = true;
  zoo_parallel_config.validation.jobs = jobs;
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_parallel =
      core::evaluate_model_zoo(campaign.dataset, zoo_parallel_config);
  const double zoo_parallel_s = seconds_since(t0);
  const ArmAttribution zoo_parallel_attr =
      capture_arm("validation", zoo_parallel_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "validation");
  const double zoo_speedup =
      zoo_parallel_s > 0.0 ? zoo_serial_s / zoo_parallel_s : 0.0;
  std::printf("model zoo (jobs=%zu)  : %8.3f s  (%.2fx vs serial)\n",
              jobs, zoo_parallel_s, zoo_speedup);

  bool zoo_identical =
      zoo_serial.evaluations.size() == zoo_parallel.evaluations.size();
  for (std::size_t i = 0; zoo_identical && i < zoo_serial.evaluations.size();
       ++i) {
    const auto& a = zoo_serial.evaluations[i].result;
    const auto& b = zoo_parallel.evaluations[i].result;
    zoo_identical = bitwise_equal(a.test_mpe, b.test_mpe) &&
                    bitwise_equal(a.train_mpe, b.train_mpe) &&
                    bitwise_equal(a.test_nrmse, b.test_nrmse) &&
                    bitwise_equal(a.train_nrmse, b.train_nrmse);
  }

  // --- Stage 2c: warm start from the artifact store. Train the full
  // twelve-model zoo once (cold), persist it as a checksummed bundle,
  // reload it, and require the reloaded models to serialize
  // byte-identically to the trained ones. The interesting number is the
  // warm-start speedup: what a deployment saves by shipping the bundle
  // instead of retraining at boot.
  const std::string zoo_bundle_dir =
      !config.zoo_out.empty() ? config.zoo_out : std::string("BENCH_zoo_bundle");
  const std::string zoo_load_dir =
      !config.zoo_in.empty() ? config.zoo_in : zoo_bundle_dir;
  store::FileOps& files = store::FileOps::real();

  t0 = std::chrono::steady_clock::now();
  const core::TrainedZoo zoo_cold =
      core::train_full_zoo(campaign.dataset, zoo_config.zoo);
  const double zoo_cold_s = seconds_since(t0);

  const store::ZooSaveResult saved = core::save_trained_zoo(
      files, zoo_bundle_dir, zoo_cold,
      {{"seed", std::to_string(config.seed)},
       {"machine", machine.name},
       {"nn_iters", std::to_string(zoo_config.zoo.mlp.max_iterations)}});
  obs::add_manifest_extra("zoo_bundle_digest", saved.bundle_digest);

  t0 = std::chrono::steady_clock::now();
  const core::ZooLoadOutcome warm = core::load_or_repair_zoo(
      files, zoo_load_dir, campaign.dataset, zoo_config.zoo);
  const double zoo_warm_s = seconds_since(t0);
  const double warm_speedup = zoo_warm_s > 0.0 ? zoo_cold_s / zoo_warm_s : 0.0;
  std::printf("zoo train (cold)     : %8.3f s  (12 models)\n", zoo_cold_s);
  std::printf("zoo load (warm)      : %8.3f s  (%.2fx vs cold; %zu "
              "retrained)\n",
              zoo_warm_s, warm_speedup, warm.retrained.size());

  bool zoo_warm_identical = warm.retrained.empty();
  for (const auto& [name, cold_model] : zoo_cold.models) {
    if (!zoo_warm_identical) break;
    const ml::Regressor* warm_model = warm.zoo.find(name);
    if (warm_model == nullptr) {
      zoo_warm_identical = false;
      break;
    }
    std::ostringstream cold_bytes, warm_bytes;
    ml::save_model(cold_bytes, *cold_model);
    ml::save_model(warm_bytes, *warm_model);
    zoo_warm_identical = cold_bytes.str() == warm_bytes.str();
  }

  const double end_to_end_serial_s = campaign_serial_s + zoo_serial_s;
  const double end_to_end_parallel_s = campaign_s + zoo_parallel_s;
  const double end_to_end_speedup =
      end_to_end_parallel_s > 0.0
          ? end_to_end_serial_s / end_to_end_parallel_s
          : 0.0;
  std::printf("end-to-end           : %8.3f s serial, %.3f s parallel "
              "(%.2fx)\n",
              end_to_end_serial_s, end_to_end_parallel_s, end_to_end_speedup);

  // Where did the parallel arms' wall go? Walk each one's span graph.
  print_arm("campaign", campaign_parallel_attr);
  print_arm("zoo", zoo_parallel_attr);

  // --- Stage 3: the paper's set-F MLP validation.
  ml::MlpOptions mlp = config.evaluation().zoo.mlp;
  mlp.hidden_units = core::hidden_units_for(core::FeatureSet::kF);
  const auto& columns = core::feature_set_columns(core::FeatureSet::kF);
  ml::ValidationOptions validation;
  validation.partitions = config.partitions;

  const ml::ModelFactory factory =
      [&mlp](const linalg::Matrix& x,
             std::span<const double> y) -> ml::RegressorPtr {
    return std::make_unique<ml::MlpRegressor>(ml::MlpRegressor::fit(x, y, mlp));
  };

  t0 = std::chrono::steady_clock::now();
  const ml::ValidationResult validated = ml::repeated_subsampling_validation(
      campaign.dataset, columns, factory, validation);
  const double validation_s = seconds_since(t0);
  std::printf("validation           : %8.3f s  (MPE %.3f%%, NRMSE %.3f; "
              "%zu partitions, set F)\n",
              validation_s, validated.test_mpe, validated.test_nrmse,
              validation.partitions);

  // --- Equivalence gates.
  std::vector<Gate> gates;

  // (a) the run-length-segmented trace batch must replay the per-reference
  // generator bit-for-bit.
  gates.push_back({"trace_batch_bit_identical",
                   trace_batch_identical ? 0.0 : 1.0, 0.0});

  // (b) the task-parallel orchestration layers must be byte-equivalent to
  // their serial counterparts: the campaign's sequenced collector and the
  // flattened model-zoo batch.
  gates.push_back({"campaign_parallel_bit_identical",
                   campaign_identical ? 0.0 : 1.0, 0.0});
  gates.push_back({"zoo_parallel_bit_identical", zoo_identical ? 0.0 : 1.0,
                   0.0});
  if (!jobs_scaling.empty()) {
    gates.push_back({"jobs_sweep_bit_identical",
                     jobs_sweep_identical ? 0.0 : 1.0, 0.0});
  }

  // (c) the store round-trip: models reloaded from the zoo bundle must be
  // byte-identical to the freshly trained zoo (and nothing retrained).
  gates.push_back({"zoo_warm_start_bit_identical",
                   zoo_warm_identical ? 0.0 : 1.0, 0.0});

  {  // (d) memoized contention solve must be bit-identical to a cold solve.
    const sim::ApplicationSpec cg = sim::find_application("cg");
    const std::vector<sim::ApplicationSpec> coapps(3, cg);
    const sim::RunMeasurement first =
        testbed.run_colocated(canneal, coapps, 0, /*repetition=*/11);
    const sim::RunMeasurement second =
        testbed.run_colocated(canneal, coapps, 0, /*repetition=*/11);
    gates.push_back({"solve_cache_bit_identical",
                     bitwise_equal(first.execution_time_s,
                                   second.execution_time_s)
                         ? 0.0
                         : 1.0,
                     0.0});
  }

  bool all_pass = true;
  std::printf("\nequivalence gates:\n");
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass();
    std::printf("  %-40s %s  (%.3e <= %.3e)\n", g.name,
                g.pass() ? "PASS" : "FAIL", g.value, g.limit);
  }

  auto& registry = obs::Registry::global();
  const std::uint64_t hits =
      registry.counter("sim_solve_cache_hits_total").value();
  const std::uint64_t misses =
      registry.counter("sim_solve_cache_misses_total").value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  std::printf("solve cache          : %llu hits / %llu misses (%.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), 100.0 * hit_rate);
  const std::uint64_t memo_hits =
      registry.counter("sim_profile_memo_hits_total").value();
  const std::uint64_t memo_misses =
      registry.counter("sim_profile_memo_misses_total").value();
  std::printf("profile memo         : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(memo_hits),
              static_cast<unsigned long long>(memo_misses));
  const std::uint64_t restarts_trained =
      registry.counter("scg_fused_restarts_total").value();
  const obs::Histogram& train_gemm = registry.histogram("train_gemm_seconds");
  const std::uint64_t design_hits =
      registry.counter("validation_design_memo_hits_total").value();
  const std::uint64_t design_misses =
      registry.counter("validation_design_memo_misses_total").value();
  std::printf("fused trainer        : %llu fused restarts, %.3f s in fused "
              "forward+backward (%llu fits)\n",
              static_cast<unsigned long long>(restarts_trained),
              train_gemm.sum(),
              static_cast<unsigned long long>(train_gemm.count()));
  std::printf("design memo          : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(design_hits),
              static_cast<unsigned long long>(design_misses));

  std::ofstream os(out_path, std::ios::trunc);
  if (os) {
    os.precision(17);
    os << "{\n"
       << "  \"program\": \"bench_perf_pipeline\",\n"
       << "  \"partitions\": " << validation.partitions << ",\n"
       << "  \"nn_iterations\": " << mlp.max_iterations << ",\n"
       << "  \"seed\": " << config.seed << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"sweep_scale\": " << sweep_scale << ",\n"
       << "  \"restarts\": " << config.restarts << ",\n"
       << "  \"zoo_race_restarts\": " << zoo_race_restarts << ",\n"
       << "  \"timings_s\": {\n"
       << "    \"trace_generate\": " << generate_s << ",\n"
       << "    \"trace_profile\": " << profile_s << ",\n"
       << "    \"campaign_serial\": " << campaign_serial_s << ",\n"
       << "    \"campaign_parallel\": " << campaign_s << ",\n"
       << "    \"zoo_serial\": " << zoo_serial_s << ",\n"
       << "    \"zoo_parallel\": " << zoo_parallel_s << ",\n"
       << "    \"zoo_train_cold\": " << zoo_cold_s << ",\n"
       << "    \"zoo_load_warm\": " << zoo_warm_s << ",\n"
       << "    \"end_to_end_serial\": " << end_to_end_serial_s << ",\n"
       << "    \"end_to_end_parallel\": " << end_to_end_parallel_s << ",\n"
       << "    \"validation\": " << validation_s << "\n  },\n"
       << "  \"campaign_speedup\": " << campaign_speedup << ",\n";
    os << "  \"jobs_scaling\": [\n";
    for (std::size_t i = 0; i < jobs_scaling.size(); ++i) {
      const JobsScalingPoint& p = jobs_scaling[i];
      os << "    {\"jobs\": " << p.jobs << ", \"wall_s\": " << p.wall_s
         << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
         << ", \"bit_identical\": " << (p.bit_identical ? "true" : "false")
         << "}" << (i + 1 == jobs_scaling.size() ? "\n" : ",\n");
    }
    os << "  ],\n"
       << "  \"zoo_speedup\": " << zoo_speedup << ",\n"
       << "  \"zoo_warm_start_speedup\": " << warm_speedup << ",\n"
       << "  \"zoo_bundle_digest\": \"" << saved.bundle_digest << "\",\n"
       << "  \"zoo_models_retrained\": " << warm.retrained.size() << ",\n"
       << "  \"end_to_end_speedup\": " << end_to_end_speedup << ",\n"
       << "  \"validation_metrics\": {\"test_mpe\": " << validated.test_mpe
       << ", \"test_nrmse\": " << validated.test_nrmse << "},\n"
       << "  \"solve_cache\": {\"hits\": " << hits << ", \"misses\": "
       << misses << ", \"hit_rate\": " << hit_rate << "},\n"
       << "  \"profile_memo\": {\"hits\": " << memo_hits << ", \"misses\": "
       << memo_misses << "},\n"
       << "  \"training\": {\"scg_fused_restarts_total\": " << restarts_trained
       << ", \"train_gemm_seconds_sum\": " << train_gemm.sum()
       << ", \"train_gemm_seconds_count\": " << train_gemm.count()
       << ", \"design_memo_hits\": " << design_hits
       << ", \"design_memo_misses\": " << design_misses << "},\n"
       << "  \"attribution\": {\n";
    json_arm(os, "campaign", jobs, campaign_serial_attr,
             campaign_parallel_attr, /*last=*/false);
    json_arm(os, "zoo", jobs, zoo_serial_attr, zoo_parallel_attr,
             /*last=*/true);
    os << "  },\n"
       << "  \"equivalence\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i)
      json_gate(os, gates[i], i + 1 == gates.size());
    os << "  ],\n"
       << "  \"equivalence_ok\": " << (all_pass ? "true" : "false") << "\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", out_path.c_str());
  }

  return all_pass ? 0 : 1;
}
