// Perf attribution: explains where a run's wall clock went.
//
// Three layers, each usable on its own:
//
//   1. SpanGraph — a parsed view of a trace (live TraceSink events or an
//      exported trace.json) with parent/child + cross-thread task edges
//      resolved, and orphaned edges (a parent id missing from the trace)
//      counted rather than silently dropped.
//   2. CriticalPath — per stage root span (campaign, validation, ...),
//      the longest chain of non-overlapping dependent child spans: the
//      time the stage could not possibly go below with infinite workers.
//      wall - critical_path is the attributable parallelization overhead
//      (queue wait, commit-order stalls, idle workers) that explains a
//      sub-1x parallel speedup such as the recorded 0.94x.
//   3. BundleData + render_report/diff_bundles — load a run bundle
//      (manifest.json + metrics.json + trace.json, as written by the
//      benches' --bundle-out), print a human-readable attribution report,
//      or diff two bundles against regression thresholds for CI gating
//      (tools/obs_report is a thin CLI over these).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace coloc::obs {

/// One span with its dependency edge, normalized from either a live
/// TraceSink or an exported chrome trace.
struct Span {
  std::string name;
  std::string category;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;

  std::uint64_t end_ns() const { return start_ns + duration_ns; }
};

struct SpanGraph {
  std::vector<Span> spans;  // sorted by start_ns
  /// Spans whose parent_id is non-zero but absent from the trace. A
  /// healthy trace has zero: every edge either resolves or is a root.
  std::size_t orphaned_edges = 0;

  /// From live TraceSink events (counters are skipped).
  static SpanGraph build(const std::vector<TraceEvent>& events);
  /// From an exported chrome trace file ("ph":"X" events; id/parent are
  /// read back out of "args"). Throws on unreadable/malformed JSON.
  static SpanGraph from_chrome_json(const std::string& path);

  /// First span with this name (spans are start-sorted), or nullptr.
  const Span* find_by_name(const std::string& name) const;
  /// Direct children of `parent` (any thread), start-sorted.
  std::vector<const Span*> children_of(std::uint64_t parent) const;
};

struct CriticalPathResult {
  bool found = false;            // root span present in the trace
  double wall_seconds = 0.0;     // the root span's own duration
  /// Longest chain of pairwise non-overlapping direct children of the
  /// root — the stage's irreducible dependent work as observed.
  double critical_path_seconds = 0.0;
  /// wall - critical_path, clamped at 0: wall clock not explained by the
  /// longest dependent chain, i.e. attributable parallelization overhead.
  double parallel_overhead_seconds = 0.0;
  std::size_t chain_length = 0;  // spans on the critical chain
  std::size_t tasks = 0;         // direct children considered
  /// sum(child durations) / wall. >~1 means the children cover the stage
  /// (parallel arms exceed 1); << 1 means spans were stride-sampled and
  /// the critical path under-reports (flagged in the report).
  double coverage = 0.0;
};

class CriticalPath {
 public:
  /// Analyzes the first span named `root_name` (e.g. "campaign",
  /// "validation"). The chain is computed by weighted-interval
  /// scheduling over the root's direct children: two children are
  /// dependent (chainable) when one ends before the other starts.
  static CriticalPathResult analyze(const SpanGraph& graph,
                                    const std::string& root_name);
};

/// Histogram read back from an exported metrics.json: only non-zero
/// buckets are present, each (upper bound, per-bucket count).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  // le may be +inf

  double mean() const;
  /// Bucket-resolution quantile, mirroring Histogram::quantile.
  double quantile(double q) const;
};

/// One metric parsed back from metrics.json.
struct MetricEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;  // counter/gauge
  HistogramStats histogram;
};

struct MetricsDoc {
  std::vector<MetricEntry> entries;

  static MetricsDoc load_file(const std::string& path);

  /// First entry matching name whose labels include all of `labels`.
  const MetricEntry* find(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels = {})
      const;
  /// Gauge/counter value, or `fallback` when absent.
  double value_or(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels,
      double fallback) const;
};

/// A loaded run bundle: manifest + metrics (+ trace when present).
struct BundleData {
  std::string dir;
  Manifest manifest;
  MetricsDoc metrics;
  SpanGraph trace;
  bool has_trace = false;

  /// `path` is a bundle directory (containing manifest.json) or a direct
  /// path to a manifest.json. metrics.json/trace.json are loaded from the
  /// same directory; the trace is optional, the other two are not.
  static BundleData load(const std::string& path);
};

/// Human-readable attribution report for one bundle: build/run identity,
/// per-stage wall + pool accounting, queue-wait / exec / commit-hold
/// histograms, and per-stage critical path when a trace is present.
std::string render_report(const BundleData& bundle);

struct DiffThresholds {
  /// Regression when a stage's wall time grows by at least this percent.
  double stage_wall_pct = 10.0;
  /// Regression when pool_queue_wait_seconds p99 grows by at least this
  /// percent (bucket-quantized: log-2 buckets resolve ~doublings).
  double queue_wait_p99_pct = 25.0;
  /// Regression when placement_predict_seconds p99 grows by at least this
  /// percent — the placement service's query-latency SLO gate.
  double predict_p99_pct = 25.0;
  /// Regression when the manifest's train_gemm_seconds_sum grows by at
  /// least this percent — the fused-trainer throughput gate (catches the
  /// fused path silently falling back as well as kernel regressions).
  /// Despite its name, train_gemm_seconds times the whole fused forward
  /// and backward (gather, GEMM, tanh, output layer, backward sweep); the
  /// train_phase_*_seconds figures split it.
  double train_gemm_sum_pct = 25.0;
};

struct DiffResult {
  std::string text;                     // full human-readable diff
  std::vector<std::string> regressions; // one line per tripped threshold
  bool regression = false;
};

/// Structured diff of two bundles (baseline vs current). Thresholds use
/// >= with a tiny tolerance, so an exactly-at-threshold regression trips.
DiffResult diff_bundles(const BundleData& baseline,
                        const BundleData& current,
                        const DiffThresholds& thresholds = {});

}  // namespace coloc::obs
