// Shared pieces of the benchmark harness: seed derivation, the JSON-lines
// record format, the harness-side span tracer, and the workload/ledger
// entry points. See perfbench/README.md for what each workload measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Derives an independent 64-bit seed for (base, salt, index): every input
/// of a run is a pure function of the --seed argument.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt,
                          std::uint64_t index = 0);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::string hex64(std::uint64_t v);

/// One JSON object written as a single stdout line. Keys are emitted in
/// insertion order; doubles keep all 17 significant digits.
class Record {
 public:
  explicit Record(const std::string& type);
  Record& num(const std::string& key, double value);
  Record& integer(const std::string& key, std::uint64_t value);
  Record& str(const std::string& key, const std::string& value);
  Record& flag(const std::string& key, bool value);
  Record& nums(const std::string& key, const std::vector<double>& values);
  Record& object(const std::string& key,
                 const std::map<std::string, double>& values);
  Record& strings(const std::string& key,
                  const std::map<std::string, std::string>& values);
  /// Writes the record and flushes, so a later crash cannot lose it.
  void emit() const;

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Harness-side tracer: a span around every call the harness makes into a
/// library layer's public function. Span names are "<layer>.<function>";
/// spans are kept in memory for the current pass and reduced to per-layer
/// self time (span duration minus the part its child spans cover) when the
/// pass ends. Disabled, a span costs one branch.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  struct PassProfile {
    std::map<std::string, double> layer_self_s;  // keyed by layer
    double covered_s = 0.0;  // union of top-level spans
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Drops recorded spans (start of a pass).
  void clear();
  /// Reduces the spans recorded since clear().
  PassProfile profile() const;

 private:
  struct SpanRecord {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 for top level
  };
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::int64_t open_ = -1;  // innermost open span
};

/// Outcome of one workload pass. `ops` counts the operations the pass
/// attempted (campaign cells, model fits, placement decisions, replayed
/// jobs); `failed_ops` counts quarantined cells, non-finite predictions,
/// failed checks and operations that threw among them. `failed_checks`
/// names outputs that came out wrong; `errors` holds what threw.
struct PassResult {
  double wall_s = 0.0;
  double units = 0.0;  // the workload's unit of work, see README.md
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> failed_checks;
  std::vector<std::string> errors;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> values;  // workload outputs (MPE, ...)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the state the passes need. `repeat` selects fresh profiling
  /// seeds so every repeat pays the full cost (no memo carry-over).
  virtual void setup(std::uint64_t repeat) = 0;
  virtual PassResult pass(std::uint64_t index, Tracer& tracer) = 0;
};

/// Names: paper_fit, characterize, resweep, placement.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir);
const std::vector<std::string>& workload_names();

/// Placement regime shared by the workload and the ledger replay.
inline constexpr double kLoadedUtilization = 0.65;
inline constexpr std::size_t kFleetNodes = 64;

/// The per-layer probe ledger (traced runs only): fixed-size calls into
/// every layer's public functions, plus the host ceilings. Emits one
/// "ledger" record.
void run_ledger(std::uint64_t seed, const std::string& scratch_dir);

/// Host provenance ("host" record) and ceilings.
void emit_host_record();
double fma_peak_gflops();  // one core
struct StreamResult {
  double gbps = 0.0;
  double array_mib = 0.0;
};
StreamResult stream_triad();  // one thread
double llc_mib();

}  // namespace perfbench
