// Benchmark worker: runs one workload's set-up and timed passes and writes
// one JSON record per line to stdout (host, setup, pass, ledger, end).
// perfbench/run.py starts it, restarts it after a crashed pass, and turns
// the records into the benchmark's metrics.
//
//   coloc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--first-pass K] [--setups R] [--first-setup J]
//                   [--scratch DIR]
//
// With --trace 1 passes alternate untraced/traced (the pair gives the
// tracing overhead), then the per-layer ledger runs.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt,
                          std::uint64_t index) {
  // splitmix64 over a mix of the three inputs.
  std::uint64_t z = base * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Record::Record(const std::string& type) { body_ = "{\"type\":" + json_string(type); }

void Record::key(const std::string& k) { body_ += "," + json_string(k) + ":"; }

Record& Record::num(const std::string& k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

Record& Record::integer(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Record& Record::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

Record& Record::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Record& Record::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += json_number(values[i]);
  }
  body_ += "]";
  return *this;
}

Record& Record::object(const std::string& k,
                       const std::map<std::string, double>& values) {
  key(k);
  body_ += "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) body_ += ",";
    first = false;
    body_ += json_string(name) + ":" + json_number(v);
  }
  body_ += "}";
  return *this;
}

Record& Record::strings(const std::string& k,
                        const std::map<std::string, std::string>& values) {
  key(k);
  body_ += "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) body_ += ",";
    first = false;
    body_ += json_string(name) + ":" + json_string(v);
  }
  body_ += "}";
  return *this;
}

void Record::emit() const {
  std::fputs((body_ + "}\n").c_str(), stdout);
  std::fflush(stdout);
}

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(&tracer) {
  if (!tracer.enabled_) {
    tracer_ = nullptr;
    return;
  }
  index_ = tracer.spans_.size();
  tracer.spans_.push_back(SpanRecord{name, now_ns(), 0, tracer.open_});
  tracer.open_ = static_cast<std::int64_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord& span = tracer_->spans_[index_];
  span.end_ns = now_ns();
  tracer_->open_ = span.parent;
}

void Tracer::clear() {
  spans_.clear();
  open_ = -1;
}

Tracer::PassProfile Tracer::profile() const {
  PassProfile out;
  std::vector<double> child_s(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += d;
    } else {
      out.covered_s += d;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const std::string name = s.name;
    out.layer_self_s[name.substr(0, name.find('.'))] += d - child_s[i];
  }
  return out;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t first_pass = 0;
  std::uint64_t setups = 1;
  std::uint64_t first_setup = 0;
  std::string scratch = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "coloc_perfbench: %s\nusage: coloc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--first-pass K] "
               "[--setups R] [--first-setup J] [--scratch DIR]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage("bad value for " + flag + ": " + text);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      args.trace = parse_uint(flag, value) != 0;
    } else if (flag == "--first-pass") {
      args.first_pass = parse_uint(flag, value);
    } else if (flag == "--setups") {
      args.setups = parse_uint(flag, value);
    } else if (flag == "--first-setup") {
      args.first_setup = parse_uint(flag, value);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  return args;
}

// Registry reads for the pass record: summed over every label set.
struct CounterTotals {
  std::map<std::string, double> counters;
  std::vector<std::uint64_t> queue_wait_buckets;
};

CounterTotals read_counters() {
  static const char* kCounters[] = {
      "sim_profile_memo_hits_total", "sim_profile_memo_misses_total",
      "sim_solve_cache_hits_total", "sim_solve_cache_misses_total"};
  CounterTotals totals;
  const coloc::obs::MetricsSnapshot snap =
      coloc::obs::Registry::global().snapshot();
  for (const char* name : kCounters) totals.counters[name] = 0.0;
  totals.queue_wait_buckets.assign(coloc::obs::Histogram::kNumBuckets, 0);
  for (const coloc::obs::MetricSample& s : snap.samples) {
    auto it = totals.counters.find(s.name);
    if (it != totals.counters.end()) {
      it->second += static_cast<double>(s.counter_value);
    } else if (s.name == "pool_queue_wait_seconds") {
      for (std::size_t b = 0; b < s.histogram_buckets.size() &&
                              b < totals.queue_wait_buckets.size();
           ++b) {
        totals.queue_wait_buckets[b] += s.histogram_buckets[b];
      }
    }
  }
  return totals;
}

// The process's peak resident set so far (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int run(const Args& args) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  coloc::set_configured_jobs(nproc);
  emit_host_record();

  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.scratch);
  for (std::uint64_t r = 0; r < args.setups; ++r) {
    const auto t0 = Clock::now();
    workload->setup(args.first_setup + r);
    Record("setup")
        .integer("repeat", args.first_setup + r)
        .num("s", seconds_since(t0))
        .emit();
  }

  Tracer tracer;
  const auto measure_start = Clock::now();
  std::uint64_t done = 0;
  while (done == 0 || seconds_since(measure_start) < args.seconds ||
         (args.trace && done < 2)) {
    const std::uint64_t index = args.first_pass + done;
    // Traced runs alternate untraced and traced passes so both see the
    // same inputs mix and host state.
    const bool traced = args.trace && (done % 2 == 1);
    tracer.set_enabled(traced);
    tracer.clear();
    const CounterTotals before = read_counters();
    // Each pass starts with free heap memory returned to the OS, as a fresh
    // process would. Otherwise memory that per-thread arenas kept from
    // earlier passes piles up by scheduling luck and the process peak
    // varies by ~20% between runs.
    malloc_trim(0);
    PassResult result;
    try {
      result = workload->pass(index, tracer);
    } catch (const std::exception& e) {
      Record("pass_error").integer("index", index).str("error", e.what()).emit();
      ++done;
      continue;
    }
    const CounterTotals after = read_counters();
    std::map<std::string, double> counters;
    for (const auto& [name, v] : after.counters) {
      counters[name] = v - before.counters.at(name);
    }
    std::vector<double> wait_buckets;
    for (std::size_t b = 0; b < after.queue_wait_buckets.size(); ++b) {
      wait_buckets.push_back(static_cast<double>(
          after.queue_wait_buckets[b] - before.queue_wait_buckets[b]));
    }
    Record rec("pass");
    rec.integer("index", index)
        .flag("traced", traced)
        .num("wall_s", result.wall_s)
        .num("peak_rss_mb", peak_rss_mib())
        .num("units", result.units)
        .integer("ops", result.ops)
        .integer("failed_ops", result.failed_ops)
        .object("values", result.values)
        .object("counters", counters)
        .nums("queue_wait_buckets", wait_buckets)
        .strings("digests", result.digests);
    std::map<std::string, std::string> checks, errors;
    for (const std::string& c : result.failed_checks) checks[c] = "failed";
    for (const std::string& e : result.errors) errors[e] = "threw";
    rec.strings("failed_checks", checks).strings("errors", errors);
    if (traced) {
      const Tracer::PassProfile p = tracer.profile();
      rec.object("layer_self_s", p.layer_self_s).num("covered_s", p.covered_s);
    }
    rec.emit();
    ++done;
  }
  if (args.trace) run_ledger(args.seed, args.scratch);
  Record("end").emit();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coloc_perfbench: %s\n", e.what());
    return 1;
  }
}
