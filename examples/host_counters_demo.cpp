// Live-hardware demonstration: profile the bundled microbenchmark kernels
// with real perf_event counters (the PAPI-preset analogue of Section
// IV-A2) and derive the same baseline features the methodology consumes.
// Degrades gracefully — and says so — when the host forbids counters
// (containers, perf_event_paranoid, missing PMU).
#include <cstdio>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "counters/host_profiler.hpp"
#include "counters/perf_event.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  try {
    CliArgs(argc, argv).reject_unknown({});  // takes no flags
  } catch (const std::exception& e) {
    std::fprintf(stderr, "host_counters_demo: %s\n", e.what());
    return 2;
  }

  if (!counters::perf_counters_available()) {
    std::printf(
        "perf_event counters are unavailable on this host (container,\n"
        "perf_event_paranoid, or no PMU). The methodology falls back to\n"
        "the simulated testbed — see the quickstart example.\n");
    return 0;
  }

  std::printf("profiling microbenchmark kernels with hardware counters...\n");
  const auto results = counters::profile_suite();
  if (results.empty()) {
    std::printf("counter session failed to open; nothing to report.\n");
    return 0;
  }

  TextTable table("Host baselines via perf_event (Table III analogue)");
  table.set_columns({"kernel", "time (s)", "instructions", "LLC misses",
                     "memory intensity", "CM/CA", "CA/INS"});
  for (const auto& r : results) {
    std::ostringstream mi, ins, misses;
    mi << std::scientific << std::setprecision(2) << r.memory_intensity();
    ins << std::scientific << std::setprecision(2)
        << r.counters.get(sim::PresetEvent::kTotalInstructions);
    misses << std::scientific << std::setprecision(2)
           << r.counters.get(sim::PresetEvent::kLlcMisses);
    table.add_row({r.name, TextTable::num(r.execution_time_s, 3), ins.str(),
                   misses.str(), mi.str(),
                   TextTable::num(r.cm_per_ca(), 3),
                   TextTable::num(r.ca_per_ins(), 4)});
  }
  table.print(std::cout);
  std::printf(
      "These are exactly the baseline features (memory intensity, CM/CA,\n"
      "CA/INS) that feed the co-location models — demonstrating the\n"
      "methodology ports from the simulated testbed to live hardware.\n");
  return 0;
}
