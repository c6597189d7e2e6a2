// Phase-level analysis: makes the temporal structure of each application's
// memory behaviour visible ([SaS13]), then explains why the methodology
// can ignore it (the paper's claim (c): "a fine level of detail is not
// always necessary to achieve reasonable prediction accuracy").
//
// For each application we drive its trace through a private-cache + LLC
// hierarchy in windows and print a strip chart of windowed memory
// intensity plus its variability coefficient. Applications with multiple
// trace phases show clearly banded strips, yet the run-aggregate counters
// (exactly what the models consume) already separate the four classes by
// orders of magnitude.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/app_model.hpp"
#include "sim/machine.hpp"
#include "sim/phase_profiler.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  try {
    CliArgs(argc, argv).reject_unknown({});  // takes no flags
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phase_analysis: %s\n", e.what());
    return 2;
  }

  const sim::MachineConfig machine = sim::xeon_e5649();
  const std::size_t window = 20'000;
  const std::size_t total = 2'000'000;

  std::printf(
      "Windowed LLC miss intensity per application (one char per ~%zuk "
      "references; denser = more intense):\n\n",
      window * 80 / 1000 / 80);

  TextTable summary("Phase variability vs run-aggregate intensity");
  summary.set_columns({"application", "class", "windows",
                       "mean intensity", "variability (CV)"});

  for (const auto& app : sim::benchmark_suite()) {
    sim::TraceGenerator gen(app.trace, /*seed=*/2024);
    sim::CacheConfig private_cache;
    private_cache.name = "private";
    private_cache.size_bytes = machine.private_bytes;
    private_cache.line_bytes = machine.line_bytes;
    private_cache.associativity = 8;
    sim::CacheConfig llc;
    llc.name = "LLC";
    llc.size_bytes = machine.llc_bytes;
    llc.line_bytes = machine.line_bytes;
    llc.associativity = machine.llc_associativity;
    sim::CacheHierarchy hierarchy({private_cache, llc});

    const auto samples = sim::profile_phases(gen, hierarchy, total, window);
    const sim::PhaseSummary phase_summary = sim::summarize_phases(samples);

    std::printf("%-14s |%s|\n", app.name.c_str(),
                sim::render_phase_strip(samples, 60).c_str());
    std::ostringstream mean_str;
    mean_str.precision(2);
    mean_str << std::scientific << phase_summary.mean_miss_intensity;
    summary.add_row({app.name, to_string(app.memory_class),
                     TextTable::num(phase_summary.windows),
                     mean_str.str(),
                     TextTable::num(phase_summary.variability(), 2)});
  }
  std::printf("\n");
  summary.print(std::cout);
  std::printf(
      "Despite visible phase structure (nonzero CV), the run-aggregate\n"
      "mean intensities separate the classes by orders of magnitude —\n"
      "which is why the paper's single-baseline-measurement features\n"
      "suffice for ~2%% prediction error (claim (c)).\n");
  return 0;
}
