#include "sim/app_model.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace coloc::sim {
namespace {

TEST(AppSuite, HasElevenApplications) {
  EXPECT_EQ(benchmark_suite().size(), 11u);
}

TEST(AppSuite, CoversAllFourClasses) {
  std::map<MemoryClass, int> counts;
  for (const auto& app : benchmark_suite()) ++counts[app.memory_class];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [cls, count] : counts) EXPECT_GE(count, 2);
}

TEST(AppSuite, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& app : benchmark_suite()) names.insert(app.name);
  EXPECT_EQ(names.size(), 11u);
}

TEST(AppSuite, ContainsPaperNamedApplications) {
  // Applications the paper names explicitly.
  for (const char* name : {"cg", "sp", "fluidanimate", "ep", "canneal"}) {
    EXPECT_NO_THROW(find_application(name)) << name;
  }
}

TEST(AppSuite, BothSuitesRepresented) {
  bool parsec = false, nas = false;
  for (const auto& app : benchmark_suite()) {
    parsec |= app.suite == Suite::kParsec;
    nas |= app.suite == Suite::kNas;
  }
  EXPECT_TRUE(parsec);
  EXPECT_TRUE(nas);
}

TEST(AppSuite, TrainingCoAppsSpanTheFourClasses) {
  // Section IV-B3: cg, sp, fluidanimate, ep — one per class.
  const auto names = training_coapp_names();
  ASSERT_EQ(names.size(), 4u);
  std::set<MemoryClass> classes;
  for (const auto& name : names)
    classes.insert(find_application(name).memory_class);
  EXPECT_EQ(classes.size(), 4u);
}

TEST(AppSuite, CompulsoryRatesOrderedByClass) {
  // Class I apps must have (much) higher capacity-independent traffic than
  // class IV apps — the orders-of-magnitude spread of Table III.
  double class1_min = 1.0, class4_max = 0.0;
  for (const auto& app : benchmark_suite()) {
    if (app.memory_class == MemoryClass::kClassI) {
      class1_min =
          std::min(class1_min, app.compulsory_misses_per_instruction);
    }
    if (app.memory_class == MemoryClass::kClassIV) {
      class4_max =
          std::max(class4_max, app.compulsory_misses_per_instruction);
    }
  }
  EXPECT_GT(class1_min, 1000.0 * class4_max);
}

TEST(AppSuite, SaneParameterRanges) {
  for (const auto& app : benchmark_suite()) {
    EXPECT_GT(app.instructions, 1e11) << app.name;
    EXPECT_LT(app.instructions, 1e13) << app.name;
    EXPECT_GT(app.cpi_base, 0.0) << app.name;
    EXPECT_GE(app.mlp, 1.0) << app.name;
    EXPECT_GT(app.refs_per_instruction, 0.0) << app.name;
    EXPECT_LT(app.refs_per_instruction, 0.2) << app.name;
    EXPECT_FALSE(app.trace.phases.empty()) << app.name;
  }
}

TEST(AppSuite, UnknownApplicationThrows) {
  EXPECT_THROW(find_application("doom"), invalid_argument_error);
}

TEST(AppSuite, ProfileLengthScalesWithWorkingSet) {
  const ApplicationSpec cg = find_application("cg");
  std::size_t max_ws = 0;
  for (const auto& p : cg.trace.phases)
    max_ws = std::max(max_ws, p.working_set_lines);
  EXPECT_GE(cg.suggested_profile_length(), 3 * max_ws);
  ApplicationSpec with_override = cg;
  with_override.profile_references = 777;
  EXPECT_EQ(with_override.suggested_profile_length(), 777u);
}

ApplicationSpec tiny_app(const std::string& name, std::size_t ws) {
  ApplicationSpec a;
  a.name = name;
  a.trace.name = name;
  Phase p;
  p.working_set_lines = ws;
  p.mix = {.hot_cold = 1.0};
  a.trace.phases = {p};
  a.profile_references = 100'000;
  return a;
}

TEST(AppMrcLibraryTest, ProfilesAndCaches) {
  AppMrcLibrary lib;
  const ApplicationSpec app = tiny_app("tiny", 2000);
  const MissRatioCurve& c1 = lib.curve(app);
  EXPECT_FALSE(c1.empty());
  EXPECT_TRUE(lib.contains("tiny"));
  const MissRatioCurve& c2 = lib.curve(app);
  EXPECT_EQ(&c1, &c2);  // cached, not re-profiled
}

TEST(AppMrcLibraryTest, ProfileAllCoversEveryApp) {
  AppMrcLibrary lib;
  std::vector<ApplicationSpec> apps = {tiny_app("a", 500),
                                       tiny_app("b", 1000),
                                       tiny_app("c", 1500)};
  lib.profile_all(apps);
  EXPECT_EQ(lib.size(), 3u);
  for (const auto& app : apps) EXPECT_TRUE(lib.contains(app.name));
}

TEST(AppMrcLibraryTest, CurveIsMonotone) {
  AppMrcLibrary lib;
  const MissRatioCurve& curve = lib.curve(tiny_app("mono", 4000));
  double prev = 1.1;
  for (double c = 1; c < 8000; c *= 2) {
    const double r = curve.miss_ratio(c);
    EXPECT_LE(r, prev + 1e-12);
    prev = r;
  }
}

TEST(AppMrcLibraryTest, WorkingSetFitsMeansNoWarmMisses) {
  AppMrcLibrary lib;
  const MissRatioCurve& curve = lib.curve(tiny_app("fits", 300));
  EXPECT_NEAR(curve.miss_ratio(300.0), 0.0, 1e-9);
}

TEST(AppMrcLibraryTest, ProfileTimesEachKernel) {
  // One profile (a memo miss: no other test uses this seed) observes trace
  // generation and stack distance once each, and together they fit inside
  // the whole-profile time.
  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& gen = registry.histogram("trace_gen_seconds");
  obs::Histogram& sd = registry.histogram("stack_distance_seconds");
  obs::Histogram& total = registry.histogram("trace_profile_seconds");
  const std::uint64_t gen_count = gen.count(), sd_count = sd.count(),
                      total_count = total.count();
  const double gen_sum = gen.sum(), sd_sum = sd.sum(),
               total_sum = total.sum();
  AppMrcLibrary lib;
  lib.profile_all({tiny_app("timed", 2500)}, 0x71e5'0117ULL);
  EXPECT_EQ(gen.count(), gen_count + 1);
  EXPECT_EQ(sd.count(), sd_count + 1);
  EXPECT_EQ(total.count(), total_count + 1);
  EXPECT_GT(sd.sum() - sd_sum, 0.0);
  EXPECT_LE((gen.sum() - gen_sum) + (sd.sum() - sd_sum),
            total.sum() - total_sum);
}

TEST(ToStringTest, ClassAndSuiteNames) {
  EXPECT_EQ(to_string(MemoryClass::kClassI), "Class I");
  EXPECT_EQ(to_string(MemoryClass::kClassIV), "Class IV");
  EXPECT_EQ(to_string(Suite::kParsec), "P");
  EXPECT_EQ(to_string(Suite::kNas), "N");
}

}  // namespace
}  // namespace coloc::sim
