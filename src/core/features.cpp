#include "core/features.hpp"

#include "common/error.hpp"

namespace coloc::core {

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> kNames = {
      "baseExTime",  "numCoApp",    "coAppMem",    "targetMem",
      "coAppCM_CA",  "coAppCA_INS", "targetCM_CA", "targetCA_INS",
  };
  return kNames;
}

std::string to_string(FeatureId id) {
  return feature_names()[static_cast<std::size_t>(id)];
}

double BaselineProfile::time_at(std::size_t pstate_index) const {
  COLOC_CHECK_MSG(pstate_index < execution_time_s.size(),
                  "no baseline for that P-state");
  return execution_time_s[pstate_index];
}

BaselineProfile collect_baseline(sim::MeasurementSource& source,
                                 const sim::ApplicationSpec& app,
                                 fault::ResilientRunner* runner) {
  BaselineProfile profile;
  profile.app_name = app.name;
  const std::size_t num_pstates = source.machine().pstates.size();
  profile.execution_time_s.reserve(num_pstates);
  for (std::size_t p = 0; p < num_pstates; ++p) {
    sim::RunMeasurement m;
    if (runner != nullptr) {
      const std::string tag = "baseline|" + app.name + "|p" +
                              std::to_string(p);
      // No earlier reference exists for a baseline, so the slowdown
      // plausibility bound cannot apply (reference 0). But the baseline
      // is the sweep's most load-bearing reading — an undetected outlier
      // here poisons a feature column AND the reference of every campaign
      // cell of this (app, P-state). Guard it by run-to-run agreement: a
      // confirmation read at a disjoint repetition seed must land within
      // 3x. The recorded value is still the primary read, so fault-free
      // numerics are unchanged.
      constexpr std::uint64_t kConfirmRepOffset = 1u << 20;
      auto measured = runner->measure_cell(
          tag, 0.0, [&](std::uint64_t attempt) {
            sim::RunMeasurement primary = source.run_alone(app, p, attempt);
            const sim::RunMeasurement confirm =
                source.run_alone(app, p, kConfirmRepOffset + attempt);
            const double ratio = primary.execution_time_s /
                                 confirm.execution_time_s;
            if (!(ratio > 1.0 / 3.0 && ratio < 3.0)) {
              throw MeasurementError(
                  ErrorClass::kCorruptedData,
                  "baseline disagrees with its confirmation read: " + tag);
            }
            return primary;
          });
      if (!measured) {
        throw MeasurementError(ErrorClass::kPermanent,
                               "baseline quarantined: " + tag);
      }
      m = std::move(*measured);
    } else {
      m = source.run_alone(app, p);
    }
    profile.execution_time_s.push_back(m.execution_time_s);
    if (p == 0) {
      // Counter ratios from the P0 run; they are frequency-invariant.
      profile.memory_intensity = m.counters.memory_intensity();
      profile.cm_per_ca = m.counters.cm_per_ca();
      profile.ca_per_ins = m.counters.ca_per_ins();
    }
  }
  return profile;
}

BaselineLibrary collect_baselines(
    sim::MeasurementSource& source,
    const std::vector<sim::ApplicationSpec>& apps,
    fault::ResilientRunner* runner) {
  BaselineLibrary library;
  for (const auto& app : apps) {
    if (runner == nullptr) {
      library.emplace(app.name, collect_baseline(source, app));
      continue;
    }
    try {
      library.emplace(app.name, collect_baseline(source, app, runner));
    } catch (const MeasurementError&) {
      // Already quarantined (and logged) by the runner; the campaign
      // degrades by skipping every cell that involves this application.
    }
  }
  return library;
}

std::array<double, kNumFeatures> compute_features(
    const BaselineProfile& target,
    const std::vector<const BaselineProfile*>& coapps,
    std::size_t pstate_index) {
  std::array<double, kNumFeatures> f{};
  f[static_cast<std::size_t>(FeatureId::kBaseExTime)] =
      target.time_at(pstate_index);
  f[static_cast<std::size_t>(FeatureId::kNumCoApp)] =
      static_cast<double>(coapps.size());
  double co_mem = 0.0, co_cmca = 0.0, co_cains = 0.0;
  for (const BaselineProfile* co : coapps) {
    COLOC_CHECK_MSG(co != nullptr, "null co-app baseline");
    co_mem += co->memory_intensity;
    co_cmca += co->cm_per_ca;
    co_cains += co->ca_per_ins;
  }
  f[static_cast<std::size_t>(FeatureId::kCoAppMem)] = co_mem;
  f[static_cast<std::size_t>(FeatureId::kTargetMem)] =
      target.memory_intensity;
  f[static_cast<std::size_t>(FeatureId::kCoAppCmCa)] = co_cmca;
  f[static_cast<std::size_t>(FeatureId::kCoAppCaIns)] = co_cains;
  f[static_cast<std::size_t>(FeatureId::kTargetCmCa)] = target.cm_per_ca;
  f[static_cast<std::size_t>(FeatureId::kTargetCaIns)] = target.ca_per_ins;
  return f;
}

}  // namespace coloc::core
