#include "sched/dvfs_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "common/error.hpp"
#include "test_helpers.hpp"

namespace coloc::sched {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class DvfsPolicyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new sim::AppMrcLibrary();
    simulator_ = new sim::Simulator(tiny_machine(), library_);
    core::CampaignConfig config;
    config.targets = tiny_suite();
    config.coapps = {config.targets[0], config.targets[3]};
    campaign_ =
        new core::CampaignResult(core::run_campaign(*simulator_, config));
    core::ModelZooOptions zoo;
    zoo.mlp.max_iterations = 400;
    predictor_ = new core::ColocationPredictor(
        core::ColocationPredictor::train(
            campaign_->dataset,
            {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
            zoo));
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete campaign_;
    delete simulator_;
    delete library_;
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static core::CampaignResult* campaign_;
  static core::ColocationPredictor* predictor_;
};

sim::AppMrcLibrary* DvfsPolicyTest::library_ = nullptr;
sim::Simulator* DvfsPolicyTest::simulator_ = nullptr;
core::CampaignResult* DvfsPolicyTest::campaign_ = nullptr;
core::ColocationPredictor* DvfsPolicyTest::predictor_ = nullptr;

TEST_F(DvfsPolicyTest, LooseDeadlinePicksEnergyOptimalState) {
  // With an effectively infinite deadline, the chosen state must be the
  // energy argmin over the ladder (with our presets' static power, that
  // is often race-to-idle — the policy should find whichever wins).
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, /*deadline=*/1e9);
  ASSERT_TRUE(d.feasible);
  const double chosen_energy = d.predicted_energy_j;
  for (std::size_t p = 0; p < tiny_machine().pstates.size(); ++p) {
    const double t = predictor_->predict_time(target, {}, p);
    const double e = energy_j(tiny_machine(), p, 1, t);
    EXPECT_GE(e, chosen_energy - 1e-9) << "P" << p << " beats the choice";
  }
}

TEST_F(DvfsPolicyTest, WithoutStaticPowerSlowestStateWins) {
  // Strip static power: dynamic-only energy scales as V^2 (time x f
  // cancels f), so the lowest-voltage (slowest) state is optimal for a
  // CPU-bound job with an unlimited deadline.
  sim::MachineConfig machine = tiny_machine();
  machine.static_power_w = 0.0;
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  const DvfsDecision d = choose_pstate_for_deadline(
      machine, *predictor_, target, {}, /*deadline=*/1e9);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.pstate_index, machine.pstates.size() - 1);
}

TEST_F(DvfsPolicyTest, TightDeadlinePicksFastState) {
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  const double p0_time = target.time_at(0);
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, p0_time * 1.05);
  EXPECT_TRUE(d.feasible);
  EXPECT_EQ(d.pstate_index, 0u);
}

TEST_F(DvfsPolicyTest, ImpossibleDeadlineReportedInfeasible) {
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, /*deadline=*/0.001);
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(d.pstate_index, 0u);
  EXPECT_GT(d.predicted_time_s, 0.001);
}

TEST_F(DvfsPolicyTest, InterferenceForcesFasterStateThanBaselinePolicy) {
  // Under heavy co-location, the interference-aware policy must pick a
  // P-state at least as fast as the baseline-only policy picks, because
  // the predicted (degraded) time exceeds the baseline time.
  const core::BaselineProfile& target = campaign_->baselines.at("hog");
  const core::BaselineProfile& co = campaign_->baselines.at("hog");
  const std::vector<const core::BaselineProfile*> coapps(3, &co);
  // Deadline chosen between the baseline P2 time and the degraded P2 time.
  const double deadline = target.time_at(1) * 1.08;
  const DvfsDecision naive = choose_pstate_baseline_only(
      tiny_machine(), target, coapps.size(), deadline);
  const DvfsDecision aware = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, coapps, deadline);
  EXPECT_LE(aware.pstate_index, naive.pstate_index);
}

TEST_F(DvfsPolicyTest, AwareDecisionActuallyMeetsDeadline) {
  const core::BaselineProfile& target = campaign_->baselines.at("medium");
  const core::BaselineProfile& co = campaign_->baselines.at("hog");
  const std::vector<const core::BaselineProfile*> coapps(2, &co);
  const double deadline = target.time_at(2) * 1.4;
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, coapps, deadline);
  if (!d.feasible) GTEST_SKIP() << "no feasible state for this deadline";
  // Replay in the simulator.
  const auto suite = tiny_suite();
  const sim::RunMeasurement actual = simulator_->run_colocated(
      suite[1], {suite[0], suite[0]}, d.pstate_index, /*rep=*/77);
  EXPECT_LE(actual.execution_time_s, deadline * 1.1);
}

TEST_F(DvfsPolicyTest, EnergyReportedPositive) {
  const core::BaselineProfile& target = campaign_->baselines.at("light");
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, 1e9);
  EXPECT_GT(d.predicted_energy_j, 0.0);
}

TEST_F(DvfsPolicyTest, DeadlineExactlyAtPredictedTimeIsFeasible) {
  // The feasibility comparison is <=, so a deadline equal to the fastest
  // state's predicted time must still yield a feasible decision whose
  // prediction meets the deadline exactly.
  const core::BaselineProfile& target = campaign_->baselines.at("medium");
  const double p0_time = predictor_->predict_time(target, {}, 0);
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, p0_time);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.predicted_time_s, p0_time);
}

TEST_F(DvfsPolicyTest, EmptyCoRunnerSetMatchesSoloPrediction) {
  // With no co-runners the decision's predicted time must be exactly the
  // predictor's solo prediction at the chosen state — no phantom
  // interference terms.
  const core::BaselineProfile& target = campaign_->baselines.at("light");
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, {}, /*deadline=*/1e9);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.predicted_time_s,
            predictor_->predict_time(target, {}, d.pstate_index));
}

TEST_F(DvfsPolicyTest, InfeasibleEverywhereFallsBackToP0Predictions) {
  // When no state can meet the deadline the documented fallback is P0
  // (run as fast as possible); the reported prediction and energy must be
  // P0's, not a stale candidate's.
  const core::BaselineProfile& target = campaign_->baselines.at("hog");
  const core::BaselineProfile& co = campaign_->baselines.at("hog");
  const std::vector<const core::BaselineProfile*> coapps(3, &co);
  const DvfsDecision d = choose_pstate_for_deadline(
      tiny_machine(), *predictor_, target, coapps, /*deadline=*/1e-6);
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(d.pstate_index, 0u);
  const double p0_time = predictor_->predict_time(target, coapps, 0);
  EXPECT_EQ(d.predicted_time_s, p0_time);
  EXPECT_EQ(d.predicted_energy_j,
            energy_j(tiny_machine(), 0, coapps.size() + 1, p0_time) /
                static_cast<double>(coapps.size() + 1));
}

/// Predicts the same time for every input, as a model extrapolating far
/// outside its training range can.
class ConstantTimeModel : public ml::Regressor {
 public:
  explicit ConstantTimeModel(double t) : t_(t) {}
  double predict(std::span<const double>) const override { return t_; }
  std::string describe() const override { return "constant"; }

 private:
  double t_;
};

TEST_F(DvfsPolicyTest, UnusablePredictionIsInfeasibleNotAnError) {
  // A negative, zero or NaN time cannot meet a deadline or be priced: every
  // state is infeasible, and the P0 fallback reports the raw prediction
  // with no energy instead of throwing from energy_j.
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  for (const double t :
       {-0.25, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(t);
    const core::ColocationPredictor predictor =
        core::ColocationPredictor::from_model(
            {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
            std::make_unique<ConstantTimeModel>(t));
    DvfsDecision d;
    ASSERT_NO_THROW(d = choose_pstate_for_deadline(tiny_machine(), predictor,
                                                   target, {}, 100.0));
    EXPECT_FALSE(d.feasible);
    EXPECT_EQ(d.pstate_index, 0u);
    EXPECT_TRUE(std::isnan(t) ? std::isnan(d.predicted_time_s)
                              : d.predicted_time_s == t);
    EXPECT_TRUE(std::isnan(d.predicted_energy_j));
  }
}

TEST_F(DvfsPolicyTest, InvalidInputsRejected) {
  const core::BaselineProfile& target = campaign_->baselines.at("quiet");
  EXPECT_THROW(choose_pstate_for_deadline(tiny_machine(), *predictor_,
                                          target, {}, 0.0),
               coloc::runtime_error);
  const core::BaselineProfile& co = campaign_->baselines.at("hog");
  const std::vector<const core::BaselineProfile*> too_many(
      tiny_machine().cores, &co);
  EXPECT_THROW(choose_pstate_for_deadline(tiny_machine(), *predictor_,
                                          target, too_many, 100.0),
               coloc::runtime_error);
  EXPECT_THROW(choose_pstate_baseline_only(tiny_machine(), target,
                                           tiny_machine().cores, 100.0),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::sched
