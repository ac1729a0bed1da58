#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "fault/fault_schedule.h"
#include "fault/self_healing.h"
#include "reflector/antenna_panel.h"
#include "reflector/controller.h"
#include "reflector/switched_reflector.h"
#include "trajectory/human_walk.h"
#include "transport/link.h"
#include "golden_hash.h"

namespace rfp::fault {
namespace {

using rfp::common::Vec2;

TEST(FaultConfig, ValidateRejectsBadValues) {
  FaultConfig cfg;
  cfg.validate();  // defaults are fine
  cfg.intensity = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.intensity = std::nan("");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.intensity = 0.5;
  cfg.controlDropProb = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.controlDropProb = 0.1;
  cfg.phaseShifterBits = 17;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FaultSchedule, RejectsBadGeometry) {
  FaultConfig cfg;
  EXPECT_THROW(FaultSchedule(cfg, 0, 0.05, 10.0), std::invalid_argument);
  EXPECT_THROW(FaultSchedule(cfg, 6, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(FaultSchedule(cfg, 6, 0.05, -1.0), std::invalid_argument);
}

TEST(FaultSchedule, ZeroIntensityIsIdle) {
  FaultConfig cfg;  // intensity 0
  const FaultSchedule schedule(cfg, 6, 0.05, 20.0);
  EXPECT_TRUE(schedule.idle());
  EXPECT_TRUE(schedule.events().empty());
  for (double t = 0.0; t < 20.0; t += 0.6) {
    const FrameFaults ff = schedule.at(t);
    EXPECT_FALSE(ff.any());
    EXPECT_FALSE(ff.controlFrameDropped);
    EXPECT_FALSE(ff.radarFrameDropped);
    EXPECT_EQ(ff.stuckSwitchElement, -1);
    EXPECT_EQ(ff.gainDriftLog, 0.0);
  }
}

TEST(FaultSchedule, IdenticalSeedsGiveIdenticalTimelines) {
  FaultConfig cfg;
  cfg.intensity = 0.7;
  cfg.seed = 99;
  const FaultSchedule a(cfg, 6, 0.05, 25.0);
  const FaultSchedule b(cfg, 6, 0.05, 25.0);

  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].startS, b.events()[i].startS);
    EXPECT_EQ(a.events()[i].endS, b.events()[i].endS);
    EXPECT_EQ(a.events()[i].index, b.events()[i].index);
  }
  for (double t = 0.0; t < 25.0; t += 0.37) {
    const FrameFaults fa = a.at(t);
    const FrameFaults fb = b.at(t);
    EXPECT_EQ(fa.deadAntenna, fb.deadAntenna);
    EXPECT_EQ(fa.stuckSwitchElement, fb.stuckSwitchElement);
    EXPECT_EQ(fa.switchJitterRel, fb.switchJitterRel);
    EXPECT_EQ(fa.gainDriftLog, fb.gainDriftLog);
    EXPECT_EQ(fa.controlFrameDropped, fb.controlFrameDropped);
    EXPECT_EQ(fa.radarFrameDropped, fb.radarFrameDropped);
    EXPECT_EQ(fa.adcClipLevel, fb.adcClipLevel);
  }
}

TEST(FaultSchedule, DifferentSeedsGiveDifferentTimelines) {
  FaultConfig cfg;
  cfg.intensity = 0.7;
  cfg.seed = 1;
  const FaultSchedule a(cfg, 6, 0.05, 25.0);
  cfg.seed = 2;
  const FaultSchedule b(cfg, 6, 0.05, 25.0);

  bool differs = a.events().size() != b.events().size();
  for (double t = 0.0; !differs && t < 25.0; t += 0.05) {
    differs = a.at(t).switchJitterRel != b.at(t).switchJitterRel;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, QueryOrderIndependent) {
  FaultConfig cfg;
  cfg.intensity = 0.5;
  const FaultSchedule schedule(cfg, 6, 0.05, 10.0);
  const FrameFaults early = schedule.at(1.0);
  schedule.at(9.0);  // query far ahead...
  const FrameFaults again = schedule.at(1.0);  // ...then re-query
  EXPECT_EQ(early.switchJitterRel, again.switchJitterRel);
  EXPECT_EQ(early.controlFrameDropped, again.controlFrameDropped);
  EXPECT_EQ(early.deadAntenna, again.deadAntenna);
}

/// Config with exactly one impairment class: permanent element failures.
FaultConfig deadAntennaOnlyConfig() {
  FaultConfig cfg;
  cfg.intensity = 1.0;
  cfg.deadAntennaProb = 0.4;
  cfg.stuckSwitchRatePerS = 0.0;
  cfg.switchJitterRel = 0.0;
  cfg.switchSettleRel = 0.0;
  cfg.gainDriftLogSigma = 0.0;
  cfg.lnaSaturationRatePerS = 0.0;
  cfg.phaseShifterBits = 0;
  cfg.phaseStuckBitRatePerS = 0.0;
  cfg.controlDropProb = 0.0;
  cfg.radarDropProb = 0.0;
  cfg.adcSaturationRatePerS = 0.0;
  return cfg;
}

TEST(FaultSchedule, RejectsOutOfRangeScriptedEvents) {
  FaultSchedule schedule(FaultConfig{}, 6, 0.05, 10.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(schedule.addScriptedEvent(
                   {FaultKind::kLinkBurst, std::nan(""), 2.0, 0}),
               std::invalid_argument);
  EXPECT_THROW(
      schedule.addScriptedEvent({FaultKind::kLinkBurst, 1.0, inf, 0}),
      std::invalid_argument);
  EXPECT_THROW(
      schedule.addScriptedEvent({FaultKind::kLinkBurst, 2.0, 1.0, 0}),
      std::invalid_argument);
  for (const int bit : {-1, 32, 1000}) {
    EXPECT_THROW(
        schedule.addScriptedEvent({FaultKind::kPhaseStuckBit, 1.0, 2.0, bit}),
        std::invalid_argument)
        << "bit " << bit;
  }
  // Nothing rejected was merged: the schedule is still idle.
  EXPECT_TRUE(schedule.idle());
  EXPECT_TRUE(schedule.events().empty());

  schedule.addScriptedEvent({FaultKind::kPhaseStuckBit, 1.0, 2.0, 31});
  schedule.addScriptedEvent({FaultKind::kPhaseStuckBit, 1.0, 2.0, 0});
  EXPECT_EQ(schedule.at(1.5).phaseStuckBitMask, 0x80000001u);
  EXPECT_EQ(schedule.at(2.5).phaseStuckBitMask, 0u);
}

reflector::ControllerConfig actuatorControllerConfig() {
  reflector::ControllerConfig cfg;
  cfg.assumedRadarPosition = {5.0, 0.05};
  cfg.chirpSlopeHzPerS = 2e12;
  return cfg;
}

reflector::ReflectorController actuatorController() {
  return reflector::ReflectorController(
      reflector::AntennaPanel({3.3, 0.35}, {1.0, 0.0}, 6, 0.2),
      reflector::SwitchedReflector(), actuatorControllerConfig());
}

TEST(SelfHealingActuator, ReroutesAroundDeadAntennaWithBoundedError) {
  // Find a seed whose timeline kills at least one element early on.
  FaultConfig cfg = deadAntennaOnlyConfig();
  const FaultEvent* dead = nullptr;
  std::shared_ptr<const FaultSchedule> schedule;
  for (std::uint64_t seed = 1; seed < 64 && dead == nullptr; ++seed) {
    cfg.seed = seed;
    schedule = std::make_shared<const FaultSchedule>(cfg, 6, 0.05, 20.0);
    for (const FaultEvent& e : schedule->events()) {
      if (e.kind == FaultKind::kDeadAntenna && e.startS < 10.0) {
        dead = &e;
        break;
      }
    }
  }
  ASSERT_NE(dead, nullptr) << "no seed produced an early dead element";

  const auto controller = actuatorController();
  const Vec2 radar = actuatorControllerConfig().assumedRadarPosition;
  // A ghost straight behind the dead element, so the nominal command would
  // select exactly that element.
  const Vec2 deadPos = controller.panel().position(dead->index);
  const Vec2 ghost = deadPos + (deadPos - radar).normalized() * 3.0;
  const double t = dead->startS + 1.0;
  ASSERT_EQ(controller.commandFor(ghost, t).antennaIndex, dead->index);

  RecoveryConfig recovery;
  recovery.watchdogLatencyFrames = 0;
  SelfHealingActuator healing(&controller, schedule, recovery);
  const ActuationOutcome healed = healing.actuate(ghost, t, 1000);
  EXPECT_TRUE(healed.emitted);
  EXPECT_NE(healed.command.antennaIndex, dead->index);
  EXPECT_EQ(healed.command.decision, reflector::HealthDecision::kRerouted);
  // Bounded apparent error: the phantom shifts by about one antenna pitch
  // as seen from the radar, it does not vanish or teleport.
  const Vec2 apparent = controller.apparentWorld(healed.command);
  EXPECT_LT(distance(apparent, ghost), 2.0);

  // Without recovery the nominal command drives the dead feed: silence.
  RecoveryConfig off;
  off.enabled = false;
  SelfHealingActuator blind(&controller, schedule, off);
  const ActuationOutcome unhealed = blind.actuate(ghost, t, 1000);
  EXPECT_FALSE(unhealed.emitted);
  EXPECT_TRUE(unhealed.scatterers.empty());
}

TEST(SelfHealingActuator, StaleReplayOnDroppedControlFrames) {
  FaultConfig cfg = deadAntennaOnlyConfig();
  cfg.deadAntennaProb = 0.0;
  cfg.controlDropProb = 1.0;  // every control frame lost
  const auto schedule =
      std::make_shared<const FaultSchedule>(cfg, 6, 0.05, 20.0);
  const auto controller = actuatorController();
  SelfHealingActuator actuator(&controller, schedule, RecoveryConfig{});

  // First frame: the reflector never received a command -- it stays dark.
  const ActuationOutcome first = actuator.actuate({2.0, 4.0}, 1.0, 1000);
  EXPECT_FALSE(first.emitted);
  EXPECT_EQ(first.command.decision, reflector::HealthDecision::kPaused);
}

// Golden pin: every decision, commanded value and radiated scatterer of
// the self-healing actuator, as one constant, across its three modes --
// recovery off, recovery on, and recovery on over the lossy transport.
TEST(GoldenPin, SelfHealingActuationOutcomes) {
  FaultConfig cfg;
  cfg.intensity = 0.7;
  cfg.seed = 77;
  const auto schedule =
      std::make_shared<const FaultSchedule>(cfg, 6, 0.05, 30.0);
  const auto controller = actuatorController();
  const auto ghostAt = [](int ghostId, double t) {
    return ghostId == 1000
               ? Vec2{3.5 + 1.2 * std::cos(0.3 * t),
                      4.0 + 1.2 * std::sin(0.3 * t)}
               : Vec2{6.0 + 1.5 * std::sin(0.2 * t),
                      3.5 + 1.0 * std::cos(0.25 * t)};
  };

  RecoveryConfig off;
  off.enabled = false;
  transport::TransportConfig link;
  link.enabled = true;
  const std::pair<RecoveryConfig, transport::TransportConfig> modes[] = {
      {off, {}}, {RecoveryConfig{}, {}}, {RecoveryConfig{}, link}};

  rfp::testing::GoldenHash hash;
  std::vector<long> decisions(7, 0);
  long reacquisitions = 0;
  for (const auto& [recovery, transport] : modes) {
    SelfHealingActuator actuator(&controller, schedule, recovery, transport);
    for (int f = 0; f < 600; ++f) {
      const double t = 0.05 * f;
      for (const int ghostId : {1000, 1001}) {
        std::vector<Vec2> lookahead;
        for (int i = 1; i <= 7; ++i) {
          lookahead.push_back(ghostAt(ghostId, t + 0.05 * i));
        }
        const ActuationOutcome out =
            actuator.actuate(ghostAt(ghostId, t), t, ghostId, lookahead);
        ++decisions[static_cast<std::size_t>(out.command.decision)];
        hash.add(out.command);
        hash.add(static_cast<std::uint64_t>(out.emitted));
        hash.add(static_cast<std::uint64_t>(out.scatterers.size()));
        for (const env::PointScatterer& s : out.scatterers) hash.add(s);
      }
    }
    hash.add(actuator.linkStats());
    reacquisitions += actuator.linkStats().reacquisitions;
  }

  // Coverage: the pin exercises every decision the actuator can take.
  for (std::size_t d = 0; d < decisions.size(); ++d) {
    EXPECT_GT(decisions[d], 0L) << "decision " << d;
  }
  EXPECT_GT(reacquisitions, 0L);
  EXPECT_EQ(hash.h, 0x024c6205ada8ef8cull);
}

TEST(Ghost, EdgeCasesDoNotUnderflow) {
  core::Ghost empty;
  EXPECT_DOUBLE_EQ(empty.endTimeS(), empty.startTimeS);
  EXPECT_FALSE(empty.activeAt(1.0));
  EXPECT_EQ(empty.positionAt(0.5), (Vec2{}));

  core::Ghost single;
  single.startTimeS = 1.0;
  single.placedPoints = {{2.0, 3.0}};
  EXPECT_DOUBLE_EQ(single.endTimeS(), 1.0);
  EXPECT_EQ(single.positionAt(0.0), (Vec2{2.0, 3.0}));
  EXPECT_EQ(single.positionAt(5.0), (Vec2{2.0, 3.0}));
}

trajectory::Trace compactTrace(std::uint64_t seed) {
  rfp::common::Rng rng(seed);
  trajectory::HumanWalkModel model;
  trajectory::Trace trace;
  do {
    trace = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(trace) > 3.5);
  return trace;
}

TEST(FaultIntegration, ZeroIntensityBitIdenticalToFaultFreePipeline) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(7);

  rfp::common::Rng rngA(21);
  const auto base = core::runSpoofingExperiment(scenario, trace, rngA);

  rfp::common::Rng rngB(21);
  core::FaultRunOptions options;  // intensity 0: no faults
  const auto faulted =
      core::runFaultedSpoofingExperiment(scenario, trace, options, rngB);

  EXPECT_EQ(faulted.framesFaulted, 0u);
  EXPECT_EQ(faulted.framesDroppedRadar, 0u);
  EXPECT_EQ(base.framesTotal, faulted.framesTotal);
  EXPECT_EQ(base.framesDetected, faulted.framesDetected);
  ASSERT_EQ(base.measured.size(), faulted.measured.size());
  for (std::size_t i = 0; i < base.measured.size(); ++i) {
    EXPECT_EQ(base.measured[i].x, faulted.measured[i].x);  // bit-identical
    EXPECT_EQ(base.measured[i].y, faulted.measured[i].y);
    EXPECT_EQ(base.intended[i].x, faulted.intended[i].x);
    EXPECT_EQ(base.intended[i].y, faulted.intended[i].y);
  }
  ASSERT_EQ(base.locationErrorsM.size(), faulted.locationErrorsM.size());
  for (std::size_t i = 0; i < base.locationErrorsM.size(); ++i) {
    EXPECT_EQ(base.locationErrorsM[i], faulted.locationErrorsM[i]);
  }
}

TEST(FaultIntegration, RecoveryKeepsFaultedRunCloseToBaseline) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(11);

  rfp::common::Rng rngBase(33);
  const auto base = core::runSpoofingExperiment(scenario, trace, rngBase);
  ASSERT_FALSE(base.locationErrorsM.empty());
  const double baseMedian = rfp::common::median(base.locationErrorsM);

  core::FaultRunOptions options;
  options.faults.intensity = 0.2;
  rfp::common::Rng rngOn(33);
  const auto healed =
      core::runFaultedSpoofingExperiment(scenario, trace, options, rngOn);
  EXPECT_GT(healed.framesFaulted, 0u);
  ASSERT_FALSE(healed.locationErrorsM.empty());
  for (double e : healed.locationErrorsM) EXPECT_TRUE(std::isfinite(e));
  const double healedMedian = rfp::common::median(healed.locationErrorsM);
  // Acceptance bound: recovery holds the ghost within 2x the fault-free
  // median error (plus a small absolute floor for very accurate baselines).
  EXPECT_LT(healedMedian, 2.0 * baseMedian + 0.1);

  // The supervisor actually intervened somewhere along the run.
  EXPECT_GT(healed.decisionsRerouted + healed.decisionsGainClamped +
                healed.decisionsStaleReplay + healed.decisionsPaused,
            0u);

  // With recovery off the run must still complete without NaNs.
  options.recovery.enabled = false;
  rfp::common::Rng rngOff(33);
  const auto blind =
      core::runFaultedSpoofingExperiment(scenario, trace, options, rngOff);
  for (double e : blind.locationErrorsM) EXPECT_TRUE(std::isfinite(e));
}

}  // namespace
}  // namespace rfp::fault
