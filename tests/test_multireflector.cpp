// Tests for the coordinated multi-reflector defense (src/defense): per-radar
// phantom agreement against the N-radar consistency attack, deterministic
// re-solve and byte-identical failover ledgers under reflector dropout, and
// the degrade-tier state machine.

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/multiradar.h"
#include "core/scenario.h"
#include "defense/coordinated_scheduler.h"
#include "defense/fleet.h"
#include "trajectory/human_walk.h"
#include "golden_hash.h"

namespace rfp {
namespace {

using rfp::common::Vec2;

/// All attacker radar poses of \p scenario in attack order: the primary,
/// then the configured secondaries (legacy left-wall mount when none).
std::vector<core::RadarPose> attackPoses(const core::Scenario& scenario) {
  std::vector<core::RadarPose> poses;
  poses.push_back(core::RadarPose{scenario.sensing.radar.position,
                                  scenario.sensing.radar.arrayAxis});
  if (scenario.attack.secondaries.empty()) {
    poses.push_back(core::defaultSecondaryPose(scenario));
  } else {
    poses.insert(poses.end(), scenario.attack.secondaries.begin(),
                 scenario.attack.secondaries.end());
  }
  return poses;
}

/// Shared phantom trajectory: a rectangle loop placed around the room
/// center, sampled every 0.2 s.
std::vector<Vec2> centralGhostLoop(const env::FloorPlan& plan) {
  trajectory::Trace centered;
  centered.points =
      trajectory::scriptedRectanglePath({-1.25, -1.0}, 2.5, 2.0, 0.8, 0.2);
  return defense::placeCentralGhost(plan, centered);
}

/// Scripts a permanent, total control-link blackout on reflector \p idx
/// from \p startS on (loss probability one), the clean dropout used by the
/// failover tests.
void scriptLinkBlackout(defense::FleetConfig& fleet, std::size_t idx,
                        double startS) {
  fleet.faults.linkBurstLossProb = 1.0;
  fleet.reflectors[idx].scriptedFaults.push_back(
      {fault::FaultKind::kLinkBurst, startS, 1e9, 0});
}

TEST(MultiReflector, FleetDefeatsTwoRadarConsistencyAttack) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);
  ASSERT_EQ(poses.size(), 2u);

  defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
  fleet.seed = 7;
  const auto ghostPoints = centralGhostLoop(scenario.plan);
  defense::CoordinatedGhostScheduler scheduler(fleet, poses, ghostPoints,
                                               0.1, 0.2);

  rfp::common::Rng rng(5);
  const auto humanPath =
      trajectory::scriptedRectanglePath({10.5, 3.2}, 2.5, 2.0, 0.8, 0.05);
  const auto result = core::runMultiRadarConsistencyAttack(
      scenario, humanPath, 0.05,
      [&scheduler](double t) { return scheduler.step(t); }, rng,
      scenario.attack);

  EXPECT_EQ(scheduler.tier(), defense::DefenseTier::kFullConsistency);
  ASSERT_GE(result.tracks.size(), 2u);

  // The phantom track (near the room center, far from the human's loop)
  // must now be cross-radar consistent: both radars localize it at the
  // same position within the match radius.
  const Vec2 roomCenter{scenario.plan.width() * 0.5,
                        scenario.plan.height() * 0.5};
  bool sawPhantom = false;
  for (const auto& track : result.tracks) {
    Vec2 mean{};
    for (const Vec2& p : track.history) mean = mean + p;
    mean = mean * (1.0 / static_cast<double>(track.history.size()));
    if (distance(mean, roomCenter) > 2.5) continue;
    sawPhantom = true;
    EXPECT_TRUE(track.confirmedBySecondRadar);
    EXPECT_LT(track.bestMatchErrorM, scenario.attack.matchRadiusM);
  }
  EXPECT_TRUE(sawPhantom);
  // Nothing the fleet radiates is flagged as a phantom anymore.
  EXPECT_EQ(result.flaggedCount, 0u);
  EXPECT_GE(result.confirmedCount, 2u);
}

TEST(MultiReflector, DropoutReassignsSurvivorToPrimaryRadar) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);
  defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
  fleet.seed = 11;
  scriptLinkBlackout(fleet, 0, 2.0);

  defense::CoordinatedGhostScheduler scheduler(
      fleet, poses, centralGhostLoop(scenario.plan), 0.1, 0.2);
  for (double t = 0.0; t <= 8.0; t += fleet.frameDtS) scheduler.step(t);

  // Reflector 0's link blacks out at t = 2 s; the watchdog parks it and
  // the fleet declares it lost, re-solving mid-epoch.
  EXPECT_EQ(scheduler.fleet().at(0).health, defense::ReflectorHealth::kLost);
  EXPECT_EQ(scheduler.assignment()[0], -1);
  // One reflector for two radars: the survivor covers the primary.
  EXPECT_EQ(scheduler.assignment()[1], 0);
  EXPECT_EQ(scheduler.tier(), defense::DefenseTier::kSingleRadarLegacy);
  EXPECT_GE(scheduler.resolveCount(), 2);
  // The re-solve is ledgered with a deterministic reason.
  const auto& records = scheduler.failoverLedger().records();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.back().reason, "reflector 0 degraded->lost");
  // No non-finite command ever reached the schedule.
  for (const auto& rec : scheduler.ghostLedger().records()) {
    EXPECT_TRUE(std::isfinite(rec.command.fSwitchHz));
    EXPECT_TRUE(std::isfinite(rec.command.gain));
    EXPECT_TRUE(std::isfinite(rec.command.phaseOffsetRad));
  }
}

TEST(MultiReflector, FailoverLedgerIsByteIdenticalAcrossRuns) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);

  const auto runOnce = [&]() {
    defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
    fleet.seed = 42;
    fleet.faults.intensity = 0.3;  // seeded chaos on top of the script
    scriptLinkBlackout(fleet, 1, 3.0);
    defense::CoordinatedGhostScheduler scheduler(
        fleet, poses, centralGhostLoop(scenario.plan), 0.1, 0.2);
    for (double t = 0.0; t <= 10.0; t += fleet.frameDtS) scheduler.step(t);
    return scheduler.failoverLedger().serialize();
  };

  const std::string first = runOnce();
  const std::string second = runOnce();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // A different seed reshuffles the chaos: the ledger is a function of the
  // seed, not an accident of run order.
  defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
  fleet.seed = 43;
  fleet.faults.intensity = 0.3;
  scriptLinkBlackout(fleet, 1, 3.0);
  defense::CoordinatedGhostScheduler other(
      fleet, poses, centralGhostLoop(scenario.plan), 0.1, 0.2);
  for (double t = 0.0; t <= 10.0; t += fleet.frameDtS) other.step(t);
  EXPECT_NE(first, other.failoverLedger().serialize());
}

TEST(MultiReflector, DegradesThroughTiersToLedgeredPause) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);
  defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
  fleet.seed = 3;
  scriptLinkBlackout(fleet, 0, 2.0);
  scriptLinkBlackout(fleet, 1, 5.0);

  defense::CoordinatedGhostScheduler scheduler(
      fleet, poses, centralGhostLoop(scenario.plan), 0.1, 0.2);
  std::vector<std::vector<env::PointScatterer>> lastViews;
  for (double t = 0.0; t <= 10.0; t += fleet.frameDtS) {
    lastViews = scheduler.step(t);
  }

  // Full fleet -> reflector 0 lost (single-radar legacy) -> reflector 1
  // lost (ledgered pause), each transition recorded exactly once.
  const auto& records = scheduler.failoverLedger().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].tier, defense::DefenseTier::kFullConsistency);
  EXPECT_EQ(records[0].reason, "initial");
  EXPECT_EQ(records[1].tier, defense::DefenseTier::kSingleRadarLegacy);
  EXPECT_EQ(records[2].tier, defense::DefenseTier::kPaused);
  EXPECT_EQ(scheduler.tier(), defense::DefenseTier::kPaused);

  // Paused means dark: no scatterers toward any radar.
  for (const auto& view : lastViews) EXPECT_TRUE(view.empty());
}

// Golden pin: every per-radar view scatterer, ghost-ledger record,
// failover decision and link counter of a chaotic fleet run, as one
// constant, with and without a scripted reflector dropout.
TEST(GoldenPin, FleetChaosLedgersAndViews) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);

  rfp::testing::GoldenHash hash;
  std::vector<long> decisions(7, 0);
  for (const bool blackout : {false, true}) {
    defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
    fleet.seed = 42;
    fleet.faults.intensity = 0.6;
    if (blackout) scriptLinkBlackout(fleet, 1, 3.0);
    defense::CoordinatedGhostScheduler scheduler(
        fleet, poses, centralGhostLoop(scenario.plan), 0.1, 0.2);
    for (double t = 0.0; t <= 10.0; t += fleet.frameDtS) {
      for (const auto& view : scheduler.step(t)) {
        hash.add(static_cast<std::uint64_t>(view.size()));
        for (const env::PointScatterer& s : view) hash.add(s);
      }
    }
    for (const auto& rec : scheduler.ghostLedger().records()) {
      ++decisions[static_cast<std::size_t>(rec.command.decision)];
      hash.add(static_cast<std::uint64_t>(rec.ghostId));
      hash.add(rec.timestampS);
      hash.add(rec.command);
      hash.add(static_cast<std::uint64_t>(rec.emitted));
    }
    hash.add(scheduler.failoverLedger().serialize());
    for (std::size_t i = 0; i < scheduler.fleet().size(); ++i) {
      hash.add(scheduler.fleet().at(i).channel.linkStats());
    }
  }

  // Coverage: reroutes, coasting, pauses and parking all occur.
  using reflector::HealthDecision;
  for (const HealthDecision d :
       {HealthDecision::kRerouted, HealthDecision::kCoasted,
        HealthDecision::kPaused, HealthDecision::kParked}) {
    EXPECT_GT(decisions[static_cast<std::size_t>(d)], 0L)
        << "decision " << static_cast<int>(d);
  }
  EXPECT_EQ(hash.h, 0xcc16279b4045b9f0ull);
}

TEST(MultiReflector, SchedulerValidatesInputs) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto poses = attackPoses(scenario);
  const defense::FleetConfig fleet = defense::makeDefenseFleet(scenario, poses);
  const auto ghost = centralGhostLoop(scenario.plan);

  EXPECT_THROW(defense::CoordinatedGhostScheduler(fleet, {}, ghost, 0.1, 0.2),
               std::invalid_argument);
  EXPECT_THROW(defense::CoordinatedGhostScheduler(fleet, poses,
                                                  {ghost.front()}, 0.1, 0.2),
               std::invalid_argument);
  EXPECT_THROW(
      defense::CoordinatedGhostScheduler(fleet, poses, ghost, 0.1, 0.0),
      std::invalid_argument);

  defense::FleetConfig bad = fleet;
  bad.frameDtS = 0.0;
  EXPECT_THROW(
      defense::CoordinatedGhostScheduler(bad, poses, ghost, 0.1, 0.2),
      std::invalid_argument);
  defense::FleetConfig empty = fleet;
  empty.reflectors.clear();
  EXPECT_THROW(defense::ReflectorFleet{empty}, std::invalid_argument);
  // The fleet always actuates over its control links (the watchdog is the
  // health machine's heartbeat), so a disabled transport is rejected.
  defense::FleetConfig noLink = fleet;
  noLink.transport.enabled = false;
  EXPECT_THROW(defense::ReflectorFleet{noLink}, std::invalid_argument);
  EXPECT_THROW(
      defense::CoordinatedGhostScheduler(noLink, poses, ghost, 0.1, 0.2),
      std::invalid_argument);
}

TEST(MultiReflector, DirectivityKeepsForeignRadarsInSidelobes) {
  defense::DirectivityConfig d;
  const Vec2 origin{5.8, 0.35};
  const Vec2 assigned{6.5, -0.8};   // boresight target
  const Vec2 foreign{-0.8, 2.97};

  EXPECT_NEAR(d.gainToward(origin, assigned, assigned), 1.0, 1e-12);
  EXPECT_LT(d.gainToward(origin, assigned, foreign),
            d.sidelobeAmplitude + 0.05);
  EXPECT_GE(d.gainToward(origin, assigned, foreign), d.sidelobeAmplitude);

  defense::DirectivityConfig bad = d;
  bad.beamwidthRad = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = d;
  bad.sidelobeAmplitude = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(MultiReflector, AttackConfigValidates) {
  core::MultiRadarAttackConfig config;
  config.matchRadiusM = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.matchRadiusM = 1.0;
  config.secondaries.push_back({{1.0, 1.0}, {0.0, 0.0}});
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.secondaries.back().arrayAxis = {0.0, 1.0};
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace rfp
