#include "defense/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/constants.h"
#include "common/det_hash.h"

namespace rfp::defense {

using rfp::common::Vec2;

const char* healthName(ReflectorHealth h) {
  switch (h) {
    case ReflectorHealth::kActive:
      return "active";
    case ReflectorHealth::kDegraded:
      return "degraded";
    case ReflectorHealth::kLost:
      return "lost";
  }
  return "?";
}

const char* tierName(DefenseTier t) {
  switch (t) {
    case DefenseTier::kFullConsistency:
      return "full_consistency";
    case DefenseTier::kPartialConsistency:
      return "partial_consistency";
    case DefenseTier::kSingleRadarLegacy:
      return "single_radar_legacy";
    case DefenseTier::kPaused:
      return "paused";
  }
  return "?";
}

void DirectivityConfig::validate() const {
  if (!(beamwidthRad > 0.0) || !std::isfinite(beamwidthRad)) {
    throw std::invalid_argument(
        "DirectivityConfig: beamwidth must be positive and finite");
  }
  if (!(sidelobeAmplitude >= 0.0) || sidelobeAmplitude > 1.0) {
    throw std::invalid_argument(
        "DirectivityConfig: sidelobe amplitude must be in [0, 1]");
  }
}

double DirectivityConfig::gainToward(Vec2 origin, Vec2 boresightTarget,
                                     Vec2 observer) const {
  const Vec2 b = (boresightTarget - origin).normalized();
  const Vec2 o = (observer - origin).normalized();
  if (b == Vec2{} || o == Vec2{}) return 1.0;  // degenerate geometry
  const double theta =
      rfp::common::angularDistance(std::atan2(b.y, b.x), std::atan2(o.y, o.x));
  const double mainlobe =
      std::exp(-0.5 * (theta / beamwidthRad) * (theta / beamwidthRad));
  return sidelobeAmplitude + (1.0 - sidelobeAmplitude) * mainlobe;
}

void FleetConfig::validate() const {
  if (reflectors.empty()) {
    throw std::invalid_argument("FleetConfig: at least one reflector");
  }
  if (!(frameDtS > 0.0) || !std::isfinite(frameDtS)) {
    throw std::invalid_argument("FleetConfig: frameDt must be positive");
  }
  if (!(durationS > 0.0) || !std::isfinite(durationS)) {
    throw std::invalid_argument("FleetConfig: duration must be positive");
  }
  if (lostAfterParkedFrames < 1) {
    throw std::invalid_argument(
        "FleetConfig: lostAfterParkedFrames must be >= 1");
  }
  faults.validate();
  transport.validate();
  if (!transport.enabled) {
    // The fleet always actuates over its control links, and the link
    // watchdog is the health machine's heartbeat.
    throw std::invalid_argument("FleetConfig: the transport must be enabled");
  }
  directivity.validate();
  if (recovery.watchdogLatencyFrames < 0) {
    throw std::invalid_argument(
        "FleetConfig: watchdog latency must be >= 0");
  }
}

std::string FailoverLedger::serialize() const {
  std::string out;
  char buf[64];
  for (const FailoverRecord& r : records_) {
    out += "frame=";
    out += std::to_string(r.frame);
    std::snprintf(buf, sizeof(buf), " t=%.6f", r.timestampS);
    out += buf;
    out += " tier=";
    out += tierName(r.tier);
    out += " assignment=[";
    for (std::size_t i = 0; i < r.assignment.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(r.assignment[i]);
    }
    out += "] health=[";
    for (std::size_t i = 0; i < r.health.size(); ++i) {
      if (i != 0) out += ',';
      out += healthName(r.health[i]);
    }
    out += "] reason=";
    out += r.reason;
    out += '\n';
  }
  return out;
}

ReflectorFleet::ReflectorFleet(const FleetConfig& config) : config_(config) {
  config_.validate();
  reflectors_.reserve(config_.reflectors.size());
  for (std::size_t i = 0; i < config_.reflectors.size(); ++i) {
    const FleetReflectorConfig& rc = config_.reflectors[i];

    // Independent per-reflector fault timeline: same model, derived seed,
    // so one master seed reproduces the whole fleet's chaos.
    fault::FaultConfig faults = config_.faults;
    faults.seed = rfp::common::splitmix64(
        config_.seed ^ rfp::common::splitmix64(static_cast<std::uint64_t>(i) +
                                               0x0f1ee7ull));
    auto schedule = std::make_shared<fault::FaultSchedule>(
        faults, rc.panel.count(), config_.frameDtS, config_.durationS);
    for (const fault::FaultEvent& e : rc.scriptedFaults) {
      schedule->addScriptedEvent(e);
    }

    // The control hop is per physical reflector (one radio link each);
    // salted seeds decorrelate the channels.
    const std::uint64_t linkSeed = rfp::common::splitmix64(
        schedule->config().seed ^ config_.transport.seedSalt);
    fault::ActuationChannel channel(schedule, config_.recovery,
                                    config_.transport, linkSeed,
                                    kFleetGhostIdBase + static_cast<int>(i));
    reflectors_.emplace_back(rc, std::move(schedule), std::move(channel));
  }
}

bool ReflectorFleet::updateHealth(double t) {
  const double lookback =
      static_cast<double>(config_.recovery.watchdogLatencyFrames) *
      config_.frameDtS;
  bool usableChanged = false;
  for (Reflector& r : reflectors_) {
    if (r.health == ReflectorHealth::kLost) continue;  // latched

    const fault::FrameFaults believed =
        r.schedule->at(std::max(0.0, t - lookback));
    const bool allDead =
        !believed.deadAntenna.empty() &&
        std::all_of(believed.deadAntenna.begin(), believed.deadAntenna.end(),
                    [](std::uint8_t d) { return d != 0; });
    const bool anyDead =
        std::any_of(believed.deadAntenna.begin(), believed.deadAntenna.end(),
                    [](std::uint8_t d) { return d != 0; });
    const transport::LinkState link = r.channel.linkState();

    ReflectorHealth next = ReflectorHealth::kActive;
    if (allDead || r.channel.parkedStreak() >= config_.lostAfterParkedFrames) {
      next = ReflectorHealth::kLost;
    } else if (anyDead || believed.stuckSwitchElement >= 0 ||
               believed.linkBurst || link != transport::LinkState::kLinked) {
      next = ReflectorHealth::kDegraded;
    }
    if ((next == ReflectorHealth::kLost) !=
        (r.health == ReflectorHealth::kLost)) {
      usableChanged = true;
    }
    r.health = next;
  }
  return usableChanged;
}

std::vector<ReflectorHealth> ReflectorFleet::healths() const {
  std::vector<ReflectorHealth> out;
  out.reserve(reflectors_.size());
  for (const Reflector& r : reflectors_) out.push_back(r.health);
  return out;
}

std::size_t ReflectorFleet::usableCount() const {
  std::size_t n = 0;
  for (const Reflector& r : reflectors_) {
    if (r.health != ReflectorHealth::kLost) ++n;
  }
  return n;
}

namespace {

/// Panel mount for one radar pose: nearest perimeter wall, 0.35 m inside,
/// base offset 0.7 m along the wall from the radar's projection, running
/// along the wall (the seed scenarios' geometry, replicated per radar).
reflector::AntennaPanel panelForRadar(const env::FloorPlan& plan,
                                      Vec2 radarPos) {
  constexpr double kInsetM = 0.35;
  constexpr double kOffsetM = 0.7;
  const double panelLenM =
      static_cast<double>(rfp::common::kPanelAntennas - 1) *
      rfp::common::kPanelSpacingM;

  const double w = plan.width();
  const double h = plan.height();
  struct WallChoice {
    double dist;
    Vec2 base;
    Vec2 direction;
    double along;     ///< radar's projection along the wall
    double wallLen;
  };
  const WallChoice walls[4] = {
      {std::fabs(radarPos.y), {0.0, kInsetM}, {1.0, 0.0}, radarPos.x, w},
      {std::fabs(h - radarPos.y), {0.0, h - kInsetM}, {1.0, 0.0}, radarPos.x,
       w},
      {std::fabs(radarPos.x), {kInsetM, 0.0}, {0.0, 1.0}, radarPos.y, h},
      {std::fabs(w - radarPos.x), {w - kInsetM, 0.0}, {0.0, 1.0}, radarPos.y,
       h},
  };
  const WallChoice* best = &walls[0];
  for (const WallChoice& c : walls) {
    if (c.dist < best->dist) best = &c;
  }
  const double along = std::clamp(best->along - kOffsetM, 0.3,
                                  std::max(0.3, best->wallLen - 0.3 -
                                                    panelLenM));
  return reflector::AntennaPanel(best->base + best->direction * along,
                                 best->direction,
                                 rfp::common::kPanelAntennas,
                                 rfp::common::kPanelSpacingM);
}

}  // namespace

FleetConfig makeDefenseFleet(const core::Scenario& scenario,
                             const std::vector<core::RadarPose>& radars) {
  if (radars.empty()) {
    throw std::invalid_argument("makeDefenseFleet: at least one radar");
  }
  FleetConfig fleet;
  fleet.controller = scenario.controllerConfig;
  fleet.faults = scenario.faults;
  fleet.transport.enabled = true;
  fleet.frameDtS = 1.0 / scenario.sensing.radar.frameRateHz;
  for (const core::RadarPose& pose : radars) {
    fleet.reflectors.push_back(FleetReflectorConfig{
        panelForRadar(scenario.plan, pose.position),
        scenario.reflectorHardware,
        {}});
  }
  return fleet;
}

}  // namespace rfp::defense
