#include "defense/coordinated_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/det_hash.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "tracking/hungarian.h"

namespace rfp::defense {

using rfp::common::Vec2;

namespace {

/// Trajectory sample count for the assignment cost (spread evenly over the
/// ghost's points; enough to average out per-antenna quantization).
constexpr std::size_t kCostSamples = 8;
/// Cost charged per infeasible sample (no realizable actuation for that
/// reflector/radar pair at that point) -- dominates any geometric error, so
/// the Hungarian solver avoids infeasible pairings when it has a choice.
constexpr double kInfeasibleCost = 1.0e3;

}  // namespace

CoordinatedGhostScheduler::CoordinatedGhostScheduler(
    FleetConfig config, std::vector<core::RadarPose> radars,
    std::vector<Vec2> ghostPoints, double startTimeS, double pointDtS)
    : config_(std::move(config)),
      radars_(std::move(radars)),
      ghostPoints_(std::move(ghostPoints)),
      startTimeS_(startTimeS),
      pointDtS_(pointDtS),
      fleet_(config_),
      assignment_(fleet_.size(), -1) {
  if (radars_.empty()) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: at least one radar");
  }
  for (const core::RadarPose& pose : radars_) {
    if (!std::isfinite(pose.position.x) || !std::isfinite(pose.position.y)) {
      throw std::invalid_argument(
          "CoordinatedGhostScheduler: radar pose must be finite");
    }
  }
  if (ghostPoints_.size() < 2) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: ghost trajectory too short");
  }
  if (!(pointDtS_ > 0.0) || !std::isfinite(pointDtS_)) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: point dt must be positive");
  }
}

bool CoordinatedGhostScheduler::ghostActiveAt(double t) const {
  const double endS =
      startTimeS_ +
      pointDtS_ * static_cast<double>(ghostPoints_.size() - 1);
  return t >= startTimeS_ && t <= endS;
}

Vec2 CoordinatedGhostScheduler::ghostAt(double t) const {
  const double idx = (t - startTimeS_) / pointDtS_;
  if (idx <= 0.0) return ghostPoints_.front();
  if (idx >= static_cast<double>(ghostPoints_.size() - 1)) {
    return ghostPoints_.back();
  }
  const auto lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  return ghostPoints_[lo] * (1.0 - frac) + ghostPoints_[lo + 1] * frac;
}

void CoordinatedGhostScheduler::resolveAssignments(double t,
                                                   std::uint64_t frame,
                                                   const std::string& reason) {
  const auto t0 = std::chrono::steady_clock::now();
  ++resolveCount_;
  solvedOnce_ = true;

  // Usable reflectors and the radar subset they can cover. Radar priority
  // is attack-config order (primary first), so under partial coverage the
  // strongest radars stay satisfied.
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_.at(i).health != ReflectorHealth::kLost) usable.push_back(i);
  }
  const std::size_t covered = std::min(usable.size(), radars_.size());

  std::vector<int> next(fleet_.size(), -1);
  if (covered > 0) {
    // Spoof-fidelity cost of reflector p playing radar r: mean apparent-vs-
    // intended error over sampled trajectory points, solved with a
    // controller that assumes radar r. Every entry is a pure function of
    // (panel, radar, trajectory), so the parallel fill is deterministic at
    // any thread count; a seeded epsilon keeps ties deterministic too.
    linalg::Matrix cost(usable.size(), covered, 0.0);
    rfp::common::ThreadPool::global().parallelFor(
        0, usable.size() * covered, [&](std::size_t flat) {
          const std::size_t p = flat / covered;
          const std::size_t r = flat % covered;
          const ReflectorFleet::Reflector& rf = fleet_.at(usable[p]);
          reflector::ControllerConfig cc = config_.controller;
          cc.assumedRadarPosition = radars_[r].position;
          const reflector::ReflectorController controller(
              rf.panel, reflector::SwitchedReflector(rf.hardware), cc);
          reflector::ActuationConstraints constraints;
          constraints.maxSwitchHz = rf.hardware.maxSwitchHz;
          constraints.maxLinearGain = rf.hardware.maxGain;
          double sum = 0.0;
          for (std::size_t k = 0; k < kCostSamples; ++k) {
            const std::size_t gi =
                k * (ghostPoints_.size() - 1) / (kCostSamples - 1);
            const Vec2 g = ghostPoints_[gi];
            const double tg =
                startTimeS_ + pointDtS_ * static_cast<double>(gi);
            const auto cmd = controller.commandForConstrained(g, tg,
                                                              constraints);
            if (cmd.has_value() && fault::commandFinite(*cmd)) {
              sum += distance(controller.apparentWorld(*cmd), g);
            } else {
              sum += kInfeasibleCost;
            }
          }
          cost(p, r) = sum / static_cast<double>(kCostSamples) +
                       1e-9 * rfp::common::hashUniform(
                                  config_.seed, usable[p],
                                  1000 + static_cast<std::uint64_t>(r));
        });

    const std::vector<int> rows = tracking::solveAssignment(cost);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (rows[p] >= 0) next[usable[p]] = rows[p];
    }
  }

  // Apply: a reflector whose radar changed gets a fresh controller (the
  // assumed radar position is baked into Eq. 3) and retargets its control
  // hop -- the coasting schedule and continuity anchor were solved for the
  // old radar's geometry and the apparent position is radar-relative.
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    ReflectorFleet::Reflector& rf = fleet_.at(i);
    const bool changed = next[i] != rf.assignedRadar;
    rf.assignedRadar = next[i];
    if (next[i] < 0) {
      if (changed) rf.controller.reset();
      continue;
    }
    if (changed || !rf.controller.has_value()) {
      reflector::ControllerConfig cc = config_.controller;
      cc.assumedRadarPosition =
          radars_[static_cast<std::size_t>(next[i])].position;
      rf.controller.emplace(rf.panel,
                            reflector::SwitchedReflector(rf.hardware), cc);
      rf.channel.retarget();
    }
  }
  assignment_ = std::move(next);

  tier_ = covered == radars_.size() ? DefenseTier::kFullConsistency
          : covered >= 2            ? DefenseTier::kPartialConsistency
          : covered == 1            ? DefenseTier::kSingleRadarLegacy
                                    : DefenseTier::kPaused;

  FailoverRecord record;
  record.frame = frame;
  record.timestampS = t;
  record.tier = tier_;
  record.assignment = assignment_;
  record.health = fleet_.healths();
  record.reason = reason;
  failoverLedger_.add(std::move(record));

  lastResolveUs_ = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

std::vector<std::vector<env::PointScatterer>>
CoordinatedGhostScheduler::step(double t) {
  const auto frame = static_cast<std::uint64_t>(
      std::max<long long>(0, std::llround(t / config_.frameDtS)));

  const std::vector<ReflectorHealth> before = fleet_.healths();
  const bool changed = fleet_.updateHealth(t);
  if (!solvedOnce_ || changed) {
    std::string reason;
    if (!solvedOnce_) {
      reason = "initial";
    } else {
      const std::vector<ReflectorHealth> after = fleet_.healths();
      for (std::size_t i = 0; i < after.size(); ++i) {
        if (after[i] == before[i]) continue;
        if (!reason.empty()) reason += "; ";
        reason += "reflector " + std::to_string(i) + " " +
                  healthName(before[i]) + "->" + healthName(after[i]);
      }
      if (reason.empty()) reason = "usable set changed";
    }
    resolveAssignments(t, frame, reason);
  }

  std::vector<std::vector<env::PointScatterer>> views(radars_.size());
  if (!ghostActiveAt(t)) return views;

  // Actuate each assigned reflector, then compose the per-radar views:
  // each panel's emission weighted by its directivity toward the observer
  // (boresight = the assigned radar).
  const Vec2 ghostWorld = ghostAt(t);
  std::vector<Vec2> lookahead;
  for (int i = 1; i < config_.transport.scheduleDepth; ++i) {
    const double tAhead = t + static_cast<double>(i) * config_.frameDtS;
    if (!ghostActiveAt(tAhead)) break;
    lookahead.push_back(ghostAt(tAhead));
  }
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    ReflectorFleet::Reflector& rf = fleet_.at(i);
    if (rf.assignedRadar < 0 || rf.health == ReflectorHealth::kLost) {
      continue;
    }
    const fault::ActuationOutcome out =
        rf.channel.actuate(*rf.controller, ghostWorld, t, lookahead);
    ghostLedger_.add(kFleetGhostIdBase + static_cast<int>(i), t, out.command,
                     out.emitted);
    if (out.scatterers.empty()) continue;
    const Vec2 boresightTarget =
        radars_[static_cast<std::size_t>(rf.assignedRadar)].position;
    for (std::size_t r = 0; r < radars_.size(); ++r) {
      const Vec2 observer = radars_[r].position;
      for (env::PointScatterer s : out.scatterers) {
        s.amplitude *= config_.directivity.gainToward(
            s.position, boresightTarget, observer);
        // Walls off the panel's boresight only receive sidelobe power, so
        // its multipath images are sidelobe-scaled too.
        s.multipathGain = config_.directivity.sidelobeAmplitude;
        views[r].push_back(s);
      }
    }
  }
  return views;
}

std::vector<Vec2> placeCentralGhost(const env::FloorPlan& plan,
                                    const trajectory::Trace& centeredTrace) {
  if (centeredTrace.points.size() < 2) {
    throw std::invalid_argument("placeCentralGhost: trace too short");
  }
  const Vec2 center{plan.width() * 0.5, plan.height() * 0.5};
  std::vector<Vec2> out;
  out.reserve(centeredTrace.points.size());
  for (const Vec2& p : centeredTrace.points) {
    out.push_back(plan.clamp(center + p, 0.5));
  }
  return out;
}

}  // namespace rfp::defense
