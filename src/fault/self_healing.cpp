#include "fault/self_healing.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/constants.h"
#include "common/det_hash.h"

namespace rfp::fault {

using rfp::common::Vec2;
using reflector::ControlCommand;
using reflector::HealthDecision;

namespace {

/// Phase-shifter DAC model: quantize to \p bits and OR in stuck-at-1 bits.
double quantizePhase(double phaseRad, int bits, unsigned stuckMask) {
  const double twoPi = 2.0 * rfp::common::pi();
  const double levels = static_cast<double>(1u << static_cast<unsigned>(bits));
  double frac = phaseRad / twoPi;
  frac -= std::floor(frac);  // wrap into [0, 1)
  auto code = static_cast<unsigned>(std::lround(frac * levels)) %
              static_cast<unsigned>(levels);
  code |= stuckMask;
  code %= static_cast<unsigned>(levels);
  return static_cast<double>(code) * twoPi / levels;
}

ControlCommand pausedAt(Vec2 ghostWorld) {
  ControlCommand paused;
  paused.intendedWorld = ghostWorld;
  paused.decision = HealthDecision::kPaused;
  return paused;
}

}  // namespace

bool commandFinite(const ControlCommand& cmd) {
  return std::isfinite(cmd.fSwitchHz) && std::isfinite(cmd.gain) &&
         std::isfinite(cmd.phaseOffsetRad) &&
         std::isfinite(cmd.spoofedRangeM) &&
         std::isfinite(cmd.intendedWorld.x) &&
         std::isfinite(cmd.intendedWorld.y);
}

ActuationChannel::ActuationChannel(
    std::shared_ptr<const FaultSchedule> schedule, RecoveryConfig recovery,
    transport::TransportConfig transport, std::uint64_t linkSeed, int ghostId)
    : schedule_(std::move(schedule)),
      recovery_(recovery),
      transport_(transport),
      ghostId_(ghostId),
      link_(transport_, linkSeed, transport::kControlStreamBase),
      watchdog_(transport_) {}

ControlCommand ActuationChannel::planCommand(
    const reflector::ReflectorController& controller, Vec2 ghostWorld,
    double tCmd, double tBelief, bool checkContinuity) const {
  ControlCommand cmd;
  if (!recovery_.enabled || schedule_->idle()) {
    cmd = controller.commandFor(ghostWorld, tCmd);
  } else {
    // Watchdog belief: ground truth delayed by the readback latency.
    const double lookback =
        static_cast<double>(recovery_.watchdogLatencyFrames) *
        schedule_->frameDtS();
    const FrameFaults believed =
        schedule_->at(std::max(0.0, tBelief - lookback));

    reflector::ActuationConstraints constraints;
    const int n = schedule_->antennaCount();
    constraints.healthyAntennas.assign(static_cast<std::size_t>(n), true);
    for (int i = 0; i < n; ++i) {
      if (believed.deadAntenna[static_cast<std::size_t>(i)]) {
        constraints.healthyAntennas[static_cast<std::size_t>(i)] = false;
      }
    }
    if (believed.stuckSwitchElement >= 0 && believed.stuckSwitchElement < n) {
      // A stuck SP8T makes every element but the latched one unreachable;
      // the best the supervisor can do is re-solve Eq. 3 for that geometry.
      for (int i = 0; i < n; ++i) {
        constraints.healthyAntennas[static_cast<std::size_t>(i)] =
            i == believed.stuckSwitchElement &&
            !believed.deadAntenna[static_cast<std::size_t>(i)];
      }
    }
    constraints.maxSwitchHz = controller.reflector().hardware().maxSwitchHz;
    constraints.maxLinearGain = believed.lnaGainLimit;

    const auto constrained =
        controller.commandForConstrained(ghostWorld, tCmd, constraints);
    if (!constrained.has_value()) {
      return pausedAt(ghostWorld);  // no feasible actuation: pause the ghost
    }
    cmd = *constrained;

    // Trajectory continuity: a reroute that would teleport the phantom is
    // worse than briefly pausing it (an eavesdropper flags teleports, and
    // the legitimate sensor loses track association).
    if (checkContinuity && cmd.decision == HealthDecision::kRerouted &&
        hasLast_ &&
        distance(controller.apparentWorld(cmd), lastApparent_) >
            recovery_.maxApparentJumpM) {
      cmd.decision = HealthDecision::kPaused;
    }
  }

  // Never ship a non-finite command: a NaN f_switch would reach the radar
  // front end as a NaN tone.
  if (cmd.decision != HealthDecision::kPaused && !commandFinite(cmd)) {
    return pausedAt(ghostWorld);
  }
  return cmd;
}

void ActuationChannel::commit(const reflector::ReflectorController& controller,
                              const ControlCommand& cmd, const FrameFaults& ff,
                              ActuationOutcome& out) {
  out.command = cmd;
  lastCommand_ = cmd;
  hasLast_ = true;
  lastApparent_ = controller.apparentWorld(cmd);
  radiate(controller, cmd, ff, out);
}

void ActuationChannel::retarget() {
  coastSchedule_.clear();
  hasLast_ = false;
}

ActuationOutcome ActuationChannel::actuate(
    const reflector::ReflectorController& controller, Vec2 ghostWorld,
    double t, const std::vector<Vec2>& lookaheadWorlds) {
  if (transport_.enabled) {
    return actuateViaLink(controller, ghostWorld, t, lookaheadWorlds);
  }
  return actuateDirect(controller, ghostWorld, t);
}

ActuationOutcome ActuationChannel::actuateDirect(
    const reflector::ReflectorController& controller, Vec2 ghostWorld,
    double t) {
  const FrameFaults ff = schedule_->at(t);
  ActuationOutcome out;

  if (ff.controlFrameDropped) {
    if (!hasLast_) {
      // The reflector never received an actuation: it stays dark.
      out.command = pausedAt(ghostWorld);
      return out;
    }
    // Stale replay: the hardware keeps executing the last command it got.
    ControlCommand stale = lastCommand_;
    stale.decision = HealthDecision::kStaleReplay;
    out.command = stale;
    radiate(controller, stale, ff, out);
    return out;
  }

  const ControlCommand cmd =
      planCommand(controller, ghostWorld, t, t, /*checkContinuity=*/true);
  if (cmd.decision == HealthDecision::kPaused) {
    out.command = cmd;
    return out;
  }
  commit(controller, cmd, ff, out);
  return out;
}

ActuationOutcome ActuationChannel::actuateViaLink(
    const reflector::ReflectorController& controller, Vec2 ghostWorld,
    double t, const std::vector<Vec2>& lookaheadWorlds) {
  const FrameFaults ff = schedule_->at(t);
  const double dt = schedule_->frameDtS();
  // Round, don't floor: the harness accumulates t += dt, so t sits within
  // ulps of k*dt on either side -- flooring would occasionally repeat a
  // frame index and make the receiver reject the frame as a duplicate seq.
  const auto frameIdx = static_cast<std::uint64_t>(
      std::max<long long>(0, std::llround(t / dt)));
  ActuationOutcome out;

  // Sender side (the Pi is healthy; only the link is not): plan this
  // frame's command plus the lookahead schedule, all against the belief the
  // Pi holds *now*.
  const ControlCommand cmd0 =
      planCommand(controller, ghostWorld, t, t, /*checkContinuity=*/true);
  if (cmd0.decision == HealthDecision::kPaused) {
    // Infeasible regardless of the link; nothing worth transmitting.
    out.command = cmd0;
    return out;
  }

  if (watchdog_.shouldAttempt(frameIdx)) {
    transport::Schedule schedule;
    schedule.ghostId = ghostId_;
    schedule.commands.push_back(cmd0);
    const int depth = std::min(transport_.scheduleDepth - 1,
                               static_cast<int>(lookaheadWorlds.size()));
    for (int i = 0; i < depth; ++i) {
      const ControlCommand ahead = planCommand(
          controller, lookaheadWorlds[static_cast<std::size_t>(i)],
          t + (i + 1) * dt, t, /*checkContinuity=*/false);
      if (ahead.decision == HealthDecision::kPaused) break;
      schedule.commands.push_back(ahead);
    }

    const std::optional<transport::Frame> delivered = link_.transfer(
        transport::encodeSchedule(frameIdx, schedule),
        transport::ChannelCondition::fromFaults(ff), dt);
    std::optional<transport::Schedule> received;
    if (delivered) received = transport::decodeSchedule(*delivered);
    if (received.has_value()) {
      if (watchdog_.onDelivery(frameIdx)) ++link_.stats().reacquisitions;
      coastSchedule_ = std::move(received->commands);
      scheduleBaseFrame_ = frameIdx;
      parkedStreak_ = 0;
      // The receiver actuates what it *decoded* (bit-identical to what was
      // sent -- corrupted attempts never survive the CRC, and a malformed
      // schedule counts as a miss).
      ControlCommand cmd = coastSchedule_.front();
      if (fadeLevel_ < 1.0) {
        // Fading back in after a park: human-plausible reappearance.
        fadeLevel_ = std::min(
            1.0, fadeLevel_ + 1.0 / static_cast<double>(transport_.fadeFrames));
        if (fadeLevel_ < 1.0) cmd.gain *= fadeLevel_;
      }
      commit(controller, cmd, ff, out);
      return out;
    }
    watchdog_.onMiss(frameIdx);
  }

  // Missed frame (or parked backoff): degrade.
  if (watchdog_.state() == transport::LinkState::kDegraded) {
    const std::uint64_t idx = frameIdx - scheduleBaseFrame_;
    if (!coastSchedule_.empty() && idx < coastSchedule_.size()) {
      ControlCommand cmd = coastSchedule_[static_cast<std::size_t>(idx)];
      cmd.decision = HealthDecision::kCoasted;
      // Human-speed continuity: a schedule entry planned for this frame
      // steps naturally; anything larger means the plan went stale.
      if (!hasLast_ ||
          distance(controller.apparentWorld(cmd), lastApparent_) <=
              transport_.coastMaxApparentStepM) {
        ++link_.stats().coastFrames;
        parkedStreak_ = 0;
        commit(controller, cmd, ff, out);
        return out;
      }
    }
    watchdog_.park(frameIdx);  // schedule exhausted or stale: give up
  }

  // Parked: fade the phantom out over fadeFrames, then stay dark. Every
  // parked frame is ledgered (decision kParked) so the legitimate sensor
  // can still subtract the fading ghost; the fleet turns a long streak
  // into a lost-reflector declaration.
  ++link_.stats().parkedFrames;
  ++parkedStreak_;
  fadeLevel_ = std::max(
      0.0, fadeLevel_ - 1.0 / static_cast<double>(transport_.fadeFrames));
  if (hasLast_ && fadeLevel_ > 0.0) {
    ControlCommand cmd = lastCommand_;
    cmd.decision = HealthDecision::kParked;
    cmd.gain *= fadeLevel_;
    out.command = cmd;
    radiate(controller, cmd, ff, out);
  } else {
    out.command.intendedWorld = ghostWorld;
    out.command.decision = HealthDecision::kParked;
  }
  return out;
}

void ActuationChannel::radiate(const reflector::ReflectorController& controller,
                               const ControlCommand& cmd,
                               const FrameFaults& ff, ActuationOutcome& out) {
  if (!ff.any()) {
    // Fast path, bit-identical to the fault-free pipeline.
    out.scatterers = controller.execute(cmd, ghostId_);
    out.emitted = true;
    lastElement_ = cmd.antennaIndex;
    return;
  }

  ControlCommand actual = cmd;
  if (ff.stuckSwitchElement >= 0 &&
      ff.stuckSwitchElement < controller.panel().count()) {
    actual.antennaIndex = ff.stuckSwitchElement;
  }
  const auto element = static_cast<std::size_t>(actual.antennaIndex);
  if (element < ff.deadAntenna.size() && ff.deadAntenna[element]) {
    lastElement_ = actual.antennaIndex;
    return;  // selected element's feed is dead: nothing radiates
  }

  double jitter = ff.switchJitterRel;
  if (lastElement_ >= 0 && actual.antennaIndex != lastElement_) {
    jitter += ff.settleJitterRel;  // switch driver still settling
  }
  jitter = std::clamp(jitter, -0.9, 0.9);
  actual.fSwitchHz = cmd.fSwitchHz * (1.0 + jitter);
  actual.gain = cmd.gain * std::exp(ff.gainDriftLog);

  bool overdriven = false;
  if (actual.gain > ff.lnaGainLimit) {
    overdriven = true;
    actual.gain = ff.lnaGainLimit;
  }
  if (ff.phaseQuantBits > 0) {
    actual.phaseOffsetRad = quantizePhase(actual.phaseOffsetRad,
                                          ff.phaseQuantBits,
                                          ff.phaseStuckBitMask);
  }

  out.scatterers = controller.execute(actual, ghostId_);
  if (overdriven) {
    // Saturation clipping is nonlinear: besides compressing the
    // fundamental, it produces an intermodulation image at twice the
    // switching rate -- a spurious phantom at double the extra range.
    ControlCommand spur = actual;
    spur.fSwitchHz = 2.0 * actual.fSwitchHz;
    spur.gain = 0.6 * ff.lnaGainLimit;
    const auto tones = controller.execute(spur, ghostId_);
    out.scatterers.insert(out.scatterers.end(), tones.begin(), tones.end());
  }
  out.emitted = true;
  lastElement_ = actual.antennaIndex;
}

SelfHealingActuator::SelfHealingActuator(
    const reflector::ReflectorController* controller,
    std::shared_ptr<const FaultSchedule> schedule, RecoveryConfig recovery,
    transport::TransportConfig transport)
    : controller_(controller),
      schedule_(std::move(schedule)),
      recovery_(recovery),
      transport_(transport) {
  if (controller_ == nullptr || schedule_ == nullptr) {
    throw std::invalid_argument(
        "SelfHealingActuator: controller and schedule are required");
  }
  if (recovery_.watchdogLatencyFrames < 0) {
    throw std::invalid_argument(
        "SelfHealingActuator: watchdog latency must be >= 0");
  }
  transport_.validate();
}

ActuationOutcome SelfHealingActuator::actuate(
    Vec2 ghostWorld, double t, int ghostId,
    const std::vector<Vec2>& lookaheadWorlds) {
  auto it = channels_.find(ghostId);
  if (it == channels_.end()) {
    // Per-ghost link seed, derived from the fault timeline's seed so one
    // config reproduces everything; salted so parallel links decorrelate.
    const std::uint64_t linkSeed = rfp::common::splitmix64(
        schedule_->config().seed ^ transport_.seedSalt ^
        rfp::common::splitmix64(static_cast<std::uint64_t>(ghostId)));
    it = channels_
             .try_emplace(ghostId, schedule_, recovery_, transport_, linkSeed,
                          ghostId)
             .first;
  }
  return it->second.actuate(*controller_, ghostWorld, t, lookaheadWorlds);
}

transport::LinkStats SelfHealingActuator::linkStats() const {
  transport::LinkStats total;
  for (const auto& [id, channel] : channels_) {
    total.accumulate(channel.linkStats());
  }
  return total;
}

}  // namespace rfp::fault
