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

}  // namespace

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

ControlCommand SelfHealingActuator::planCommand(Vec2 ghostWorld, double tCmd,
                                                double tBelief,
                                                const GhostState& gs,
                                                bool checkContinuity) const {
  if (!(recovery_.enabled && !schedule_->idle())) {
    return controller_->commandFor(ghostWorld, tCmd);
  }
  // Watchdog belief: ground truth delayed by the readback latency.
  const double lookback =
      static_cast<double>(recovery_.watchdogLatencyFrames) *
      schedule_->frameDtS();
  const FrameFaults believed = schedule_->at(std::max(0.0, tBelief - lookback));

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
  constraints.maxSwitchHz = controller_->reflector().hardware().maxSwitchHz;
  constraints.maxLinearGain = believed.lnaGainLimit;

  const auto constrained =
      controller_->commandForConstrained(ghostWorld, tCmd, constraints);
  if (!constrained.has_value()) {
    ControlCommand paused;
    paused.intendedWorld = ghostWorld;
    paused.decision = HealthDecision::kPaused;
    return paused;  // no feasible actuation: pause the ghost
  }
  ControlCommand cmd = *constrained;

  // Trajectory continuity: a reroute that would teleport the phantom is
  // worse than briefly pausing it (an eavesdropper flags teleports, and
  // the legitimate sensor loses track association).
  if (checkContinuity && cmd.decision == HealthDecision::kRerouted &&
      gs.hasLast &&
      distance(controller_->apparentWorld(cmd), gs.lastApparent) >
          recovery_.maxApparentJumpM) {
    cmd.decision = HealthDecision::kPaused;
  }
  return cmd;
}

void SelfHealingActuator::commit(const ControlCommand& cmd,
                                 const FrameFaults& ff, int ghostId,
                                 GhostState& gs, ActuationOutcome& out) {
  out.command = cmd;
  gs.lastCommand = cmd;
  gs.hasLast = true;
  gs.lastApparent = controller_->apparentWorld(cmd);
  radiate(cmd, ff, ghostId, gs, out);
}

ActuationOutcome SelfHealingActuator::actuate(
    Vec2 ghostWorld, double t, int ghostId,
    const std::vector<Vec2>& lookaheadWorlds) {
  if (transport_.enabled) {
    return actuateViaLink(ghostWorld, t, ghostId, lookaheadWorlds);
  }
  return actuateDirect(ghostWorld, t, ghostId);
}

ActuationOutcome SelfHealingActuator::actuateDirect(Vec2 ghostWorld, double t,
                                                    int ghostId) {
  const FrameFaults ff = schedule_->at(t);
  GhostState& gs = state_[ghostId];
  ActuationOutcome out;

  if (ff.controlFrameDropped) {
    if (!gs.hasLast) {
      // The reflector never received an actuation: it stays dark.
      out.command.intendedWorld = ghostWorld;
      out.command.decision = HealthDecision::kPaused;
      return out;
    }
    // Stale replay: the hardware keeps executing the last command it got.
    ControlCommand stale = gs.lastCommand;
    stale.decision = HealthDecision::kStaleReplay;
    out.command = stale;
    radiate(stale, ff, ghostId, gs, out);
    return out;
  }

  const ControlCommand cmd =
      planCommand(ghostWorld, t, t, gs, /*checkContinuity=*/true);
  if (cmd.decision == HealthDecision::kPaused) {
    out.command = cmd;
    return out;
  }
  commit(cmd, ff, ghostId, gs, out);
  return out;
}

ActuationOutcome SelfHealingActuator::actuateViaLink(
    Vec2 ghostWorld, double t, int ghostId,
    const std::vector<Vec2>& lookaheadWorlds) {
  const FrameFaults ff = schedule_->at(t);
  const double dt = schedule_->frameDtS();
  // Round, don't floor: the harness accumulates t += dt, so t sits within
  // ulps of k*dt on either side -- flooring would occasionally repeat a
  // frame index and make the receiver reject the frame as a duplicate seq.
  const auto frameIdx = static_cast<std::uint64_t>(
      std::max<long long>(0, std::llround(t / dt)));
  GhostState& gs = state_[ghostId];
  if (!gs.linkInit) {
    // Per-ghost channel seed, derived from the fault timeline's seed so one
    // config reproduces everything; salted so parallel links decorrelate.
    const std::uint64_t seed = rfp::common::splitmix64(
        schedule_->config().seed ^ transport_.seedSalt ^
        rfp::common::splitmix64(static_cast<std::uint64_t>(ghostId)));
    gs.link = transport::Link(transport_, seed, transport::kControlStreamBase);
    gs.watchdog = transport::LinkWatchdog(transport_);
    gs.linkInit = true;
  }
  ActuationOutcome out;
  transport::LinkWatchdog& wd = gs.watchdog;

  // Sender side (the Pi is healthy; only the link is not): plan this
  // frame's command plus the lookahead schedule, all against the belief the
  // Pi holds *now*.
  const ControlCommand cmd0 =
      planCommand(ghostWorld, t, t, gs, /*checkContinuity=*/true);
  if (cmd0.decision == HealthDecision::kPaused) {
    // Infeasible regardless of the link; nothing worth transmitting.
    out.command = cmd0;
    return out;
  }

  if (wd.shouldAttempt(frameIdx)) {
    transport::Schedule schedule;
    schedule.ghostId = ghostId;
    schedule.commands.push_back(cmd0);
    const int depth = std::min(transport_.scheduleDepth - 1,
                               static_cast<int>(lookaheadWorlds.size()));
    for (int i = 0; i < depth; ++i) {
      const ControlCommand ahead =
          planCommand(lookaheadWorlds[static_cast<std::size_t>(i)],
                      t + (i + 1) * dt, t, gs, /*checkContinuity=*/false);
      if (ahead.decision == HealthDecision::kPaused) break;
      schedule.commands.push_back(ahead);
    }

    const std::optional<transport::Frame> delivered = gs.link.transfer(
        transport::encodeSchedule(frameIdx, schedule),
        transport::ChannelCondition::fromFaults(ff), dt);
    std::optional<transport::Schedule> received;
    if (delivered) received = transport::decodeSchedule(*delivered);
    if (received.has_value()) {
      if (wd.onDelivery(frameIdx)) ++gs.link.stats().reacquisitions;
      gs.coastSchedule = std::move(received->commands);
      gs.scheduleBaseFrame = frameIdx;
      // The receiver actuates what it *decoded* (bit-identical to what was
      // sent -- corrupted attempts never survive the CRC, and a malformed
      // schedule counts as a miss).
      ControlCommand cmd = gs.coastSchedule.front();
      if (gs.fadeLevel < 1.0) {
        // Fading back in after a park: human-plausible reappearance.
        gs.fadeLevel = std::min(
            1.0, gs.fadeLevel + 1.0 / static_cast<double>(transport_.fadeFrames));
        if (gs.fadeLevel < 1.0) cmd.gain *= gs.fadeLevel;
      }
      commit(cmd, ff, ghostId, gs, out);
      return out;
    }
    wd.onMiss(frameIdx);
  }

  // Missed frame (or parked backoff): degrade.
  if (wd.state() == transport::LinkState::kDegraded) {
    const std::uint64_t idx = frameIdx - gs.scheduleBaseFrame;
    if (!gs.coastSchedule.empty() && idx < gs.coastSchedule.size()) {
      ControlCommand cmd = gs.coastSchedule[static_cast<std::size_t>(idx)];
      cmd.decision = HealthDecision::kCoasted;
      // Human-speed continuity: a schedule entry planned for this frame
      // steps naturally; anything larger means the plan went stale.
      if (!gs.hasLast ||
          distance(controller_->apparentWorld(cmd), gs.lastApparent) <=
              transport_.coastMaxApparentStepM) {
        ++gs.link.stats().coastFrames;
        commit(cmd, ff, ghostId, gs, out);
        return out;
      }
    }
    wd.park(frameIdx);  // schedule exhausted or stale: give up gracefully
  }

  // Parked: fade the phantom out over fadeFrames, then stay dark. Every
  // parked frame is ledgered (decision kParked) so the legitimate sensor
  // can still subtract the fading ghost.
  ++gs.link.stats().parkedFrames;
  gs.fadeLevel = std::max(
      0.0, gs.fadeLevel - 1.0 / static_cast<double>(transport_.fadeFrames));
  if (gs.hasLast && gs.fadeLevel > 0.0) {
    ControlCommand cmd = gs.lastCommand;
    cmd.decision = HealthDecision::kParked;
    cmd.gain *= gs.fadeLevel;
    out.command = cmd;
    radiate(cmd, ff, ghostId, gs, out);
  } else {
    out.command.intendedWorld = ghostWorld;
    out.command.decision = HealthDecision::kParked;
  }
  return out;
}

transport::LinkStats SelfHealingActuator::linkStats() const {
  transport::LinkStats total;
  for (const auto& [id, gs] : state_) {
    if (gs.linkInit) total.accumulate(gs.link.stats());
  }
  return total;
}

transport::LinkState SelfHealingActuator::linkState(int ghostId) const {
  const auto it = state_.find(ghostId);
  if (it == state_.end() || !it->second.linkInit) {
    return transport::LinkState::kLinked;
  }
  return it->second.watchdog.state();
}

void SelfHealingActuator::radiate(const ControlCommand& cmd,
                                  const FrameFaults& ff, int ghostId,
                                  GhostState& gs,
                                  ActuationOutcome& out) const {
  if (!ff.any()) {
    // Fast path, bit-identical to the fault-free pipeline.
    out.scatterers = controller_->execute(cmd, ghostId);
    out.emitted = true;
    gs.lastElement = cmd.antennaIndex;
    return;
  }

  ControlCommand actual = cmd;
  if (ff.stuckSwitchElement >= 0 &&
      ff.stuckSwitchElement < controller_->panel().count()) {
    actual.antennaIndex = ff.stuckSwitchElement;
  }
  const auto element = static_cast<std::size_t>(actual.antennaIndex);
  if (element < ff.deadAntenna.size() && ff.deadAntenna[element]) {
    gs.lastElement = actual.antennaIndex;
    return;  // selected element's feed is dead: nothing radiates
  }

  double jitter = ff.switchJitterRel;
  if (gs.lastElement >= 0 && actual.antennaIndex != gs.lastElement) {
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

  out.scatterers = controller_->execute(actual, ghostId);
  if (overdriven) {
    // Saturation clipping is nonlinear: besides compressing the
    // fundamental, it products an intermodulation image at twice the
    // switching rate -- a spurious phantom at double the extra range.
    ControlCommand spur = actual;
    spur.fSwitchHz = 2.0 * actual.fSwitchHz;
    spur.gain = 0.6 * ff.lnaGainLimit;
    const auto tones = controller_->execute(spur, ghostId);
    out.scatterers.insert(out.scatterers.end(), tones.begin(), tones.end());
  }
  out.emitted = true;
  gs.lastElement = actual.antennaIndex;
}

}  // namespace rfp::fault
