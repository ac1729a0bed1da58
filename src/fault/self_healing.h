#pragma once

/// \file self_healing.h
/// Supervisory recovery loop between the reflector controller and the
/// (faulty) hardware, written once: an ActuationChannel is one control hop
/// (one ghost on one reflector), used per ghost by the single-panel
/// SelfHealingActuator and per panel by the reflector fleet
/// (src/defense). Each frame the channel:
///   1. consults the watchdog's belief about element health (ground truth
///      delayed by a detection latency),
///   2. asks the controller for a constrained command -- re-selecting the
///      nearest healthy antenna, re-solving Eq. 3 for the new geometry, and
///      clamping gain into the LNA's linear region,
///   3. enforces ghost-trajectory continuity (a rerouted phantom must not
///      teleport; if it would, the ghost pauses for the frame instead) and
///      never ships a non-finite command (it pauses instead),
///   4. applies the ground-truth hardware impairments to whatever was
///      commanded (stuck switch, dead element, timing jitter, gain drift,
///      saturation clipping with a spurious intermodulation image, phase
///      quantization and stuck bits),
/// and reports the command -- decision included -- for the ghost ledger.
///
/// With the transport layer enabled (src/transport), the Pi -> reflector
/// control hop additionally goes over a lossy link: each frame's command
/// (plus a lookahead schedule) is CRC-framed, retransmitted with
/// exponential backoff under the actuation deadline, and watched by a
/// heartbeat watchdog that coasts on the delivered schedule through short
/// outages and parks the ghost (graceful gain fade-out, ledgered) through
/// long ones. Without it, a lost control frame falls back to PR 1's naive
/// stale replay.
///
/// With recovery disabled the controller's nominal command is driven into
/// the faulty hardware unchanged, which is the "collapse" baseline the
/// robustness bench compares against.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/vec2.h"
#include "env/scatterer.h"
#include "fault/fault_schedule.h"
#include "reflector/controller.h"
#include "transport/link.h"

namespace rfp::fault {

/// Supervisor policy knobs.
struct RecoveryConfig {
  bool enabled = true;
  /// Frames between a fault appearing and the watchdog believing it
  /// (hardware readback latency).
  int watchdogLatencyFrames = 2;
  /// Largest apparent-position jump a recovery reroute may cause before the
  /// ghost is paused instead [m].
  double maxApparentJumpM = 1.2;
};

/// One frame's actuation outcome for one ghost.
struct ActuationOutcome {
  /// What the controller commanded (decision annotated) -- this is what the
  /// ghost ledger records.
  reflector::ControlCommand command;
  /// What the impaired hardware actually radiates (empty when paused or the
  /// selected element is dead).
  std::vector<env::PointScatterer> scatterers;
  /// False when nothing was radiated this frame.
  bool emitted = false;
};

/// True when every numeric field of \p cmd is finite.
bool commandFinite(const reflector::ControlCommand& cmd);

/// One ghost's control hop on one reflector, and the one owner of its
/// state: the last command (stale replay, continuity anchor), the element
/// last driven (switch settling), and -- with the transport enabled -- the
/// Link, its LinkWatchdog, the delivered coast schedule, and the fade
/// level. The single-panel actuator keeps one per ghost; the reflector
/// fleet keeps one per physical reflector.
class ActuationChannel {
 public:
  /// \p linkSeed seeds the control link's channel draws; \p ghostId is
  /// stamped on the control frames and the radiated scatterers. The owner
  /// validates \p recovery and \p transport.
  ActuationChannel(std::shared_ptr<const FaultSchedule> schedule,
                   RecoveryConfig recovery,
                   transport::TransportConfig transport,
                   std::uint64_t linkSeed, int ghostId);

  /// Actuates towards \p ghostWorld at time \p t through \p controller
  /// (passed per call: an owner may rebuild its controller). With the
  /// transport enabled, \p lookaheadWorlds are the ghost's intended
  /// positions for the next frames, which fill the coasting schedule.
  ActuationOutcome actuate(
      const reflector::ReflectorController& controller,
      rfp::common::Vec2 ghostWorld, double t,
      const std::vector<rfp::common::Vec2>& lookaheadWorlds);

  /// The controller now solves for a different radar: drops the coast
  /// schedule and the continuity anchor (both radar-relative). The link,
  /// watchdog, fade level, last element and parked streak carry over.
  void retarget();

  const transport::LinkStats& linkStats() const { return link_.stats(); }
  transport::LinkState linkState() const { return watchdog_.state(); }
  /// Consecutive frames that ended parked (reset by a delivery or a
  /// coasted frame).
  int parkedStreak() const { return parkedStreak_; }

 private:
  /// Plans the (recovery-constrained) command for \p ghostWorld at \p tCmd,
  /// using the watchdog's fault belief as of \p tBelief. Returns a command
  /// whose decision is kPaused when no feasible actuation exists, the
  /// command is non-finite, or (if \p checkContinuity) a reroute would
  /// teleport the phantom.
  reflector::ControlCommand planCommand(
      const reflector::ReflectorController& controller,
      rfp::common::Vec2 ghostWorld, double tCmd, double tBelief,
      bool checkContinuity) const;

  /// Records \p cmd as the last command and drives it into the hardware.
  void commit(const reflector::ReflectorController& controller,
              const reflector::ControlCommand& cmd, const FrameFaults& ff,
              ActuationOutcome& out);

  /// The naive single-attempt link: stale replay on drops.
  ActuationOutcome actuateDirect(
      const reflector::ReflectorController& controller,
      rfp::common::Vec2 ghostWorld, double t);

  /// Frame the schedule, transfer over the lossy link, and degrade
  /// LINKED -> DEGRADED (coast) -> PARKED (fade out) on misses.
  ActuationOutcome actuateViaLink(
      const reflector::ReflectorController& controller,
      rfp::common::Vec2 ghostWorld, double t,
      const std::vector<rfp::common::Vec2>& lookaheadWorlds);

  /// Drives \p cmd into the hardware with frame faults \p ff applied.
  void radiate(const reflector::ReflectorController& controller,
               const reflector::ControlCommand& cmd, const FrameFaults& ff,
               ActuationOutcome& out);

  std::shared_ptr<const FaultSchedule> schedule_;
  RecoveryConfig recovery_;
  transport::TransportConfig transport_;
  int ghostId_;

  bool hasLast_ = false;
  reflector::ControlCommand lastCommand_;
  rfp::common::Vec2 lastApparent_{};
  int lastElement_ = -1;  ///< physical element last driven (for settling)

  // --- transport-mode state -----------------------------------------------
  transport::Link link_;
  transport::LinkWatchdog watchdog_;
  std::vector<reflector::ControlCommand> coastSchedule_;
  std::uint64_t scheduleBaseFrame_ = 0;
  double fadeLevel_ = 1.0;  ///< 1 = full gain; ramps down while parked
  int parkedStreak_ = 0;
};

/// Per-ghost supervisory actuator for one reflector: one ActuationChannel
/// per ghost id, each with its own seeded control link.
class SelfHealingActuator {
 public:
  /// \p controller must outlive the actuator.
  SelfHealingActuator(const reflector::ReflectorController* controller,
                      std::shared_ptr<const FaultSchedule> schedule,
                      RecoveryConfig recovery,
                      transport::TransportConfig transport = {});

  /// Actuate ghost \p ghostId towards \p ghostWorld at time \p t. With the
  /// transport enabled, \p lookaheadWorlds are the ghost's next intended
  /// positions (one per future frame) used to fill the control frame's
  /// coasting schedule.
  ActuationOutcome actuate(
      rfp::common::Vec2 ghostWorld, double t, int ghostId,
      const std::vector<rfp::common::Vec2>& lookaheadWorlds = {});

  const FaultSchedule& schedule() const { return *schedule_; }
  const transport::TransportConfig& transport() const { return transport_; }

  /// Aggregated link counters across all ghosts (all zero with the
  /// transport disabled).
  transport::LinkStats linkStats() const;

 private:
  const reflector::ReflectorController* controller_;
  std::shared_ptr<const FaultSchedule> schedule_;
  RecoveryConfig recovery_;
  transport::TransportConfig transport_;
  std::unordered_map<int, ActuationChannel> channels_;
};

}  // namespace rfp::fault
