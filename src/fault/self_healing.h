#pragma once

/// \file self_healing.h
/// Supervisory recovery loop between the reflector controller and the
/// (faulty) hardware. Each frame the actuator:
///   1. consults the watchdog's belief about element health (ground truth
///      delayed by a detection latency),
///   2. asks the controller for a constrained command -- re-selecting the
///      nearest healthy antenna, re-solving Eq. 3 for the new geometry, and
///      clamping gain into the LNA's linear region,
///   3. enforces ghost-trajectory continuity (a rerouted phantom must not
///      teleport; if it would, the ghost pauses for the frame instead),
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

#include <memory>
#include <optional>
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

/// Per-ghost supervisory actuator. Stateful: it remembers the previous
/// command per ghost for stale replay on dropped control frames and for
/// trajectory-continuity checks; with the transport enabled it also holds
/// each ghost's link endpoint, delivered schedule, and fade level.
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

  const RecoveryConfig& recovery() const { return recovery_; }
  const FaultSchedule& schedule() const { return *schedule_; }
  const transport::TransportConfig& transport() const { return transport_; }

  /// Aggregated link counters across all ghosts (all zero with the
  /// transport disabled).
  transport::LinkStats linkStats() const;

  /// Link state of one ghost (kLinked when the transport is disabled or the
  /// ghost has not actuated yet).
  transport::LinkState linkState(int ghostId) const;

 private:
  struct GhostState {
    bool hasLast = false;
    reflector::ControlCommand lastCommand;
    rfp::common::Vec2 lastApparent{};
    int lastElement = -1;  ///< physical element last driven (for settling)

    // --- transport-mode state ---------------------------------------------
    bool linkInit = false;
    transport::Link link;
    transport::LinkWatchdog watchdog;
    std::vector<reflector::ControlCommand> coastSchedule;
    std::uint64_t scheduleBaseFrame = 0;
    double fadeLevel = 1.0;  ///< 1 = full gain; ramps down while parked
  };

  /// Plans the (recovery-constrained) command for \p ghostWorld at \p tCmd,
  /// using the watchdog's fault belief as of \p tBelief. Returns a command
  /// whose decision is kPaused when no feasible actuation exists or (if
  /// \p checkContinuity) a reroute would teleport the phantom.
  reflector::ControlCommand planCommand(rfp::common::Vec2 ghostWorld,
                                        double tCmd, double tBelief,
                                        const GhostState& gs,
                                        bool checkContinuity) const;

  /// Commits \p cmd: records it in the ghost state and drives it into the
  /// impaired hardware.
  void commit(const reflector::ControlCommand& cmd, const FrameFaults& ff,
              int ghostId, GhostState& gs, ActuationOutcome& out);

  /// PR 1's direct path: the naive single-attempt link (stale replay on
  /// drops).
  ActuationOutcome actuateDirect(rfp::common::Vec2 ghostWorld, double t,
                                 int ghostId);

  /// Transport path: frame the schedule, transfer over the lossy link, and
  /// degrade LINKED -> DEGRADED (coast) -> PARKED (fade out) on misses.
  ActuationOutcome actuateViaLink(
      rfp::common::Vec2 ghostWorld, double t, int ghostId,
      const std::vector<rfp::common::Vec2>& lookaheadWorlds);

  /// Drives \p cmd into the hardware with frame faults \p ff applied.
  void radiate(const reflector::ControlCommand& cmd, const FrameFaults& ff,
               int ghostId, GhostState& gs, ActuationOutcome& out) const;

  const reflector::ReflectorController* controller_;
  std::shared_ptr<const FaultSchedule> schedule_;
  RecoveryConfig recovery_;
  transport::TransportConfig transport_;
  std::unordered_map<int, GhostState> state_;
};

}  // namespace rfp::fault
