#pragma once

/// \file fault_schedule.h
/// Deterministic, seeded timeline of hardware fault events. The schedule is
/// generated once (at construction) from a FaultConfig and can then be
/// queried per frame without consuming any randomness, so experiments stay
/// reproducible and query-order independent: episodic faults (stuck switch,
/// LNA/ADC saturation, dead elements, stuck phase bits) are typed events on
/// the timeline, while per-frame impairments (timing jitter, control/radar
/// frame drops) and the slow gain drift are deterministic functions of
/// (seed, frame index).

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault_config.h"

namespace rfp::fault {

/// Kinds of episodic fault events on the timeline.
enum class FaultKind {
  kDeadAntenna,   ///< panel element stops radiating (index = element)
  kStuckSwitch,   ///< SP8T latched on one element (index = element)
  kLnaSaturation, ///< LNA compression point collapses
  kPhaseStuckBit, ///< phase-shifter DAC bit stuck at 1 (index = bit)
  kAdcSaturation, ///< radar ADC clips
  kLinkBurst,     ///< control link in Gilbert-Elliott bad (burst-loss) state
};

/// One episodic fault: active on [startS, endS).
struct FaultEvent {
  FaultKind kind{};
  double startS = 0.0;
  double endS = 0.0;
  int index = 0;  ///< element or bit index, kind-dependent
};

/// Everything that is wrong with the hardware during one frame.
struct FrameFaults {
  std::vector<std::uint8_t> deadAntenna;  ///< per panel element
  int stuckSwitchElement = -1;            ///< -1: switch follows commands
  double switchJitterRel = 0.0;           ///< relative f_switch error
  double settleJitterRel = 0.0;  ///< extra error on element-change frames
  double gainDriftLog = 0.0;     ///< log-amplitude LNA drift
  /// LNA compression ceiling; commanded amplitudes above it clip.
  double lnaGainLimit = std::numeric_limits<double>::infinity();
  int phaseQuantBits = 0;          ///< 0: ideal phase shifter
  unsigned phaseStuckBitMask = 0;  ///< stuck-at-1 bits of the phase code
  bool controlFrameDropped = false;
  bool radarFrameDropped = false;
  /// Effective per-attempt control-link channel condition this frame (the
  /// transport layer's ground truth; already intensity-scaled, and loss is
  /// raised to the burst level while a kLinkBurst episode is active).
  double controlLossProb = 0.0;
  double controlCorruptProb = 0.0;
  double controlReorderProb = 0.0;
  double controlDuplicateProb = 0.0;
  bool linkBurst = false;  ///< burst-loss episode active this frame
  /// ADC clip applied to I/Q samples; +inf when the ADC is linear.
  double adcClipLevel = std::numeric_limits<double>::infinity();

  /// True if any impairment is active this frame.
  bool any() const;

  /// True if a *discrete* fault is active this frame: a dropped frame, a
  /// stuck/dead element, or a saturation/stuck-bit episode. Excludes the
  /// continuous background impairments (timing jitter, gain drift, phase
  /// quantization) that are present on every frame at nonzero intensity --
  /// this is the "faulted frames" statistic the robustness bench sweeps.
  bool discrete() const;
};

/// Pre-generated fault timeline over one experiment run.
class FaultSchedule {
 public:
  /// Empty schedule: no faults, ever (what intensity == 0 produces).
  FaultSchedule();

  /// Generates the timeline for a run of \p durationS seconds at frame
  /// period \p frameDtS on a panel of \p antennaCount elements. Throws
  /// std::invalid_argument on invalid config or non-positive geometry.
  FaultSchedule(const FaultConfig& config, int antennaCount, double frameDtS,
                double durationS);

  /// Ground-truth faults during the frame containing time \p t.
  FrameFaults at(double t) const;

  /// Appends a *scripted* episodic event to the timeline. Chaos benches and
  /// fleet-failover tests need a fault at an exact time (a reflector that
  /// drops out mid-run), which the seeded Poisson streams cannot pin down;
  /// a scripted event is merged into the generated timeline and honored by
  /// at() even at intensity 0 (the schedule then stops reporting idle()).
  /// Throws std::invalid_argument on non-finite or inverted times, and on
  /// a phase stuck-bit index outside [0, 31].
  void addScriptedEvent(const FaultEvent& event);

  /// The episodic events of the timeline (per-frame impairments such as
  /// jitter and frame drops are not events; query at()).
  const std::vector<FaultEvent>& events() const { return events_; }

  const FaultConfig& config() const { return config_; }
  int antennaCount() const { return antennaCount_; }
  double frameDtS() const { return frameDtS_; }
  double durationS() const { return durationS_; }

  /// True when the schedule can never produce a fault (zero intensity or
  /// default constructed); lets callers keep the exact fault-free path.
  bool idle() const;

 private:
  FaultConfig config_{};
  int antennaCount_ = 0;
  double frameDtS_ = 0.05;
  double durationS_ = 0.0;
  bool scripted_ = false;  ///< at least one addScriptedEvent() call
  std::vector<FaultEvent> events_;
  double driftPhase1_ = 0.0;  ///< seed-derived phases of the gain drift
  double driftPhase2_ = 0.0;
};

}  // namespace rfp::fault
