#pragma once

/// \file fleet.h
/// Coordinated multi-reflector defense against radar *networks* (the
/// counter to src/core/multiradar.h, which the paper defers to future
/// work in Sec. 13). One RF-Protect panel can satisfy only one radar: the
/// reflection physically originates at the panel, so every other radar
/// sees the phantom pushed out along *its own* bearing to the panel and
/// the apparent positions disagree. The fix is a fleet: M reflector
/// panels, one mounted near each attacker radar, each solving Eq. 3 for
/// its assigned radar so all N radars localize the *same* phantom
/// position. Directional panel antennas (mainlobe toward the assigned
/// radar) keep each panel's emission out of the other radars' view.
///
/// This header holds the fleet's configuration and robustness state:
/// per-reflector health machines fed by the fault timelines and by each
/// reflector's control hop (a fault::ActuationChannel, whose link watchdog
/// is the heartbeat), and the failover ledger that records every
/// coordination decision -- same seed + same fault timeline reproduces a
/// byte-identical ledger.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/vec2.h"
#include "core/attack_config.h"
#include "core/scenario.h"
#include "fault/fault_schedule.h"
#include "fault/self_healing.h"
#include "reflector/antenna_panel.h"
#include "reflector/controller.h"
#include "reflector/switched_reflector.h"
#include "transport/link.h"

namespace rfp::defense {

/// Ghost ids the fleet stamps on its ledger records and scatterers:
/// reflector i emits ghost kFleetGhostIdBase + i.
inline constexpr int kFleetGhostIdBase = 9000;

/// Health of one fleet reflector, as believed by the coordinator.
enum class ReflectorHealth {
  kActive = 0,    ///< nominal; fully usable
  kDegraded = 1,  ///< impaired (dead elements, stuck switch, lossy link)
                  ///< but still actuating
  kLost = 2,      ///< unusable: every element dead or link parked too
                  ///< long; excluded from assignment (latched)
};

/// Consistency level the fleet can currently defend.
enum class DefenseTier {
  kFullConsistency = 0,    ///< every attacker radar has a reflector
  kPartialConsistency = 1, ///< >= 2 radars covered (strongest subset,
                           ///< priority = attack config order)
  kSingleRadarLegacy = 2,  ///< one reflector left: PR 0 behavior
  kPaused = 3,             ///< no usable reflector; ledgered pause
};

/// Canonical lower-snake names (used by the ledger serialization and the
/// bench JSON; stable across versions).
const char* healthName(ReflectorHealth h);
const char* tierName(DefenseTier t);

/// Per-observer amplitude pattern of a fleet panel's directional
/// antennas: Gaussian mainlobe (boresight toward the assigned radar) over
/// a sidelobe floor. The paper's panel already uses directional antennas
/// (Sec. 9.2); the fleet points them.
struct DirectivityConfig {
  double beamwidthRad = 0.45;     ///< Gaussian mainlobe sigma
  double sidelobeAmplitude = 0.05;///< amplitude floor off boresight
  /// Throws std::invalid_argument on non-positive beamwidth or a sidelobe
  /// level outside [0, 1].
  void validate() const;

  /// Amplitude toward \p observer for a panel whose boresight points
  /// from \p origin toward \p boresightTarget. 1 on boresight.
  double gainToward(rfp::common::Vec2 origin,
                    rfp::common::Vec2 boresightTarget,
                    rfp::common::Vec2 observer) const;
};

/// One fleet reflector's hardware and (optional) scripted fault timeline.
struct FleetReflectorConfig {
  reflector::AntennaPanel panel;
  reflector::ReflectorHardware hardware{};
  /// Scripted episodes merged into this reflector's seeded fault
  /// timeline (chaos benches drop a reflector at an exact time).
  std::vector<fault::FaultEvent> scriptedFaults;
};

/// Full fleet configuration.
struct FleetConfig {
  std::vector<FleetReflectorConfig> reflectors;
  /// Controller template; assumedRadarPosition is overridden per
  /// assignment (each reflector solves Eq. 3 for its assigned radar).
  reflector::ControllerConfig controller{};
  /// Shared hardware fault model; each reflector gets its own timeline
  /// with a seed derived from `seed` and the reflector index.
  fault::FaultConfig faults{};
  fault::RecoveryConfig recovery{};
  /// Control-link knobs; must be enabled (the link watchdog is the health
  /// machine's heartbeat).
  transport::TransportConfig transport{};
  DirectivityConfig directivity{};
  double frameDtS = 0.05;   ///< actuation frame period
  double durationS = 20.0;  ///< fault-timeline horizon
  std::uint64_t seed = 1;   ///< master seed (timelines, links, tie-breaks)
  /// Consecutive parked link frames before a reflector is declared lost
  /// (and the fleet re-solves without it).
  int lostAfterParkedFrames = 24;

  /// Throws std::invalid_argument on invalid geometry or nested configs.
  void validate() const;
};

/// One coordination decision: emitted at start-up and whenever the usable
/// reflector set changes (dropout or recovery).
struct FailoverRecord {
  std::uint64_t frame = 0;
  double timestampS = 0.0;
  DefenseTier tier = DefenseTier::kPaused;
  /// Per reflector: assigned attacker-radar index, or -1 (idle/lost).
  std::vector<int> assignment;
  std::vector<ReflectorHealth> health;  ///< per reflector
  std::string reason;                   ///< deterministic transition text
};

/// Append-only log of the fleet's failover decisions. The determinism
/// contract of the whole stack (seeded timelines, hash-derived channel
/// draws, pure-function assignment costs) makes serialize() byte-identical
/// for the same seed and fault timeline -- the property the tests pin.
class FailoverLedger {
 public:
  void add(FailoverRecord record) { records_.push_back(std::move(record)); }
  const std::vector<FailoverRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Canonical one-line-per-record text form (fixed field order, fixed
  /// "%.6f" timestamps); the byte-identity surface.
  std::string serialize() const;

 private:
  std::vector<FailoverRecord> records_;
};

/// The M reflector panels and their robustness state: per-reflector fault
/// timeline, health machine, and control hop -- one fault::ActuationChannel
/// per physical reflector, whose link watchdog is the heartbeat.
class ReflectorFleet {
 public:
  /// Runtime state of one reflector. The coordinator actuates through the
  /// channel each frame; the fleet owns the health machine.
  struct Reflector {
    Reflector(const FleetReflectorConfig& cfg,
              std::shared_ptr<const fault::FaultSchedule> faults,
              fault::ActuationChannel hop)
        : panel(cfg.panel),
          hardware(cfg.hardware),
          schedule(std::move(faults)),
          channel(std::move(hop)) {}

    reflector::AntennaPanel panel;
    reflector::ReflectorHardware hardware{};
    std::shared_ptr<const fault::FaultSchedule> schedule;
    /// The control hop: link, watchdog, coast schedule, fade level and
    /// parked streak.
    fault::ActuationChannel channel;
    ReflectorHealth health = ReflectorHealth::kActive;

    // --- coordinator-owned assignment state -------------------------------
    int assignedRadar = -1;  ///< attacker-radar index, -1 = idle
    /// Controller solving Eq. 3 for the assigned radar; re-built on
    /// reassignment (the assumed radar position is baked in).
    std::optional<reflector::ReflectorController> controller;
  };

  /// Builds the fleet: one fault timeline per reflector (seed derived
  /// from config.seed and the index; scripted events merged) and one
  /// control hop each. Throws on invalid config.
  explicit ReflectorFleet(const FleetConfig& config);

  std::size_t size() const { return reflectors_.size(); }
  Reflector& at(std::size_t i) { return reflectors_[i]; }
  const Reflector& at(std::size_t i) const { return reflectors_[i]; }
  const FleetConfig& config() const { return config_; }

  /// Advances every reflector's health machine to frame time \p t using
  /// the watchdog-latency-delayed fault belief and the link watchdog
  /// state. kLost latches (a dead panel does not come back; a re-acquired
  /// link after a lost declaration would re-enter mid-epoch with stale
  /// state, so the coordinator keeps it out). Returns true when the
  /// usable (non-lost) set changed -- the coordinator's re-solve trigger.
  bool updateHealth(double t);

  std::vector<ReflectorHealth> healths() const;
  std::size_t usableCount() const;

 private:
  FleetConfig config_;
  std::vector<Reflector> reflectors_;
};

/// Places one defense reflector per attacker radar: a panel on the room
/// wall nearest that radar, 0.35 m inside, offset 0.7 m along the wall
/// from the radar's projection and running along the wall -- the paper's
/// Sec. 9.3 mount geometry, replicated per radar. Controller/hardware
/// templates come from \p scenario; the transport is enabled. The caller
/// then sets faults, scripted events, duration, and seed.
FleetConfig makeDefenseFleet(const core::Scenario& scenario,
                             const std::vector<core::RadarPose>& radars);

}  // namespace rfp::defense
