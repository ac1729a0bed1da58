#pragma once

/// \file link.h
/// The one resilient link of the repository, its configuration, and the
/// heartbeat watchdog that degrades gracefully when a link goes quiet.
///
/// A Link carries Frames (transport/frame.h) over a deterministic lossy
/// channel: loss, corruption with real bit flips caught by the real CRC,
/// reordering, ack loss -> duplicates, and exponential backoff under a
/// per-message budget. Every channel decision is a pure hash of (link
/// seed, message index, attempt), so experiments reproduce exactly and
/// querying messages out of order changes nothing -- the same contract the
/// fault schedule keeps. Two users share the loop on disjoint hash
/// streams: the Pi -> reflector control hop (kControlStreamBase) and the
/// fleet service's client link (kServiceStreamBase).
///
/// On the control hop every frame doubles as a heartbeat. The watchdog's
/// state machine:
///
///   LINKED --miss--> DEGRADED --(streak >= parkAfterMisses or
///            schedule exhausted)--> PARKED --delivery--> LINKED
///
/// DEGRADED coasts on the remaining schedule entries (commands planned for
/// exactly these frames), bounded by human-speed continuity. PARKED fades
/// the ghost's gain to zero over fadeFrames -- an abrupt disappearance is a
/// radar fingerprint, a plausible fade is not -- and re-acquisition attempts
/// back off exponentially so a dead link is not hammered every frame.

#include <cstdint>
#include <optional>

#include "fault/fault_schedule.h"
#include "transport/frame.h"

namespace rfp::transport {

/// Knobs of the retry/backoff/watchdog transport. All defaults are sized
/// for the paper's 50 ms actuation frame (a Raspberry Pi driving the
/// reflector over a short serial/radio hop).
struct TransportConfig {
  /// Off by default: the actuator then drives the controller directly, the
  /// naive single-attempt link of PR 1.
  bool enabled = false;

  // --- Retransmission (within one actuation frame) ------------------------
  /// Maximum retransmissions after the first attempt.
  int maxRetries = 6;
  /// Fraction of the frame period the sender may spend retrying before the
  /// actuation deadline passes and the frame counts as missed.
  double timeoutBudgetFrac = 0.5;
  /// Base retransmit backoff [s]; attempt a waits base * 2^a (capped).
  double backoffBaseS = 0.002;
  /// Backoff ceiling [s].
  double backoffMaxS = 0.02;
  /// Uniform jitter fraction applied to each backoff delay (decorrelates
  /// retry storms; seeded, so still deterministic).
  double backoffJitterFrac = 0.25;

  // --- Schedule / degraded-mode coasting ----------------------------------
  /// Commands per control frame: the current one plus lookahead, so the
  /// reflector can coast through misses on commands planned for exactly
  /// those frames.
  int scheduleDepth = 8;
  /// Largest apparent-position step a coasted command may cause [m]; a
  /// staler schedule that would exceed human-speed continuity parks the
  /// ghost instead.
  double coastMaxApparentStepM = 0.25;

  // --- Watchdog / parking -------------------------------------------------
  /// Consecutive missed frames before the watchdog parks the ghost (the
  /// schedule usually runs out first; this bounds pathological configs).
  int parkAfterMisses = 8;
  /// Frames over which a parked ghost's gain fades to zero (and back in on
  /// re-acquisition). An abrupt disappearance is a radar fingerprint; a
  /// human-plausible fade is not.
  int fadeFrames = 4;
  /// Ceiling of the exponential re-acquisition backoff while parked
  /// [frames].
  int reacquireBackoffMaxFrames = 32;

  /// Salt mixed into the fault-schedule seed to derive the link's own
  /// channel randomness (per ghost, so parallel links decorrelate).
  std::uint64_t seedSalt = 0x5eedc0deull;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// Per-attempt channel condition for one actuation frame.
struct ChannelCondition {
  double lossProb = 0.0;
  double corruptProb = 0.0;
  double reorderProb = 0.0;
  double duplicateProb = 0.0;

  /// The fault schedule's ground truth for this frame.
  static ChannelCondition fromFaults(const fault::FrameFaults& ff) {
    return {ff.controlLossProb, ff.controlCorruptProb, ff.controlReorderProb,
            ff.controlDuplicateProb};
  }

  bool impaired() const {
    return lossProb > 0.0 || corruptProb > 0.0 || reorderProb > 0.0 ||
           duplicateProb > 0.0;
  }
};

/// Watchdog/link health state.
enum class LinkState {
  kLinked,    ///< deliveries arriving; nominal actuation
  kDegraded,  ///< missing frames; coasting on the delivered schedule
  kParked,    ///< link considered down; ghost faded out, re-acquiring
};

/// Heartbeat watchdog: tracks the miss streak, decides the link state, and
/// gates re-acquisition attempts with exponential backoff while parked.
/// Pure state machine (no channel access) so it is unit-testable.
class LinkWatchdog {
 public:
  LinkWatchdog() = default;
  explicit LinkWatchdog(const TransportConfig& config) : config_(config) {}

  LinkState state() const { return state_; }
  int missStreak() const { return missStreak_; }

  /// Whether the sender should spend link attempts on \p frame. Always true
  /// unless parked; while parked, true only when the re-acquisition backoff
  /// has elapsed.
  bool shouldAttempt(std::uint64_t frame) const {
    return state_ != LinkState::kParked || frame >= nextAttemptFrame_;
  }

  /// A frame was accepted by the receiver. Returns true when this was a
  /// re-acquisition (the link was parked).
  bool onDelivery(std::uint64_t frame);

  /// The frame's deadline passed without an accepted delivery.
  void onMiss(std::uint64_t frame);

  /// Force-park (coast schedule exhausted or continuity violated).
  void park(std::uint64_t frame);

 private:
  TransportConfig config_{};
  LinkState state_ = LinkState::kLinked;
  int missStreak_ = 0;
  int backoffFrames_ = 1;
  std::uint64_t nextAttemptFrame_ = 0;
};

/// Hash-stream bases of the two link users. A link draws on streams
/// base+1..base+6, disjoint from each other and from the fault schedule's
/// per-frame streams (11..15), so a scenario that uses all three stays
/// reproducible.
inline constexpr std::uint64_t kControlStreamBase = 20;
inline constexpr std::uint64_t kServiceStreamBase = 30;

/// Cumulative link counters (per link; accumulate() to total). The last
/// three are kept by the fault::ActuationChannel that owns the link.
struct LinkStats {
  long attempts = 0;            ///< transmissions, including retransmits
  long retransmissions = 0;     ///< attempts after the first, per frame
  long timeouts = 0;            ///< frames whose retry budget ran out
  long framesDelivered = 0;     ///< frames accepted by the receiver
  long framesMissed = 0;        ///< frames never accepted in time
  long lostInFlight = 0;        ///< attempts dropped by the channel
  long corruptedDetected = 0;   ///< attempts rejected by CRC
  long reordersRejected = 0;    ///< attempts arriving out of order
  long duplicatesRejected = 0;  ///< retransmits the receiver deduplicated
  long coastFrames = 0;         ///< frames actuated from the schedule buffer
  long parkedFrames = 0;        ///< frames spent parked (fading or dark)
  long reacquisitions = 0;      ///< PARKED -> LINKED transitions

  void accumulate(const LinkStats& o);
};

/// One direction of a resilient link: simulates the attempt loop for each
/// frame under the retry budget. Deterministic: attempt k of message m
/// draws from hash(seed, m, stream(k)), where m is the frame's seq.
class Link {
 public:
  Link() = default;
  Link(const TransportConfig& config, std::uint64_t seed,
       std::uint64_t streamBase)
      : config_(config), seed_(seed), streamBase_(streamBase) {}

  /// Tries to deliver \p frame within timeoutBudgetFrac * \p budgetDtS
  /// (the actuation frame period on the control hop). Returns the frame as
  /// the receiver decoded it -- bit-identical to the sent one, corrupted
  /// attempts never survive the CRC -- or std::nullopt when it was missed.
  std::optional<Frame> transfer(const Frame& frame,
                                const ChannelCondition& condition,
                                double budgetDtS);

  LinkStats& stats() { return stats_; }
  const LinkStats& stats() const { return stats_; }

 private:
  TransportConfig config_{};
  std::uint64_t seed_ = 0;
  std::uint64_t streamBase_ = kControlStreamBase;
  LinkStats stats_{};
  std::uint64_t lastAcceptedSeq_ = 0;
  bool everAccepted_ = false;
};

}  // namespace rfp::transport
