#pragma once

/// \file frame.h
/// The one wire frame of every simulated link: a typed, CRC-framed
/// envelope around opaque payload bytes. The Pi -> reflector control hop
/// sends actuation schedules in it (type kScheduleFrame); the fleet
/// service's client link sends its protocol messages (service::MessageType,
/// tags 1..5). The type tag lets either payload evolve without touching
/// the integrity layer.
///
/// Layout (all multi-byte fields in the host's native representation; the
/// link is simulated in-process, and doubles must round-trip bit-exactly):
///
///   u32  magic   'RFPS'
///   u16  version (kFrameVersion)
///   u64  seq     (sender message index; receiver rejects stale/duplicate)
///   u16  type    (payload type tag; opaque here)
///   u32  payload length
///   ...  payload bytes
///   u32  CRC-32 over every preceding byte
///
/// decodeFrame verifies the CRC first, then magic/version/length, so a
/// bit-flipped or truncated frame is *rejected* (triggering a
/// retransmit), never interpreted.
///
/// Schedule payload. Each control frame carries a short actuation
/// *schedule* -- the command for the current frame plus a few lookahead
/// commands -- so the reflector can coast through control-link outages on
/// commands that were planned for exactly those frames instead of
/// replaying a stale one (stale replay is what freezes the phantom and
/// fingerprints the outage to an eavesdropper):
///
///   i32  ghostId
///   u16  command count
///   per command: i32 antennaIndex, i32 decision, f64 fSwitchHz, gain,
///                phaseOffsetRad, intendedWorld.x, intendedWorld.y,
///                intendedRangeM, intendedAngleRad, spoofedRangeM

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "reflector/controller.h"

namespace rfp::transport {

inline constexpr std::uint32_t kFrameMagic = 0x53504652u;  // 'RFPS'
inline constexpr std::uint16_t kFrameVersion = 1;

/// Type tag of a control-schedule frame; outside the service protocol's
/// message tags so the two payload families can never be confused.
inline constexpr std::uint16_t kScheduleFrame = 0x0100;

/// One message on the wire: a type tag plus opaque payload bytes. seq
/// orders messages per direction of one link.
struct Frame {
  std::uint64_t seq = 0;
  std::uint16_t type = 0;
  std::string payload;
};

/// Serializes \p frame to wire bytes (CRC appended).
std::string encodeFrame(const Frame& frame);

/// Parses wire bytes. Returns std::nullopt (and the reason in \p error, if
/// given) on bad magic/version, truncation, bad length, or CRC mismatch.
std::optional<Frame> decodeFrame(std::string_view bytes,
                                 std::string* error = nullptr);

/// A control schedule: commands[i] is the plan for frame seq + i, where
/// seq is the carrying frame's sequence number.
struct Schedule {
  std::int32_t ghostId = 0;
  std::vector<reflector::ControlCommand> commands;
};

/// Wraps \p schedule in a kScheduleFrame frame with sequence number \p seq.
Frame encodeSchedule(std::uint64_t seq, const Schedule& schedule);

/// Parses a schedule frame. Returns std::nullopt (and the reason in
/// \p error, if given) on another type tag, truncation, or a payload whose
/// length is not exactly its command count's. Decoded commands are
/// bit-identical to the encoded ones.
std::optional<Schedule> decodeSchedule(const Frame& frame,
                                       std::string* error = nullptr);

}  // namespace rfp::transport
