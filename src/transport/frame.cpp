#include "transport/frame.h"

#include "common/crc32.h"
#include "common/wire_codec.h"

namespace rfp::transport {

namespace {

namespace wc = rfp::common::codec;

constexpr std::size_t kCommandBytes =
    2 * sizeof(std::int32_t) + 8 * sizeof(double);

}  // namespace

std::string encodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(20 + frame.payload.size() + 4);
  wc::put<std::uint32_t>(out, kFrameMagic);
  wc::put<std::uint16_t>(out, kFrameVersion);
  wc::put<std::uint64_t>(out, frame.seq);
  wc::put<std::uint16_t>(out, frame.type);
  wc::put<std::uint32_t>(out,
                         static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  wc::put<std::uint32_t>(out, rfp::common::crc32(out.data(), out.size()));
  return out;
}

std::optional<Frame> decodeFrame(std::string_view bytes, std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<Frame> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (bytes.size() < sizeof(std::uint32_t)) return fail("truncated frame");

  // CRC first: everything else is untrustworthy until it matches.
  const std::size_t bodyLen = bytes.size() - sizeof(std::uint32_t);
  std::size_t crcOffset = bodyLen;
  std::uint32_t wireCrc = 0;
  wc::get(bytes, crcOffset, &wireCrc);
  if (rfp::common::crc32(bytes.data(), bodyLen) != wireCrc) {
    return fail("CRC mismatch");
  }

  const std::string_view body = bytes.substr(0, bodyLen);
  std::size_t offset = 0;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  Frame frame;
  std::uint32_t payloadLen = 0;
  if (!wc::get(body, offset, &magic) || !wc::get(body, offset, &version) ||
      !wc::get(body, offset, &frame.seq) ||
      !wc::get(body, offset, &frame.type) ||
      !wc::get(body, offset, &payloadLen)) {
    return fail("truncated header");
  }
  if (magic != kFrameMagic) return fail("bad magic");
  if (version != kFrameVersion) return fail("unsupported version");
  if (bodyLen - offset != payloadLen) return fail("bad length");
  frame.payload.assign(body.data() + offset, payloadLen);
  return frame;
}

Frame encodeSchedule(std::uint64_t seq, const Schedule& schedule) {
  Frame frame;
  frame.seq = seq;
  frame.type = kScheduleFrame;
  std::string& out = frame.payload;
  out.reserve(6 + schedule.commands.size() * kCommandBytes);
  wc::put<std::int32_t>(out, schedule.ghostId);
  wc::put<std::uint16_t>(out,
                         static_cast<std::uint16_t>(schedule.commands.size()));
  for (const reflector::ControlCommand& cmd : schedule.commands) {
    wc::put<std::int32_t>(out, cmd.antennaIndex);
    wc::put<std::int32_t>(out, static_cast<std::int32_t>(cmd.decision));
    wc::put<double>(out, cmd.fSwitchHz);
    wc::put<double>(out, cmd.gain);
    wc::put<double>(out, cmd.phaseOffsetRad);
    wc::put<double>(out, cmd.intendedWorld.x);
    wc::put<double>(out, cmd.intendedWorld.y);
    wc::put<double>(out, cmd.intendedRangeM);
    wc::put<double>(out, cmd.intendedAngleRad);
    wc::put<double>(out, cmd.spoofedRangeM);
  }
  return frame;
}

std::optional<Schedule> decodeSchedule(const Frame& frame,
                                       std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<Schedule> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (frame.type != kScheduleFrame) return fail("not a schedule frame");

  const std::string_view bytes = frame.payload;
  std::size_t offset = 0;
  Schedule schedule;
  std::uint16_t count = 0;
  if (!wc::get(bytes, offset, &schedule.ghostId) ||
      !wc::get(bytes, offset, &count)) {
    return fail("truncated schedule header");
  }
  if (bytes.size() - offset != count * kCommandBytes) {
    return fail("bad schedule length");
  }

  // The exact length check above bounds every read below.
  schedule.commands.resize(count);
  for (reflector::ControlCommand& cmd : schedule.commands) {
    std::int32_t decision = 0;
    wc::get(bytes, offset, &cmd.antennaIndex);
    wc::get(bytes, offset, &decision);
    wc::get(bytes, offset, &cmd.fSwitchHz);
    wc::get(bytes, offset, &cmd.gain);
    wc::get(bytes, offset, &cmd.phaseOffsetRad);
    wc::get(bytes, offset, &cmd.intendedWorld.x);
    wc::get(bytes, offset, &cmd.intendedWorld.y);
    wc::get(bytes, offset, &cmd.intendedRangeM);
    wc::get(bytes, offset, &cmd.intendedAngleRad);
    wc::get(bytes, offset, &cmd.spoofedRangeM);
    cmd.decision = static_cast<reflector::HealthDecision>(decision);
  }
  return schedule;
}

}  // namespace rfp::transport
