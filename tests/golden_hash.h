#pragma once

/// \file golden_hash.h
/// Order-sensitive 64-bit digest for golden-pin tests: feeds every bit of
/// the values it is given through splitmix64, so a pinned constant moves
/// if any seeded draw, decision, or radiated scatterer moves.

#include <cstdint>
#include <cstring>
#include <string>

#include "common/det_hash.h"
#include "env/scatterer.h"
#include "reflector/controller.h"
#include "transport/link.h"

namespace rfp::testing {

struct GoldenHash {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::uint64_t v) { h = rfp::common::splitmix64(h ^ v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  void add(const transport::LinkStats& s) {
    for (long v : {s.attempts, s.retransmissions, s.timeouts,
                   s.framesDelivered, s.framesMissed, s.lostInFlight,
                   s.corruptedDetected, s.reordersRejected,
                   s.duplicatesRejected, s.coastFrames, s.parkedFrames,
                   s.reacquisitions}) {
      add(static_cast<std::uint64_t>(v));
    }
  }
  void add(const reflector::ControlCommand& c) {
    add(static_cast<std::uint64_t>(c.decision));
    add(static_cast<std::uint64_t>(c.antennaIndex));
    add(c.fSwitchHz);
    add(c.gain);
    add(c.phaseOffsetRad);
  }
  void add(const env::PointScatterer& s) {
    add(s.position.x);
    add(s.position.y);
    add(s.amplitude);
    add(s.radialOffsetM);
    add(s.beatFreqOffsetHz);
    add(s.phaseOffsetRad);
    add(static_cast<std::uint64_t>(s.dynamic));
    add(static_cast<std::uint64_t>(s.sourceId));
    add(s.multipathGain);
  }
};

}  // namespace rfp::testing
