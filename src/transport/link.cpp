#include "transport/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/det_hash.h"

namespace rfp::transport {

namespace {

using rfp::common::hashBits;
using rfp::common::hashUniform;

// Channel stream offsets from the link's stream base. Each retransmission
// attempt gets its own stream (stream + attempt * stride) so attempts draw
// independently; the stride keeps them clear of the fault schedule's
// per-frame streams (11..15).
constexpr std::uint64_t kStreamLoss = 1;
constexpr std::uint64_t kStreamCorrupt = 2;
constexpr std::uint64_t kStreamCorruptBit = 3;
constexpr std::uint64_t kStreamReorder = 4;
constexpr std::uint64_t kStreamAckLoss = 5;
constexpr std::uint64_t kStreamBackoffJitter = 6;
constexpr std::uint64_t kAttemptStride = 0x65;

void requirePositive(double v, const char* name) {
  if (!std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument(std::string("TransportConfig: ") + name +
                                " must be > 0");
  }
}

}  // namespace

void TransportConfig::validate() const {
  if (maxRetries < 0) {
    throw std::invalid_argument("TransportConfig: maxRetries must be >= 0");
  }
  if (!std::isfinite(timeoutBudgetFrac) || timeoutBudgetFrac <= 0.0 ||
      timeoutBudgetFrac > 1.0) {
    throw std::invalid_argument(
        "TransportConfig: timeoutBudgetFrac must be in (0, 1]");
  }
  requirePositive(backoffBaseS, "backoffBaseS");
  requirePositive(backoffMaxS, "backoffMaxS");
  if (!std::isfinite(backoffJitterFrac) || backoffJitterFrac < 0.0 ||
      backoffJitterFrac > 1.0) {
    throw std::invalid_argument(
        "TransportConfig: backoffJitterFrac must be in [0, 1]");
  }
  if (scheduleDepth < 1) {
    throw std::invalid_argument("TransportConfig: scheduleDepth must be >= 1");
  }
  requirePositive(coastMaxApparentStepM, "coastMaxApparentStepM");
  if (parkAfterMisses < 1) {
    throw std::invalid_argument(
        "TransportConfig: parkAfterMisses must be >= 1");
  }
  if (fadeFrames < 1) {
    throw std::invalid_argument("TransportConfig: fadeFrames must be >= 1");
  }
  if (reacquireBackoffMaxFrames < 1) {
    throw std::invalid_argument(
        "TransportConfig: reacquireBackoffMaxFrames must be >= 1");
  }
}

void LinkStats::accumulate(const LinkStats& o) {
  attempts += o.attempts;
  retransmissions += o.retransmissions;
  timeouts += o.timeouts;
  framesDelivered += o.framesDelivered;
  framesMissed += o.framesMissed;
  lostInFlight += o.lostInFlight;
  corruptedDetected += o.corruptedDetected;
  reordersRejected += o.reordersRejected;
  duplicatesRejected += o.duplicatesRejected;
  coastFrames += o.coastFrames;
  parkedFrames += o.parkedFrames;
  reacquisitions += o.reacquisitions;
}

bool LinkWatchdog::onDelivery(std::uint64_t) {
  const bool reacquired = state_ == LinkState::kParked;
  state_ = LinkState::kLinked;
  missStreak_ = 0;
  backoffFrames_ = 1;
  return reacquired;
}

void LinkWatchdog::onMiss(std::uint64_t frame) {
  ++missStreak_;
  if (state_ == LinkState::kParked) {
    // Failed re-acquisition attempt: back off exponentially.
    backoffFrames_ =
        std::min(2 * backoffFrames_, config_.reacquireBackoffMaxFrames);
    nextAttemptFrame_ = frame + static_cast<std::uint64_t>(backoffFrames_);
    return;
  }
  if (missStreak_ >= config_.parkAfterMisses) {
    park(frame);
  } else {
    state_ = LinkState::kDegraded;
  }
}

void LinkWatchdog::park(std::uint64_t frame) {
  state_ = LinkState::kParked;
  backoffFrames_ = 1;
  nextAttemptFrame_ = frame + 1;
}

std::optional<Frame> Link::transfer(const Frame& frame,
                                   const ChannelCondition& condition,
                                   double budgetDtS) {
  const std::string encoded = encodeFrame(frame);
  const double budgetS = config_.timeoutBudgetFrac * budgetDtS;
  double elapsedS = 0.0;

  for (int attempt = 0;; ++attempt) {
    ++stats_.attempts;
    if (attempt > 0) ++stats_.retransmissions;

    const auto stream = [&](std::uint64_t offset) {
      return streamBase_ + offset +
             kAttemptStride * static_cast<std::uint64_t>(attempt);
    };
    const auto draw = [&](std::uint64_t offset) {
      return hashUniform(seed_, frame.seq, stream(offset));
    };

    bool arrived = true;
    if (condition.lossProb > 0.0 && draw(kStreamLoss) < condition.lossProb) {
      ++stats_.lostInFlight;
      arrived = false;
    }

    if (arrived && condition.corruptProb > 0.0 &&
        draw(kStreamCorrupt) < condition.corruptProb) {
      // Flip a real bit and let the real CRC catch it: the integrity path
      // is exercised end to end, not assumed.
      std::string wire = encoded;
      const std::uint64_t bit =
          hashBits(seed_, frame.seq, stream(kStreamCorruptBit)) %
          (wire.size() * 8);
      wire[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(wire[bit / 8]) ^ (1u << (bit % 8)));
      if (!decodeFrame(wire).has_value()) {
        ++stats_.corruptedDetected;  // receiver stays silent -> retransmit
        arrived = false;
      }
      // A flip the CRC *would* miss cannot happen for single bits; if the
      // decode improbably succeeded the frame is genuinely intact.
    }

    if (arrived && condition.reorderProb > 0.0 &&
        draw(kStreamReorder) < condition.reorderProb) {
      // Delivered out of order: by the time it arrives the receiver has
      // moved past this sequence number and rejects it as stale.
      ++stats_.reordersRejected;
      arrived = false;
    }

    if (arrived) {
      std::optional<Frame> decoded = decodeFrame(encoded);
      if (decoded.has_value() &&
          (!everAccepted_ || decoded->seq > lastAcceptedSeq_)) {
        lastAcceptedSeq_ = decoded->seq;
        everAccepted_ = true;
        ++stats_.framesDelivered;
        if (condition.duplicateProb > 0.0 &&
            draw(kStreamAckLoss) < condition.duplicateProb) {
          // The ack was lost: the sender retransmits once more and the
          // receiver rejects the duplicate sequence number (and re-acks).
          ++stats_.attempts;
          ++stats_.retransmissions;
          ++stats_.duplicatesRejected;
        }
        return decoded;
      }
      // Stale/duplicate sequence number (only reachable if a caller reuses
      // a seq): rejected, retransmission will not help either, but the
      // budget loop below still terminates.
      ++stats_.duplicatesRejected;
    }

    if (attempt >= config_.maxRetries) {
      ++stats_.timeouts;
      break;
    }
    // Exponential backoff with seeded jitter before the next attempt.
    const double base = std::min(
        config_.backoffMaxS, config_.backoffBaseS * std::ldexp(1.0, attempt));
    const double jitter =
        1.0 + config_.backoffJitterFrac * draw(kStreamBackoffJitter);
    elapsedS += base * jitter;
    if (elapsedS > budgetS) {
      ++stats_.timeouts;
      break;
    }
  }
  ++stats_.framesMissed;
  return std::nullopt;
}

}  // namespace rfp::transport
