#include "fault/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/constants.h"
#include "common/det_hash.h"
#include "common/rng.h"

namespace rfp::fault {

namespace {

using rfp::common::hashJitter;
using rfp::common::hashUniform;

void requireFinite(double v, const char* name) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be finite");
  }
}

void requireNonNegative(double v, const char* name) {
  requireFinite(v, name);
  if (v < 0.0) {
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be >= 0");
  }
}

// Per-frame stream ids (arbitrary distinct constants; the transport layer's
// per-attempt channel streams live in rfp::transport and must not collide).
constexpr std::uint64_t kStreamControlDrop = 11;
constexpr std::uint64_t kStreamRadarDrop = 12;
constexpr std::uint64_t kStreamSwitchJitter = 13;
constexpr std::uint64_t kStreamSettleJitter = 14;
constexpr std::uint64_t kStreamControlCorrupt = 15;

}  // namespace

void FaultConfig::validate() const {
  requireFinite(intensity, "intensity");
  if (intensity < 0.0 || intensity > 1.0) {
    throw std::invalid_argument("FaultConfig: intensity must be in [0, 1]");
  }
  requireNonNegative(deadAntennaProb, "deadAntennaProb");
  requireNonNegative(stuckSwitchRatePerS, "stuckSwitchRatePerS");
  requireNonNegative(stuckSwitchMeanDurS, "stuckSwitchMeanDurS");
  requireNonNegative(switchJitterRel, "switchJitterRel");
  requireNonNegative(switchSettleRel, "switchSettleRel");
  requireNonNegative(gainDriftLogSigma, "gainDriftLogSigma");
  requireNonNegative(lnaSaturationRatePerS, "lnaSaturationRatePerS");
  requireNonNegative(lnaSaturationMeanDurS, "lnaSaturationMeanDurS");
  requireNonNegative(lnaSaturationGain, "lnaSaturationGain");
  if (phaseShifterBits < 0 || phaseShifterBits > 16) {
    throw std::invalid_argument(
        "FaultConfig: phaseShifterBits must be in [0, 16]");
  }
  requireNonNegative(phaseStuckBitRatePerS, "phaseStuckBitRatePerS");
  requireNonNegative(phaseStuckBitMeanDurS, "phaseStuckBitMeanDurS");
  requireNonNegative(controlDropProb, "controlDropProb");
  requireNonNegative(controlCorruptProb, "controlCorruptProb");
  requireNonNegative(controlReorderProb, "controlReorderProb");
  requireNonNegative(controlDuplicateProb, "controlDuplicateProb");
  requireNonNegative(linkBurstRatePerS, "linkBurstRatePerS");
  requireNonNegative(linkBurstMeanDurS, "linkBurstMeanDurS");
  requireNonNegative(linkBurstLossProb, "linkBurstLossProb");
  if (linkBurstLossProb > 1.0) {
    throw std::invalid_argument(
        "FaultConfig: linkBurstLossProb must be in [0, 1]");
  }
  requireNonNegative(radarDropProb, "radarDropProb");
  requireNonNegative(adcSaturationRatePerS, "adcSaturationRatePerS");
  requireNonNegative(adcSaturationMeanDurS, "adcSaturationMeanDurS");
  requireNonNegative(adcClipLevel, "adcClipLevel");
}

bool FrameFaults::discrete() const {
  if (stuckSwitchElement >= 0 || std::isfinite(lnaGainLimit) ||
      phaseStuckBitMask != 0 || controlFrameDropped || radarFrameDropped ||
      linkBurst || std::isfinite(adcClipLevel)) {
    return true;
  }
  return std::any_of(deadAntenna.begin(), deadAntenna.end(),
                     [](std::uint8_t d) { return d != 0; });
}

bool FrameFaults::any() const {
  if (stuckSwitchElement >= 0 || switchJitterRel != 0.0 ||
      settleJitterRel != 0.0 || gainDriftLog != 0.0 ||
      std::isfinite(lnaGainLimit) || phaseQuantBits > 0 ||
      phaseStuckBitMask != 0 || controlFrameDropped || radarFrameDropped ||
      linkBurst || controlLossProb > 0.0 || controlCorruptProb > 0.0 ||
      controlReorderProb > 0.0 || controlDuplicateProb > 0.0 ||
      std::isfinite(adcClipLevel)) {
    return true;
  }
  return std::any_of(deadAntenna.begin(), deadAntenna.end(),
                     [](std::uint8_t d) { return d != 0; });
}

FaultSchedule::FaultSchedule() = default;

FaultSchedule::FaultSchedule(const FaultConfig& config, int antennaCount,
                             double frameDtS, double durationS)
    : config_(config),
      antennaCount_(antennaCount),
      frameDtS_(frameDtS),
      durationS_(durationS) {
  config_.validate();
  if (antennaCount < 1) {
    throw std::invalid_argument("FaultSchedule: antennaCount must be >= 1");
  }
  if (frameDtS <= 0.0 || !std::isfinite(frameDtS)) {
    throw std::invalid_argument("FaultSchedule: frameDt must be positive");
  }
  if (durationS < 0.0 || !std::isfinite(durationS)) {
    throw std::invalid_argument("FaultSchedule: duration must be >= 0");
  }
  if (config_.intensity == 0.0) return;  // idle: no events, no drift

  rfp::common::Rng rng(config_.seed);
  const double k = config_.intensity;

  // Gain-drift phases are part of the timeline (fixed per seed).
  driftPhase1_ = rng.uniform(0.0, 2.0 * rfp::common::pi());
  driftPhase2_ = rng.uniform(0.0, 2.0 * rfp::common::pi());

  // Permanent element failures: each element dies with probability
  // k * deadAntennaProb at a uniform onset in the first 60% of the run (so
  // a failure always has observable effect).
  for (int a = 0; a < antennaCount_; ++a) {
    if (rng.bernoulli(std::min(1.0, k * config_.deadAntennaProb))) {
      const double onset = rng.uniform(0.0, 0.6 * durationS_);
      events_.push_back({FaultKind::kDeadAntenna, onset, durationS_, a});
    }
  }

  // Poisson episode streams: exponential inter-arrivals, exponential
  // durations. Rates and mean durations are fixed draws per seed.
  const auto addEpisodes = [&](FaultKind kind, double ratePerS,
                               double meanDurS, int indexLo, int indexHi) {
    const double rate = k * ratePerS;
    if (rate <= 0.0 || meanDurS <= 0.0) return;
    double t = rng.exponential(rate);
    while (t < durationS_) {
      const double dur = rng.exponential(1.0 / meanDurS);
      const int index =
          indexHi > indexLo ? rng.uniformInt(indexLo, indexHi) : indexLo;
      events_.push_back({kind, t, std::min(t + dur, durationS_), index});
      t += dur + rng.exponential(rate);
    }
  };
  addEpisodes(FaultKind::kStuckSwitch, config_.stuckSwitchRatePerS,
              config_.stuckSwitchMeanDurS, 0, antennaCount_ - 1);
  addEpisodes(FaultKind::kLnaSaturation, config_.lnaSaturationRatePerS,
              config_.lnaSaturationMeanDurS, 0, 0);
  addEpisodes(FaultKind::kPhaseStuckBit, config_.phaseStuckBitRatePerS,
              config_.phaseStuckBitMeanDurS, 0,
              std::max(0, config_.phaseShifterBits - 1));
  addEpisodes(FaultKind::kAdcSaturation, config_.adcSaturationRatePerS,
              config_.adcSaturationMeanDurS, 0, 0);
  // Appended last so earlier episode streams keep their exact draws.
  addEpisodes(FaultKind::kLinkBurst, config_.linkBurstRatePerS,
              config_.linkBurstMeanDurS, 0, 0);

  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.startS < b.startS;
            });
}

void FaultSchedule::addScriptedEvent(const FaultEvent& event) {
  if (!std::isfinite(event.startS) || !std::isfinite(event.endS) ||
      event.endS < event.startS) {
    throw std::invalid_argument(
        "FaultSchedule: scripted event needs finite startS <= endS");
  }
  if (event.kind == FaultKind::kPhaseStuckBit &&
      (event.index < 0 || event.index > 31)) {
    // at() ORs in 1u << index, which is undefined outside [0, 31].
    throw std::invalid_argument(
        "FaultSchedule: stuck-bit index must be in [0, 31]");
  }
  scripted_ = true;
  // Keep the start-sorted invariant of the generated timeline.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return a.startS < b.startS;
      });
  events_.insert(pos, event);
}

bool FaultSchedule::idle() const {
  return config_.intensity == 0.0 && !scripted_;
}

FrameFaults FaultSchedule::at(double t) const {
  FrameFaults ff;
  ff.deadAntenna.assign(static_cast<std::size_t>(std::max(antennaCount_, 0)),
                        0);
  if (idle()) return ff;

  const double k = config_.intensity;
  const auto frame =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(t / frameDtS_)));

  for (const FaultEvent& e : events_) {
    if (t < e.startS || t >= e.endS) continue;
    switch (e.kind) {
      case FaultKind::kDeadAntenna:
        if (e.index >= 0 && e.index < antennaCount_) {
          ff.deadAntenna[static_cast<std::size_t>(e.index)] = 1;
        }
        break;
      case FaultKind::kStuckSwitch:
        ff.stuckSwitchElement = e.index;
        break;
      case FaultKind::kLnaSaturation:
        ff.lnaGainLimit = std::min(ff.lnaGainLimit, config_.lnaSaturationGain);
        break;
      case FaultKind::kPhaseStuckBit:
        ff.phaseStuckBitMask |= 1u << static_cast<unsigned>(e.index);
        break;
      case FaultKind::kAdcSaturation:
        ff.adcClipLevel = std::min(ff.adcClipLevel, config_.adcClipLevel);
        break;
      case FaultKind::kLinkBurst:
        ff.linkBurst = true;
        break;
    }
  }

  // Per-frame impairments: deterministic in (seed, frame index).
  const std::uint64_t seed = config_.seed;

  // Control-link channel condition. A burst episode raises the loss floor
  // to the Gilbert-Elliott bad-state level regardless of intensity (a burst
  // is a burst; intensity scales how *often* they happen).
  ff.controlLossProb = std::min(1.0, k * config_.controlDropProb);
  if (ff.linkBurst) {
    ff.controlLossProb = std::max(ff.controlLossProb, config_.linkBurstLossProb);
  }
  ff.controlCorruptProb = std::min(1.0, k * config_.controlCorruptProb);
  ff.controlReorderProb = std::min(1.0, k * config_.controlReorderProb);
  ff.controlDuplicateProb = std::min(1.0, k * config_.controlDuplicateProb);

  // Naive (transport-less) link: the single delivery attempt faces the same
  // channel; a corrupted frame is rejected by the receiver's framing but is
  // never retransmitted, so it counts as a drop.
  ff.controlFrameDropped =
      hashUniform(seed, frame, kStreamControlDrop) < ff.controlLossProb ||
      hashUniform(seed, frame, kStreamControlCorrupt) < ff.controlCorruptProb;
  ff.radarFrameDropped =
      hashUniform(seed, frame, kStreamRadarDrop) < k * config_.radarDropProb;
  ff.switchJitterRel = k * config_.switchJitterRel *
                       hashJitter(seed, frame, kStreamSwitchJitter);
  ff.settleJitterRel = k * config_.switchSettleRel *
                       hashJitter(seed, frame, kStreamSettleJitter);
  // Quantization is tied to nonzero intensity; a scripted-events-only
  // schedule (intensity 0) must not silently turn the phase DAC model on.
  ff.phaseQuantBits = k > 0.0 ? config_.phaseShifterBits : 0;

  // Slow LNA gain drift: two incommensurate sinusoids, unit-normalized.
  const double twoPi = 2.0 * rfp::common::pi();
  ff.gainDriftLog =
      k * config_.gainDriftLogSigma *
      (std::sin(twoPi * 0.043 * t + driftPhase1_) +
       0.6 * std::sin(twoPi * 0.011 * t + driftPhase2_)) /
      1.166;  // unit variance
  return ff;
}

}  // namespace rfp::fault
