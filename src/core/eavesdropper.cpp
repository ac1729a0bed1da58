#include "core/eavesdropper.h"

#include <cstdlib>
#include <cstring>

namespace rfp::core {

namespace {

bool sceneCacheKilledByEnv() {
  const char* env = std::getenv("RFP_SCENE_CACHE");
  return env != nullptr && std::strcmp(env, "0") == 0;
}

}  // namespace

EavesdropperRadar::EavesdropperRadar(SensingConfig config, bool sceneCache)
    : config_(config),
      frontend_(config.radar),
      processor_(config.radar, config.processor),
      detector_(config.detector),
      tracker_(config.tracker),
      sceneCacheEnabled_(sceneCache && !sceneCacheKilledByEnv()) {}

std::optional<Observation> EavesdropperRadar::observe(
    std::span<const env::PointScatterer> scatterers, double timestampS,
    rfp::common::Rng& rng) {
  return observeFrame(senseRaw(scatterers, timestampS, rng), timestampS);
}

std::optional<Observation> EavesdropperRadar::observeFrame(
    radar::Frame frame, double timestampS) {
  Observation obs;
  obs.timestampS = timestampS;
  if (observeInto(frame, timestampS, obs.map, obs.detections) == nullptr) {
    return std::nullopt;
  }
  return obs;
}

const radar::Frame* EavesdropperRadar::observeInto(
    const radar::Frame& frame, double timestampS, radar::RangeAngleMap& map,
    std::vector<tracking::Detection>& detections) {
  const radar::Frame* diff = processor_.backgroundDiff(frame);
  if (diff == nullptr) return nullptr;
  processor_.processInto(*diff, map, processorScratch_);
  detector_.detectInto(map, processor_, detectScratch_, detections);
  tracker_.update(detections, timestampS);
  return diff;
}

radar::Frame EavesdropperRadar::senseRaw(
    std::span<const env::PointScatterer> scatterers, double timestampS,
    rfp::common::Rng& rng) {
  radar::Frame frame;
  senseRawInto(frame, scatterers, timestampS, rng);
  return frame;
}

void EavesdropperRadar::senseRawInto(
    radar::Frame& frame, std::span<const env::PointScatterer> scatterers,
    double timestampS, rfp::common::Rng& rng) {
  // Same single engine draw as the historical Frontend::synthesize(rng)
  // overload: one 64-bit seed per chirp when noise is on.
  const std::uint64_t noiseSeed =
      config_.radar.noisePower > 0.0 ? rng.engine()() : 0;
  frontend_.synthesizeInto(frame, scatterers, timestampS, noiseSeed,
                           /*chirpIndex=*/0,
                           sceneCacheEnabled_ ? &sceneCache_ : nullptr);
}

void EavesdropperRadar::reset() {
  processor_.resetBackground();
  tracker_ = tracking::MultiTargetTracker(config_.tracker);
  sceneCache_.invalidate();
}

}  // namespace rfp::core
