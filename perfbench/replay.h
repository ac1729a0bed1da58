#pragma once

/// \file replay.h
/// One spoofing scenario seen from outside the library: the rig the fleet
/// job builds, an untraced SpoofEpochRunner pass that times whole frames,
/// and the layer replay that repeats each frame in the runner's order
/// through public calls, one span per layer.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "harness.h"
#include "radar/scene_cache.h"

namespace perfbench {

/// A spoofing-experiment instance set up exactly as the fleet's scenario
/// job sets one up: a seeded rng, a HumanWalkModel ghost trace with at
/// most 3.5 m range of motion, and an auto-placed ghost that starts two
/// frames in. Not movable: the runner keeps references into it.
class ScenarioRig {
 public:
  ScenarioRig(const rfp::core::Scenario& scenario, std::uint64_t seed);
  ScenarioRig(const ScenarioRig&) = delete;
  ScenarioRig& operator=(const ScenarioRig&) = delete;

  rfp::core::Scenario scenario;
  rfp::common::Rng rng;
  std::unique_ptr<rfp::core::RfProtectSystem> system;
  int ghostId = 0;
  double startS = 0.0;

  std::unique_ptr<rfp::core::SpoofEpochRunner> makeRunner() {
    return std::make_unique<rfp::core::SpoofEpochRunner>(
        scenario, *system, ghostId, startS, rng);
  }
};

/// Wall time [s] of each runFrames(1) call of one untraced runner pass.
std::vector<double> runnerFrameSeconds(const rfp::core::Scenario& scenario,
                                       std::uint64_t seed);

/// What one layer replay produced.
struct ReplayPass {
  std::size_t frames = 0;           ///< frames stepped
  std::size_t processedFrames = 0;  ///< frames past background priming
  double wallS = 0.0;               ///< summed step() wall time
  double scatterers = 0.0;          ///< summed scatterer count
  double detections = 0.0;          ///< summed detection count
  rfp::radar::SceneCache::Stats cache;
  std::size_t cacheBytesMax = 0;
  std::uint64_t digest = 0;    ///< every frame's and map's raw bytes
  std::uint64_t rngProbe = 0;  ///< next draw of the rng afterwards
  std::vector<std::vector<double>> sampledMaps;  ///< every mapEvery-th map
  // Shapes, for the per-frame microbenchmarks and FLOP counts.
  std::size_t numAntennas = 0;
  std::size_t samplesPerChirp = 0;
  std::size_t fftLength = 0;
  std::size_t numRanges = 0;
  std::size_t numAngles = 0;
  double noisePower = 0.0;
};

/// The layer replay of the scenario built from (\p scenario, \p seed):
/// each step() repeats one SpoofEpochRunner frame through public calls --
/// RfProtectSystem::injectAt, combineScatterersInto,
/// EavesdropperRadar::senseRawInto, then the replay's own Processor
/// (backgroundDiff, processInto), PeakDetector::detectInto and
/// MultiTargetTracker::update. With \p tracer enabled every call is a
/// span under one "replay.frame" span. \p mapEvery > 0 keeps every
/// mapEvery-th map.
class LayerReplay {
 public:
  LayerReplay(const rfp::core::Scenario& scenario, std::uint64_t seed,
              Tracer& tracer, std::size_t mapEvery = 0);
  ~LayerReplay();
  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  /// Steps one frame; its wall time adds to the pass's wallS.
  void step();
  /// The pass so far (digest, counters, shapes).
  ReplayPass pass() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// \p frames steps of a LayerReplay.
ReplayPass runReplay(const rfp::core::Scenario& scenario, std::uint64_t seed,
                     std::size_t frames, Tracer& tracer,
                     std::size_t mapEvery = 0);

/// Runs the library's global pool with one worker while alive (the
/// single-thread baseline), restoring the RFP_THREADS-sized pool after.
class SerialPool {
 public:
  SerialPool();
  ~SerialPool();
  SerialPool(const SerialPool&) = delete;
  SerialPool& operator=(const SerialPool&) = delete;
};

/// Accumulates runner and replay passes over a sample of scenarios and
/// emits the core / reflector / env / radar / signal / tracking layer
/// metrics plus the trace coverage and overhead.
class LayerSample {
 public:
  /// Steps the untraced runner, the untraced replay and the traced replay
  /// of one scenario in turn, 32 frames at a time (serial pool), and
  /// checks that both replays are byte-identical and consumed the
  /// runner's exact random stream.
  void add(const rfp::core::Scenario& scenario, std::uint64_t seed,
           Tracer& tracer, Result& result);

  /// Emits the layer metrics; \p coverageBound is the accepted distance
  /// of trace.coverage from 1.
  void report(const Tracer& tracer, double coverageBound,
              Result& result) const;

 private:
  double runnerS_ = 0.0;
  std::size_t runnerFrames_ = 0;
  double tracedWallS_ = 0.0;
  double untracedWallS_ = 0.0;
  std::size_t frames_ = 0;
  std::size_t processed_ = 0;
  double scatterers_ = 0.0;
  double detections_ = 0.0;
  std::uint64_t cacheHits_ = 0;
  std::uint64_t cacheLookups_ = 0;
  std::size_t cacheBytesMax_ = 0;
  double awgnS_ = 0.0;      ///< per-frame, summed over frames
  double rangeFftS_ = 0.0;  ///< per-processed-frame, summed
  double beamformFlops_ = 0.0;
};

}  // namespace perfbench
