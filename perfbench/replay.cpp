#include "replay.h"

#include <cmath>
#include <complex>
#include <span>
#include <string>

#include "common/thread_pool.h"
#include "core/eavesdropper.h"
#include "env/environment.h"
#include "radar/processor.h"
#include "signal/fft.h"
#include "signal/noise.h"
#include "tracking/detection.h"
#include "tracking/tracker.h"
#include "trajectory/human_walk.h"

namespace perfbench {

using rfp::radar::Complex;

ScenarioRig::ScenarioRig(const rfp::core::Scenario& s, std::uint64_t seed)
    : scenario(s), rng(seed) {
  rfp::trajectory::HumanWalkModel model;
  rfp::trajectory::Trace trace;
  do {
    trace = rfp::trajectory::centered(model.sample(rng));
  } while (rfp::trajectory::motionRange(trace) > 3.5);
  system = std::make_unique<rfp::core::RfProtectSystem>(
      scenario.makeController());
  startS = 2.0 / scenario.sensing.radar.frameRateHz;
  ghostId = system->addGhostAuto(trace, startS, scenario.plan, rng);
}

std::vector<double> runnerFrameSeconds(const rfp::core::Scenario& scenario,
                                       std::uint64_t seed) {
  ScenarioRig rig(scenario, seed);
  auto runner = rig.makeRunner();
  std::vector<double> frameS;
  while (!runner->done()) {
    const std::int64_t t0 = nowNs();
    runner->runFrames(1);
    frameS.push_back(secondsSince(t0));
  }
  return frameS;
}

namespace {

void digestFrame(Digest& d, const rfp::radar::Frame& frame) {
  for (const auto& row : frame.samples) {
    d.add(row.data(), row.size() * sizeof(Complex));
  }
}

}  // namespace

struct LayerReplay::State {
  State(const rfp::core::Scenario& scenario, std::uint64_t seed,
        Tracer& tracer, std::size_t mapEvery)
      : rig(scenario, seed),
        tracer(tracer),
        mapEvery(mapEvery),
        environment(rig.scenario.plan),
        synth(rig.scenario.sensing),
        processor(rig.scenario.sensing.radar, rig.scenario.sensing.processor),
        detector(rig.scenario.sensing.detector),
        tracker(rig.scenario.sensing.tracker),
        dt(1.0 / rig.scenario.sensing.radar.frameRateHz) {}

  ScenarioRig rig;
  Tracer& tracer;
  std::size_t mapEvery;
  rfp::env::Environment environment;
  rfp::core::EavesdropperRadar synth;
  rfp::radar::Processor processor;
  rfp::tracking::PeakDetector detector;
  rfp::tracking::MultiTargetTracker tracker;
  // The runner's clock: a cursor advanced by dt, so every timestamp
  // rounds exactly as the runner's does.
  double dt;
  double cursor = 0.0;

  std::vector<rfp::env::PointScatterer> injected;
  std::vector<rfp::env::PointScatterer> scatterers;
  rfp::radar::Frame frame;
  rfp::radar::RangeAngleMap map;
  rfp::radar::ProcessorScratch scratch;
  rfp::tracking::DetectScratch detectScratch;
  std::vector<rfp::tracking::Detection> detections;
  ReplayPass pass;
  Digest digest;
};

LayerReplay::LayerReplay(const rfp::core::Scenario& scenario,
                         std::uint64_t seed, Tracer& tracer,
                         std::size_t mapEvery)
    : state_(std::make_unique<State>(scenario, seed, tracer, mapEvery)) {}

LayerReplay::~LayerReplay() = default;

void LayerReplay::step() {
  State& st = *state_;
  Tracer& tracer = st.tracer;
  const std::int64_t t0 = nowNs();
  const double t = st.cursor;
  st.cursor += st.dt;
  const rfp::radar::Frame* diff = nullptr;
  {
    Tracer::Scope frameSpan(tracer, "replay.frame");
    {
      Tracer::Scope s(tracer, "reflector.inject");
      st.injected = st.rig.system->injectAt(t);
    }
    {
      Tracer::Scope s(tracer, "env.scene");
      rfp::core::combineScatterersInto(st.scatterers, st.environment, t,
                                       st.rig.rng, st.rig.scenario.snapshot,
                                       st.injected);
    }
    {
      Tracer::Scope s(tracer, "radar.synth");
      st.synth.senseRawInto(st.frame, st.scatterers, t, st.rig.rng);
    }
    {
      Tracer::Scope s(tracer, "radar.bgsub");
      diff = st.processor.backgroundDiff(st.frame);
    }
    if (diff != nullptr) {
      {
        Tracer::Scope s(tracer, "radar.process");
        st.processor.processInto(*diff, st.map, st.scratch);
      }
      {
        Tracer::Scope s(tracer, "tracking.detect");
        st.detector.detectInto(st.map, st.processor, st.detectScratch,
                               st.detections);
      }
      {
        Tracer::Scope s(tracer, "tracking.track");
        st.tracker.update(st.detections, t);
      }
    }
  }
  ReplayPass& pass = st.pass;
  ++pass.frames;
  pass.scatterers += static_cast<double>(st.scatterers.size());
  digestFrame(st.digest, st.frame);
  if (diff != nullptr) {
    ++pass.processedFrames;
    pass.detections += static_cast<double>(st.detections.size());
    st.digest.add(st.map.power.data(), st.map.power.size() * sizeof(double));
    if (st.mapEvery > 0 && pass.processedFrames % st.mapEvery == 0) {
      pass.sampledMaps.push_back(st.map.power);
    }
  }
  pass.cacheBytesMax =
      std::max(pass.cacheBytesMax, st.synth.sceneCache().stats().bytes);
  pass.wallS += secondsSince(t0);
}

ReplayPass LayerReplay::pass() const {
  State& st = *state_;
  ReplayPass pass = st.pass;
  pass.cache = st.synth.sceneCache().stats();
  pass.digest = st.digest.value();
  rfp::common::Rng probe = st.rig.rng;  // a copy: peeking leaves no trace
  pass.rngProbe = probe.engine()();
  pass.numAntennas = st.frame.numAntennas();
  pass.samplesPerChirp = st.frame.samplesPerChirp();
  pass.fftLength = st.processor.fftLength();
  pass.numRanges = st.map.numRanges();
  pass.numAngles = st.map.numAngles();
  pass.noisePower = st.rig.scenario.sensing.radar.noisePower;
  return pass;
}

ReplayPass runReplay(const rfp::core::Scenario& scenario, std::uint64_t seed,
                     std::size_t frames, Tracer& tracer,
                     std::size_t mapEvery) {
  LayerReplay replay(scenario, seed, tracer, mapEvery);
  for (std::size_t i = 0; i < frames; ++i) replay.step();
  return replay.pass();
}

namespace {

/// Median per-item time [s] of \p fn over 5 blocks of \p items calls.
template <typename Fn>
double perItemSeconds(std::size_t items, Fn&& fn) {
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < items; ++i) fn(i);
    blocks.push_back(secondsSince(t0) / static_cast<double>(items));
  }
  return median(blocks);
}

/// Per-frame cost [s] of counter-based AWGN on a frame of the given shape
/// (what synthesis adds after the beat tones).
double awgnFrameSeconds(std::size_t antennas, std::size_t samples,
                        double noisePower) {
  std::vector<std::vector<Complex>> rows(antennas,
                                         std::vector<Complex>(samples));
  return perItemSeconds(64, [&](std::size_t i) {
    for (std::size_t k = 0; k < antennas; ++k) {
      rfp::signal::addAwgn(std::span<Complex>(rows[k]), noisePower,
                           /*seed=*/i + 1, /*counter=*/0, /*stream=*/k);
    }
  });
}

/// Per-frame cost [s] of the range FFT: one in-place FFT of \p fftLength
/// points per antenna row.
double rangeFftFrameSeconds(std::size_t antennas, std::size_t fftLength) {
  std::vector<std::vector<Complex>> rows(
      antennas, std::vector<Complex>(fftLength, Complex(1.0, -0.5)));
  return perItemSeconds(64, [&](std::size_t) {
    for (auto& row : rows) {
      rfp::signal::fftInPlaceSpan(std::span<Complex>(row));
    }
  });
}

}  // namespace

SerialPool::SerialPool() { rfp::common::ThreadPool::setGlobalThreads(1); }
SerialPool::~SerialPool() { rfp::common::ThreadPool::setGlobalThreads(0); }

namespace {

constexpr const char* kStages[] = {
    "reflector.inject", "env.scene",       "radar.synth",   "radar.bgsub",
    "radar.process",    "tracking.detect", "tracking.track"};

}  // namespace

void LayerSample::add(const rfp::core::Scenario& scenario, std::uint64_t seed,
                      Tracer& tracer, Result& result) {
  SerialPool serial;
  ScenarioRig rig(scenario, seed);
  auto runner = rig.makeRunner();
  Tracer off(false);
  LayerReplay untracedReplay(scenario, seed, off);
  LayerReplay tracedReplay(scenario, seed, tracer);
  // Blocks of one fleet epoch (32 frames): short enough that a slow
  // stretch of the host hits all three passes alike, long enough that
  // each pass runs with its own working set warm in cache.
  std::vector<double> runnerS;
  while (!runner->done()) {
    std::size_t block = 0;
    for (; block < 32 && !runner->done(); ++block) {
      const std::int64_t t0 = nowNs();
      runner->runFrames(1);
      runnerS.push_back(secondsSince(t0));
    }
    for (std::size_t i = 0; i < block; ++i) untracedReplay.step();
    for (std::size_t i = 0; i < block; ++i) tracedReplay.step();
  }
  const ReplayPass untraced = untracedReplay.pass();
  const ReplayPass traced = tracedReplay.pass();
  const rfp::radar::SceneCache::Stats runnerCache =
      runner->sceneCache().stats();
  const std::uint64_t runnerProbe = rig.rng.engine()();

  result.check("replay traced == untraced (frames and maps, memcmp)",
               traced.digest == untraced.digest &&
                   traced.frames == untraced.frames);
  result.check(
      "replay follows SpoofEpochRunner (rng stream and scene-cache use)",
      traced.rngProbe == runnerProbe && traced.cache.hits == runnerCache.hits &&
          traced.cache.misses == runnerCache.misses &&
          traced.cache.bypassed == runnerCache.bypassed);

  runnerS_ += sum(runnerS);
  runnerFrames_ += runnerS.size();
  tracedWallS_ += traced.wallS;
  untracedWallS_ += untraced.wallS;
  frames_ += traced.frames;
  processed_ += traced.processedFrames;
  scatterers_ += traced.scatterers;
  detections_ += traced.detections;
  cacheHits_ += traced.cache.hits;
  cacheLookups_ +=
      traced.cache.hits + traced.cache.misses + traced.cache.bypassed;
  cacheBytesMax_ = std::max(cacheBytesMax_, traced.cacheBytesMax);
  awgnS_ += static_cast<double>(traced.frames) *
            awgnFrameSeconds(traced.numAntennas, traced.samplesPerChirp,
                             traced.noisePower);
  rangeFftS_ += static_cast<double>(traced.processedFrames) *
                rangeFftFrameSeconds(traced.numAntennas, traced.fftLength);
  // Eq. 2 per map cell: one complex multiply-add per antenna (8 flops)
  // plus the power |.|^2 (3 flops).
  beamformFlops_ += static_cast<double>(traced.processedFrames) *
                    static_cast<double>(traced.numRanges * traced.numAngles) *
                    (8.0 * static_cast<double>(traced.numAntennas) + 3.0);
}

void LayerSample::report(const Tracer& tracer, double coverageBound,
                         Result& result) const {
  const double f = static_cast<double>(std::max<std::size_t>(frames_, 1));
  const double p = static_cast<double>(std::max<std::size_t>(processed_, 1));
  double stagesS = 0.0;
  for (const char* stage : kStages) stagesS += tracer.totalSeconds(stage);
  const double coverage = runnerS_ > 0.0 ? stagesS / runnerS_ : 0.0;
  result.check("trace.coverage within " + formatG(coverageBound) + " of 1",
               std::fabs(coverage - 1.0) <= coverageBound,
               "coverage " + formatG(coverage));

  const double synthS = tracer.totalSeconds("radar.synth");
  const double processS = tracer.totalSeconds("radar.process");
  const double beamformS = processS - rangeFftS_;
  const double runnerFrames =
      static_cast<double>(std::max<std::size_t>(runnerFrames_, 1));
  result.layer("core.frame_us", runnerS_ / runnerFrames * 1e6, "us");
  result.layer("trace.coverage", coverage, "ratio");
  result.layer("trace.overhead_s", tracedWallS_ - untracedWallS_, "s");
  result.layer("reflector.inject_us",
               tracer.totalSeconds("reflector.inject") / f * 1e6, "us");
  result.layer("env.scene_us", tracer.totalSeconds("env.scene") / f * 1e6,
               "us");
  result.layer("env.scatterers", scatterers_ / f, "count");
  result.layer("radar.synth_us", synthS / f * 1e6, "us");
  result.layer("radar.tone_us", (synthS - awgnS_) / f * 1e6, "us");
  result.layer("radar.cache_hit_ratio",
               cacheLookups_ > 0 ? static_cast<double>(cacheHits_) /
                                       static_cast<double>(cacheLookups_)
                                 : 0.0,
               "ratio");
  result.layer("radar.cache_bytes", static_cast<double>(cacheBytesMax_),
               "bytes");
  result.layer("radar.bgsub_us", tracer.totalSeconds("radar.bgsub") / f * 1e6,
               "us");
  result.layer("radar.process_us", processS / p * 1e6, "us");
  result.layer("radar.beamform_us", beamformS / p * 1e6, "us");
  result.layer("radar.beamform_gflops",
               beamformS > 0.0 ? beamformFlops_ / beamformS * 1e-9 : 0.0,
               "GFLOP/s");
  result.layer("signal.range_fft_us", rangeFftS_ / p * 1e6, "us");
  result.layer("signal.awgn_us", awgnS_ / f * 1e6, "us");
  result.layer("tracking.detect_us",
               tracer.totalSeconds("tracking.detect") / p * 1e6, "us");
  result.layer("tracking.track_us",
               tracer.totalSeconds("tracking.track") / p * 1e6, "us");
  result.layer("tracking.detections", detections_ / p, "count");
}

}  // namespace perfbench
