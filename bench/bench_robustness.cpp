/// \file bench_robustness.cpp
/// Robustness sweep of the fault-injection subsystem (src/fault): spoofs
/// human-walk trajectories in the home scenario while hardware faults of
/// increasing intensity hit the reflector (dead/stuck SP8T elements, switch
/// timing jitter, LNA gain drift and saturation, phase-shifter quantization
/// and stuck bits, dropped control frames) and the radar (dropped chirp
/// frames, ADC saturation). Each intensity runs twice -- self-healing
/// recovery on and off -- and the sweep is written to
/// BENCH_robustness.json.
///
/// Expected shape: with recovery disabled the median location error grows
/// sharply with intensity (dark frames, teleporting phantoms, saturation
/// spurs); with recovery enabled it stays within ~2x the fault-free
/// baseline even past 20% faulted frames, trading error for brief pauses.
///
/// The exit status is 0 iff every acceptance check holds. `--smoke` runs
/// the same sweep and skips only the google-benchmark timing loop.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;

constexpr std::size_t kTracesPerPoint = 3;
constexpr const char* kOutputPath = "BENCH_robustness.json";

struct SweepPoint {
  double intensity = 0.0;
  bool recovery = false;
  double medianLocationErrorM = 0.0;
  double p90LocationErrorM = 0.0;
  double detectionRate = 0.0;  ///< detected / (measurable + dropped) frames
  double faultedFrameFraction = 0.0;
  std::size_t framesDroppedRadar = 0;
  std::size_t decisionsRerouted = 0;
  std::size_t decisionsGainClamped = 0;
  std::size_t decisionsStaleReplay = 0;
  std::size_t decisionsPaused = 0;
};

/// Walk traces compact enough for the home room (same filter the scenario
/// config test uses); deterministic in the seed.
std::vector<trajectory::Trace> walkTraces(std::size_t count,
                                          std::uint64_t seed) {
  common::Rng rng(seed);
  trajectory::HumanWalkModel model;
  std::vector<trajectory::Trace> out;
  while (out.size() < count) {
    trajectory::Trace t = trajectory::centered(model.sample(rng));
    if (trajectory::motionRange(t) <= 3.5) out.push_back(std::move(t));
  }
  return out;
}

SweepPoint runPoint(const core::Scenario& scenario,
                    const std::vector<trajectory::Trace>& traces,
                    double intensity, bool recovery) {
  SweepPoint point;
  point.intensity = intensity;
  point.recovery = recovery;

  std::vector<double> locationErrors;
  std::size_t detected = 0;
  std::size_t measurable = 0;
  std::size_t dropped = 0;
  std::size_t faulted = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::FaultRunOptions options;
    options.faults.intensity = intensity;
    options.faults.seed = 0xfa1157ull + i;  // one fault timeline per trace
    options.recovery.enabled = recovery;
    // Every run of the sweep sees the same channel noise / placement RNG.
    common::Rng rng(7000 + i);
    const auto result =
        core::runFaultedSpoofingExperiment(scenario, traces[i], options, rng);
    locationErrors.insert(locationErrors.end(),
                          result.locationErrorsM.begin(),
                          result.locationErrorsM.end());
    detected += result.framesDetected;
    measurable += result.framesTotal;
    dropped += result.framesDroppedRadar;
    faulted += result.framesFaulted;
    point.framesDroppedRadar += result.framesDroppedRadar;
    point.decisionsRerouted += result.decisionsRerouted;
    point.decisionsGainClamped += result.decisionsGainClamped;
    point.decisionsStaleReplay += result.decisionsStaleReplay;
    point.decisionsPaused += result.decisionsPaused;
  }

  if (locationErrors.empty()) {
    throw std::runtime_error("robustness sweep produced no location errors");
  }
  for (double e : locationErrors) {
    if (!std::isfinite(e)) {
      throw std::runtime_error("robustness sweep produced a non-finite "
                               "location error");
    }
  }
  point.medianLocationErrorM = common::median(locationErrors);
  point.p90LocationErrorM = common::percentile(locationErrors, 90.0);
  const double frames = static_cast<double>(measurable + dropped);
  point.detectionRate =
      frames > 0.0 ? static_cast<double>(detected) / frames : 0.0;
  point.faultedFrameFraction =
      frames > 0.0 ? static_cast<double>(faulted) / frames : 0.0;
  return point;
}

void writeJson(const std::vector<SweepPoint>& sweep, double baselineMedianM,
               double baselineP90M) {
  std::FILE* out = std::fopen(kOutputPath, "w");
  if (out == nullptr) {
    throw std::runtime_error(std::string("cannot write ") + kOutputPath);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scenario\": \"home\",\n");
  std::fprintf(out, "  \"traces_per_point\": %zu,\n", kTracesPerPoint);
  std::fprintf(out, "  \"baseline_median_location_error_m\": %.6f,\n",
               baselineMedianM);
  std::fprintf(out, "  \"baseline_p90_location_error_m\": %.6f,\n",
               baselineP90M);
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"intensity\": %.2f, \"recovery\": %s, "
                 "\"median_location_error_m\": %.6f, "
                 "\"p90_location_error_m\": %.6f, "
                 "\"detection_rate\": %.6f, "
                 "\"faulted_frame_fraction\": %.6f, "
                 "\"frames_dropped_radar\": %zu, "
                 "\"decisions\": {\"rerouted\": %zu, \"gain_clamped\": %zu, "
                 "\"stale_replay\": %zu, \"paused\": %zu}}%s\n",
                 p.intensity, p.recovery ? "true" : "false",
                 p.medianLocationErrorM, p.p90LocationErrorM,
                 p.detectionRate, p.faultedFrameFraction,
                 p.framesDroppedRadar, p.decisionsRerouted,
                 p.decisionsGainClamped, p.decisionsStaleReplay,
                 p.decisionsPaused, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int runSweep() {
  bench::printHeader(
      "Robustness -- spoofing accuracy vs hardware fault intensity "
      "(self-healing on/off)");
  const core::Scenario scenario = core::makeHomeScenario();
  const auto traces = walkTraces(kTracesPerPoint, 101);

  const double intensities[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4};
  std::vector<SweepPoint> sweep;
  double baselineMedian = 0.0;
  double baselineP90 = 0.0;
  std::printf("  %-9s %-9s %-11s %-9s %-8s %-8s %s\n", "intensity",
              "recovery", "median[cm]", "p90[cm]", "detect", "faulted",
              "reroute/clamp/stale/pause");
  for (double intensity : intensities) {
    for (bool recovery : {false, true}) {
      const SweepPoint p = runPoint(scenario, traces, intensity, recovery);
      if (intensity == 0.0 && recovery) {
        baselineMedian = p.medianLocationErrorM;
        baselineP90 = p.p90LocationErrorM;
      }
      std::printf(
          "  %-9.2f %-9s %-11.1f %-9.1f %-8.2f %-8.2f %zu/%zu/%zu/%zu\n",
          p.intensity, p.recovery ? "on" : "off",
          100.0 * p.medianLocationErrorM, 100.0 * p.p90LocationErrorM,
          p.detectionRate, p.faultedFrameFraction, p.decisionsRerouted,
          p.decisionsGainClamped, p.decisionsStaleReplay, p.decisionsPaused);
      sweep.push_back(p);
    }
  }

  writeJson(sweep, baselineMedian, baselineP90);
  std::printf("\n  wrote %s\n", kOutputPath);

  // Acceptance shape checks (mirrors ISSUE/EXPERIMENTS.md):
  const auto find = [&](double intensity, bool recovery) -> const SweepPoint& {
    for (const SweepPoint& p : sweep) {
      if (p.intensity == intensity && p.recovery == recovery) return p;
    }
    throw std::runtime_error("sweep point missing");
  };
  int status = 0;
  const SweepPoint& worstOff = find(0.4, false);
  const SweepPoint& midOn = find(0.2, true);
  const bool offGrows =
      worstOff.medianLocationErrorM > 2.0 * baselineMedian;
  std::printf("  recovery-off error grows with intensity: %s "
              "(%.1f cm -> %.1f cm)\n",
              offGrows ? "holds" : "VIOLATED", 100.0 * baselineMedian,
              100.0 * worstOff.medianLocationErrorM);
  if (!offGrows) status = 1;
  const bool onHolds =
      midOn.medianLocationErrorM <= 2.0 * baselineMedian + 0.02;
  std::printf("  recovery-on median within 2x baseline at %.0f%% faulted "
              "frames: %s (%.1f cm vs %.1f cm baseline)\n",
              100.0 * midOn.faultedFrameFraction,
              onHolds ? "holds" : "VIOLATED",
              100.0 * midOn.medianLocationErrorM, 100.0 * baselineMedian);
  if (!onHolds) status = 1;
  return status;
}

void BM_FaultedSpoofRun(benchmark::State& state) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto traces = walkTraces(1, 101);
  core::FaultRunOptions options;
  options.faults.intensity = 0.2;
  common::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::runFaultedSpoofingExperiment(
        scenario, traces.front(), options, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultedSpoofRun)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runSweep();
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
