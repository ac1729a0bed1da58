/// \file office.cpp
/// office_frames: the paper-size office deployment (500 samples x 7
/// antennas, metal-cabinet multipath) spoofing seeded HumanWalkModel ghost
/// traces frame by frame through SpoofEpochRunner::runFrames, with the
/// library's pool parallelising inside each frame.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/cpuid.h"
#include "core/scenario.h"
#include "harness.h"
#include "replay.h"

namespace perfbench {

namespace simd = rfp::common::simd;

namespace {

std::uint64_t traceSeed(std::uint64_t runSeed, std::size_t k) {
  return streamSeed(runSeed, 0x5000 + k);
}

/// DESIGN.md Sec. 13: |a-b| <= tol * (|a| + |b| + 1) on the end-to-end
/// range-angle map, sse2 vs the FMA regime.
constexpr double kMapTol = 1e-9;

bool mapsWithinBound(const std::vector<std::vector<double>>& a,
                     const std::vector<std::vector<double>>& b,
                     double& worst) {
  worst = 0.0;
  if (a.size() != b.size() || a.empty()) return false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m].size() != b[m].size()) return false;
    for (std::size_t i = 0; i < a[m].size(); ++i) {
      const double scale = std::fabs(a[m][i]) + std::fabs(b[m][i]) + 1.0;
      worst = std::max(worst, std::fabs(a[m][i] - b[m][i]) / scale);
    }
  }
  return worst <= kMapTol;
}

}  // namespace

void runOfficeFrames(const Args& args, Result& result) {
  const rfp::core::Scenario office = rfp::core::makeOfficeScenario();
  // Set-up: the office scenario plus the rigs and runners of the first
  // 64 ghost traces a run spoofs.
  struct Rigs {
    std::vector<std::unique_ptr<ScenarioRig>> rigs;
    std::vector<std::unique_ptr<rfp::core::SpoofEpochRunner>> runners;
  };
  const double setupS = medianSetupSeconds(kSetupReps, [&] {
    const rfp::core::Scenario scenario = rfp::core::makeOfficeScenario();
    Rigs built;
    for (std::size_t k = 0; k < 64; ++k) {
      built.rigs.push_back(
          std::make_unique<ScenarioRig>(scenario, traceSeed(args.seed, k)));
      built.runners.push_back(built.rigs.back()->makeRunner());
    }
    return built;
  });

  const ProcessCounters before = processCounters();
  std::vector<double> frameS;
  double firstTraceS = 0.0;
  std::size_t firstTraceFrames = 0;
  std::size_t traces = 0;
  const std::int64_t t0 = nowNs();
  while (traces == 0 || secondsSince(t0) < args.seconds) {
    ScenarioRig rig(office, traceSeed(args.seed, traces));
    auto runner = rig.makeRunner();
    double traceS = 0.0;
    std::size_t traceFrames = 0;
    while (!runner->done() && secondsSince(t0) < args.seconds) {
      const std::int64_t f0 = nowNs();
      runner->runFrames(1);
      frameS.push_back(secondsSince(f0));
      traceS += frameS.back();
      ++traceFrames;
    }
    if (traces == 0) {
      firstTraceS = traceS;
      firstTraceFrames = traceFrames;
    }
    ++traces;
  }
  const ProcessCounters after = processCounters();

  // Sampled maps of the first trace against an sse2 reference replay.
  Tracer off(false);
  const std::size_t frames = firstTraceFrames;
  const ReplayPass active =
      runReplay(office, traceSeed(args.seed, 0), frames, off, 10);
  const simd::KernelLevel level = simd::activeKernelLevel();
  simd::setActiveKernelLevel(simd::KernelLevel::kSse2);
  const ReplayPass sse2 =
      runReplay(office, traceSeed(args.seed, 0), frames, off, 10);
  simd::setActiveKernelLevel(level);
  double worst = 0.0;
  const bool mapsOk =
      mapsWithinBound(active.sampledMaps, sse2.sampledMaps, worst);
  result.check("sampled maps within 1e-9 of the sse2 reference", mapsOk,
               std::to_string(active.sampledMaps.size()) + " maps, worst " +
                   formatG(worst) + " (" + simd::kernelLevelName(level) +
                   " vs sse2)");

  result.attempted = frameS.size();
  result.failedOps = 0;
  // Median over windows of 32 consecutive frames (about 30 ms), robust
  // to a burst of stolen cycles; the pooled rate is printed beside it.
  std::vector<double> windowRates;
  for (std::size_t i = 0; i + 32 <= frameS.size(); i += 32) {
    double windowS = 0.0;
    for (std::size_t j = i; j < i + 32; ++j) windowS += frameS[j];
    windowRates.push_back(32.0 / windowS);
  }
  const double framesPerS = median(windowRates);
  const double p50 = percentile(frameS, 50.0) * 1e3;
  const double p99 = percentile(frameS, 99.0) * 1e3;
  result.e2e("setup_s", setupS, "s");
  result.e2e("throughput_per_s", framesPerS, "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.info("frames_per_s", framesPerS, "1/s");
  result.info("frame_p50_ms", p50, "ms");
  result.info("frame_p99_ms", p99, "ms");
  result.info("frames_per_s_pooled",
              static_cast<double>(frameS.size()) / sum(frameS), "1/s");
  result.info("frame_samples", static_cast<double>(frameS.size()), "count");

  if (!args.trace) return;
  double serialS = 0.0;
  {
    SerialPool serial;
    serialS = sum(runnerFrameSeconds(office, traceSeed(args.seed, 0)));
  }
  reportCommon(before, after, serialS / firstTraceS, result);
  Tracer tracer(true);
  LayerSample sample;
  for (std::size_t k = 0; k < 2; ++k) {
    sample.add(office, traceSeed(args.seed, k), tracer, result);
  }
  sample.report(tracer, 0.15, result);
  tracer.write(args.outDir + "/spans.txt");
}

}  // namespace perfbench
