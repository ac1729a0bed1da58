/// \file bench_ext_linkloss.cpp
/// Extension benchmark: spoofing fidelity and ghost *detectability* versus
/// control-link quality. The paper's reflector hangs off a Raspberry Pi
/// over a real control link; this sweep degrades that link (uniform loss,
/// bit corruption, reordering, duplicates, Gilbert-Elliott loss bursts)
/// and compares two delivery strategies on identical channel conditions:
///
///  - *naive*: PR 1's single-attempt link -- a lost or corrupted control
///    frame replays the stale command (or goes dark), exactly what a bare
///    GPIO/serial hookup would do;
///  - *transport*: the resilient control plane (src/transport) -- CRC-32
///    framing, ack/retransmit with bounded backoff, schedule lookahead
///    coasting, and watchdog park/fade with ledgered non-emission.
///
/// Two curves per strategy go to BENCH_linkloss.json: median/p90 ghost
/// location error (spoofing fidelity) and the continuity-fingerprint rate
/// (freeze + teleport artifacts an eavesdropper could screen for; see
/// src/privacy/continuity_fingerprint.h).
///
/// Expected shape: the transport holds the median error near the loss-free
/// baseline well past 20% loss (retransmits convert loss into latency, the
/// budget guard keeps latency bounded) and keeps the fingerprint rate at
/// or below the naive link's at every operating point, because stalls are
/// replaced by schedule coasting and dark gaps by ledgered fade-outs.
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
#include "privacy/continuity_fingerprint.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;

constexpr std::size_t kTracesPerPoint = 3;
constexpr const char* kOutputPath = "BENCH_linkloss.json";

struct SweepPoint {
  double lossProb = 0.0;
  double corruptProb = 0.0;
  bool transport = false;
  double medianLocationErrorM = 0.0;
  double p90LocationErrorM = 0.0;
  double fingerprintRate = 0.0;
  std::size_t teleportEvents = 0;
  std::size_t freezeFrames = 0;
  std::size_t decisionsStaleReplay = 0;
  std::size_t decisionsPaused = 0;
  std::size_t decisionsCoasted = 0;
  std::size_t decisionsParked = 0;
  transport::LinkStats link;
};

/// Link-only fault model: every non-link impairment is zeroed so the sweep
/// isolates the control channel. intensity = 1 so the link knobs apply at
/// face value.
fault::FaultConfig linkOnlyFaults(double lossProb, double corruptProb,
                                  std::uint64_t seed) {
  fault::FaultConfig fc;
  fc.intensity = 1.0;
  fc.seed = seed;
  fc.deadAntennaProb = 0.0;
  fc.stuckSwitchRatePerS = 0.0;
  fc.switchJitterRel = 0.0;
  fc.switchSettleRel = 0.0;
  fc.gainDriftLogSigma = 0.0;
  fc.lnaSaturationRatePerS = 0.0;
  fc.phaseShifterBits = 0;
  fc.phaseStuckBitRatePerS = 0.0;
  fc.radarDropProb = 0.0;
  fc.adcSaturationRatePerS = 0.0;

  fc.controlDropProb = lossProb;
  fc.controlCorruptProb = corruptProb;
  fc.controlReorderProb = 0.05;
  fc.controlDuplicateProb = 0.05;
  // Gilbert-Elliott bad state: bursts make the loss non-iid, which is what
  // actually defeats naive per-frame replay.
  fc.linkBurstRatePerS = lossProb > 0.0 ? 0.05 : 0.0;
  fc.linkBurstMeanDurS = 1.0;
  fc.linkBurstLossProb = 0.85;
  return fc;
}

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
                    double lossProb, double corruptProb, bool useTransport) {
  SweepPoint point;
  point.lossProb = lossProb;
  point.corruptProb = corruptProb;
  point.transport = useTransport;

  privacy::FingerprintConfig fpConfig;
  fpConfig.frameDtS = 1.0 / scenario.sensing.radar.frameRateHz;

  std::vector<double> locationErrors;
  std::size_t transitions = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::FaultRunOptions options;
    options.faults = linkOnlyFaults(lossProb, corruptProb, 0x11417b + i);
    options.transport.enabled = useTransport;
    // Identical channel timeline and sensing RNG for both strategies.
    common::Rng rng(6100 + i);
    const auto result =
        core::runFaultedSpoofingExperiment(scenario, traces[i], options, rng);
    locationErrors.insert(locationErrors.end(),
                          result.locationErrorsM.begin(),
                          result.locationErrorsM.end());
    const auto fp = privacy::fingerprintTrack(
        result.ledgerIntended, result.ledgerApparent, result.ledgerEmitted,
        fpConfig);
    point.teleportEvents += fp.teleportEvents;
    point.freezeFrames += fp.freezeFrames;
    transitions += fp.transitions;
    point.decisionsStaleReplay += result.decisionsStaleReplay;
    point.decisionsPaused += result.decisionsPaused;
    point.decisionsCoasted += result.decisionsCoasted;
    point.decisionsParked += result.decisionsParked;
    point.link.accumulate(result.linkStats);
  }

  if (locationErrors.empty()) {
    throw std::runtime_error("link-loss sweep produced no location errors");
  }
  for (double e : locationErrors) {
    if (!std::isfinite(e)) {
      throw std::runtime_error(
          "link-loss sweep produced a non-finite location error");
    }
  }
  point.medianLocationErrorM = common::median(locationErrors);
  point.p90LocationErrorM = common::percentile(locationErrors, 90.0);
  point.fingerprintRate =
      transitions > 0
          ? static_cast<double>(point.teleportEvents + point.freezeFrames) /
                static_cast<double>(transitions)
          : 0.0;
  return point;
}

void writeJson(const std::vector<SweepPoint>& sweep,
               double baselineMedianM) {
  std::FILE* out = std::fopen(kOutputPath, "w");
  if (out == nullptr) {
    throw std::runtime_error(std::string("cannot write ") + kOutputPath);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scenario\": \"home\",\n");
  std::fprintf(out, "  \"traces_per_point\": %zu,\n", kTracesPerPoint);
  std::fprintf(out, "  \"lossfree_transport_median_error_m\": %.6f,\n",
               baselineMedianM);
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        out,
        "    {\"loss_prob\": %.2f, \"corrupt_prob\": %.3f, "
        "\"transport\": %s, "
        "\"median_location_error_m\": %.6f, "
        "\"p90_location_error_m\": %.6f, "
        "\"fingerprint_rate\": %.6f, "
        "\"teleport_events\": %zu, \"freeze_frames\": %zu, "
        "\"decisions\": {\"stale_replay\": %zu, \"paused\": %zu, "
        "\"coasted\": %zu, \"parked\": %zu}, "
        "\"link\": {\"attempts\": %zu, \"retransmissions\": %zu, "
        "\"timeouts\": %zu, \"delivered\": %zu, \"missed\": %zu, "
        "\"corrupted_detected\": %zu, \"reorders_rejected\": %zu, "
        "\"duplicates_rejected\": %zu, \"coast_frames\": %zu, "
        "\"parked_frames\": %zu, \"reacquisitions\": %zu}}%s\n",
        p.lossProb, p.corruptProb, p.transport ? "true" : "false",
        p.medianLocationErrorM, p.p90LocationErrorM, p.fingerprintRate,
        p.teleportEvents, p.freezeFrames, p.decisionsStaleReplay,
        p.decisionsPaused, p.decisionsCoasted, p.decisionsParked,
        p.link.attempts, p.link.retransmissions, p.link.timeouts,
        p.link.framesDelivered, p.link.framesMissed,
        p.link.corruptedDetected, p.link.reordersRejected,
        p.link.duplicatesRejected, p.link.coastFrames, p.link.parkedFrames,
        p.link.reacquisitions, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int runSweep() {
  bench::printHeader(
      "Link loss -- spoofing fidelity & ghost detectability vs control-link "
      "quality (resilient transport vs naive replay)");
  const core::Scenario scenario = core::makeHomeScenario();
  const auto traces = walkTraces(kTracesPerPoint, 101);

  const double lossProbs[] = {0.0, 0.05, 0.1, 0.2, 0.35, 0.5};
  std::vector<SweepPoint> sweep;
  std::printf("  %-7s %-9s %-10s %-11s %-9s %-7s %-7s %s\n", "loss",
              "corrupt", "strategy", "median[cm]", "p90[cm]", "fprint",
              "coast", "retx/timeouts/parked");
  for (double loss : lossProbs) {
    const double corrupt = loss / 3.0;
    for (bool useTransport : {false, true}) {
      const SweepPoint p =
          runPoint(scenario, traces, loss, corrupt, useTransport);
      std::printf(
          "  %-7.2f %-9.3f %-10s %-11.1f %-9.1f %-7.3f %-7zu %zu/%zu/%zu\n",
          p.lossProb, p.corruptProb, p.transport ? "transport" : "naive",
          100.0 * p.medianLocationErrorM, 100.0 * p.p90LocationErrorM,
          p.fingerprintRate, p.decisionsCoasted, p.link.retransmissions,
          p.link.timeouts, p.link.parkedFrames);
      sweep.push_back(p);
    }
  }

  const auto find = [&](double loss, bool useTransport) -> const SweepPoint& {
    for (const SweepPoint& p : sweep) {
      if (p.lossProb == loss && p.transport == useTransport) return p;
    }
    throw std::runtime_error("sweep point missing");
  };
  const double baselineMedian = find(0.0, true).medianLocationErrorM;
  writeJson(sweep, baselineMedian);
  std::printf("\n  wrote %s\n", kOutputPath);

  // Acceptance shape checks (mirrors EXPERIMENTS.md):
  int status = 0;
  const SweepPoint& at20 = find(0.2, true);
  const bool medianHolds =
      at20.medianLocationErrorM <= 2.0 * baselineMedian + 0.02;
  std::printf("  transport median at 20%% loss within 2x loss-free "
              "baseline: %s (%.1f cm vs %.1f cm)\n",
              medianHolds ? "holds" : "VIOLATED",
              100.0 * at20.medianLocationErrorM, 100.0 * baselineMedian);
  if (!medianHolds) status = 1;
  bool fingerprintHolds = true;
  for (std::size_t i = 0; i + 1 < sweep.size(); i += 2) {
    const SweepPoint& naive = sweep[i];
    const SweepPoint& resilient = sweep[i + 1];
    if (resilient.fingerprintRate > naive.fingerprintRate) {
      fingerprintHolds = false;
    }
  }
  std::printf("  transport fingerprint rate <= naive at every loss: %s\n",
              fingerprintHolds ? "holds" : "VIOLATED");
  if (!fingerprintHolds) status = 1;
  return status;
}

void BM_LinkLossSpoofRun(benchmark::State& state) {
  const core::Scenario scenario = core::makeHomeScenario();
  const auto traces = walkTraces(1, 101);
  core::FaultRunOptions options;
  options.faults = linkOnlyFaults(0.2, 0.2 / 3.0, 0x11417b);
  options.transport.enabled = true;
  common::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::runFaultedSpoofingExperiment(
        scenario, traces.front(), options, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkLossSpoofRun)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runSweep();
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
