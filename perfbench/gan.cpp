/// \file gan.cpp
/// gan_train: conditional-GAN TrainingSession::advance steps with the
/// library-default Generator / Discriminator / training configs over a
/// seeded HumanWalkModel dataset -- the one workload where linalg, nn and
/// gan do the work.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "gan/trajectory_gan.h"
#include "harness.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "replay.h"
#include "trajectory/human_walk.h"

namespace perfbench {

namespace gan = rfp::gan;

namespace {

constexpr std::size_t kDatasetTraces = 512;

/// One training set-up: dataset, networks and session, all from one seed.
struct GanRig {
  explicit GanRig(std::uint64_t seed) : rng(seed) {
    dataset = rfp::trajectory::HumanWalkModel().dataset(kDatasetTraces, rng);
    gan::GeneratorConfig g;
    g.traceLength = rfp::common::kTracePoints - 1;  // step space
    gan::DiscriminatorConfig d;
    d.traceLength = rfp::common::kTracePoints - 1;
    network = std::make_unique<gan::TrajectoryGan>(
        g, d, gan::GanTrainingConfig{}, rng);
    session = std::make_unique<gan::TrainingSession>(*network, dataset, rng);
  }
  GanRig(const GanRig&) = delete;  // the session keeps references inside
  GanRig& operator=(const GanRig&) = delete;

  rfp::common::Rng rng;
  std::vector<rfp::trajectory::Trace> dataset;
  std::unique_ptr<gan::TrajectoryGan> network;
  std::unique_ptr<gan::TrainingSession> session;
};

struct StepRecord {
  double seconds = 0.0;
  double dLoss = 0.0;
  double gLoss = 0.0;
};

/// Advances until \p maxSteps mini-batches ran, or until \p seconds passed
/// once at least \p minSteps ran.
std::vector<StepRecord> train(GanRig& rig, std::size_t minSteps,
                              std::size_t maxSteps, double seconds) {
  std::vector<StepRecord> out;
  const std::int64_t t0 = nowNs();
  while (out.size() < maxSteps && !rig.session->done() &&
         (out.size() < minSteps || secondsSince(t0) < seconds)) {
    const std::int64_t s0 = nowNs();
    const gan::TrainingSession::Event ev = rig.session->advance();
    if (ev.type != gan::TrainingSession::Event::Type::kBatch) continue;
    out.push_back({secondsSince(s0), ev.batch.discriminatorLoss,
                   ev.batch.generatorLoss});
  }
  return out;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One GEMM issued by a training step: C[m x n] = op(A)[m x k] op(B)[k x n].
struct GemmShape {
  std::size_t m, k, n;
  bool transA, transB;
  auto key() const { return std::tie(m, k, n, transA, transB); }
  bool operator<(const GemmShape& o) const { return key() < o.key(); }
};

/// The GEMMs one mini-batch issues, with call counts, derived from the
/// network configs: a Linear layer is one forward GEMM and two backward
/// (weight gradient, input gradient); an LSTM cell step is two forward
/// (input and recurrent gates) and four backward. A step runs G forward
/// twice and backward once, and D forward and backward three times each.
std::map<GemmShape, double> stepGemms(const gan::GeneratorConfig& g,
                                      const gan::DiscriminatorConfig& d,
                                      std::size_t batch) {
  std::map<GemmShape, double> calls;
  const auto linear = [&](std::size_t rows, std::size_t in, std::size_t out,
                          double fwd, double bwd) {
    calls[{rows, in, out, false, false}] += fwd;
    calls[{in, rows, out, true, false}] += bwd;   // dW = x^T dy
    calls[{rows, out, in, false, true}] += bwd;   // dx = dy W^T
  };
  const auto lstm = [&](std::size_t in, std::size_t h, std::size_t steps,
                        double fwd, double bwd) {
    const double f = fwd * static_cast<double>(steps);
    const double b = bwd * static_cast<double>(steps);
    calls[{batch, in, 4 * h, false, false}] += f;
    calls[{batch, h, 4 * h, false, false}] += f;
    calls[{in, batch, 4 * h, true, false}] += b;
    calls[{h, batch, 4 * h, true, false}] += b;
    calls[{batch, 4 * h, in, false, true}] += b;
    calls[{batch, 4 * h, h, false, true}] += b;
  };
  const std::size_t tg = g.traceLength;
  linear(batch, g.noiseDim + g.labelEmbeddingDim, g.hiddenSize, 2, 1);
  for (std::size_t l = 0; l < g.lstmLayers; ++l) {
    const std::size_t in =
        l == 0 ? g.hiddenSize + g.perStepNoiseDim : g.hiddenSize;
    lstm(in, g.hiddenSize, tg, 2, 1);
  }
  linear(tg * batch, g.hiddenSize, 2, 2, 1);

  const std::size_t td = d.traceLength;
  linear(td * batch, 2 + d.labelEmbeddingDim, d.featureSize, 3, 3);
  lstm(d.featureSize, d.hiddenSize, 2 * td, 3, 3);  // both directions
  linear(batch, 2 * d.hiddenSize, 1, 3, 3);
  return calls;
}

/// Measured rate [FLOP/s] of linalg::gemm at one shape.
double gemmRate(const GemmShape& s) {
  rfp::linalg::Matrix a(s.transA ? s.k : s.m, s.transA ? s.m : s.k, 0.25);
  rfp::linalg::Matrix b(s.transB ? s.n : s.k, s.transB ? s.k : s.n, -0.5);
  rfp::linalg::Matrix c(s.m, s.n);
  const double flops = 2.0 * static_cast<double>(s.m * s.n * s.k);
  const std::size_t reps =
      std::max<std::size_t>(4, static_cast<std::size_t>(2e7 / flops));
  std::vector<double> blocks;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < reps; ++i) {
      rfp::linalg::gemm(c, a, b, s.transA, s.transB);
    }
    blocks.push_back(secondsSince(t0));
  }
  return flops * static_cast<double>(reps) / median(blocks);
}

}  // namespace

void runGanTrain(const Args& args, Result& result) {
  const std::uint64_t seed = streamSeed(args.seed, 0x6000);
  const double setupS = medianSetupSeconds(
      kSetupReps, [&] { return std::make_unique<GanRig>(seed); });

  // The first steps on a single-thread pool: the bit-identity reference.
  constexpr std::size_t kReferenceSteps = 3;
  std::vector<StepRecord> reference;
  {
    SerialPool serial;
    GanRig rig(seed);
    reference = train(rig, kReferenceSteps, kReferenceSteps, 0.0);
  }

  GanRig rig(seed);
  const ProcessCounters before = processCounters();
  const std::int64_t t0 = nowNs();
  // At least one 4-step window, and the steps the reference compares.
  const std::vector<StepRecord> steps =
      train(rig, std::max<std::size_t>(kReferenceSteps, 4), SIZE_MAX,
            args.seconds);
  const double wallS = secondsSince(t0);
  const ProcessCounters after = processCounters();

  bool finite = true;
  std::vector<double> stepS;
  for (const StepRecord& s : steps) {
    finite = finite && std::isfinite(s.dLoss) && std::isfinite(s.gLoss);
    stepS.push_back(s.seconds);
  }
  bool matches = steps.size() >= reference.size();
  for (std::size_t i = 0; matches && i < reference.size(); ++i) {
    matches = sameBits(steps[i].dLoss, reference[i].dLoss) &&
              sameBits(steps[i].gLoss, reference[i].gLoss);
  }
  result.check("losses finite", finite);
  result.check("first steps bit-identical to a same-seed 1-thread run",
               matches, std::to_string(reference.size()) + " steps");
  result.attempted = steps.size();
  result.failedOps = 0;

  // Steps/s as the median over windows of four steps, robust to a slow
  // stretch; the pooled rate is printed beside it. Only tens of steps fit
  // in a run, so the tail is the 75th percentile.
  std::vector<double> windowRates;
  for (std::size_t i = 0; i + 4 <= stepS.size(); i += 4) {
    windowRates.push_back(
        4.0 / (stepS[i] + stepS[i + 1] + stepS[i + 2] + stepS[i + 3]));
  }
  const double stepsPerS = median(windowRates);
  const double p50 = percentile(stepS, 50.0) * 1e3;
  const double p75 = percentile(stepS, 75.0) * 1e3;
  result.e2e("setup_s", setupS, "s");
  result.e2e("throughput_per_s", stepsPerS, "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.info("gan_steps_per_s", stepsPerS, "1/s");
  result.info("gan_steps_per_s_pooled",
              static_cast<double>(steps.size()) / wallS, "1/s");
  result.info("step_p50_ms", p50, "ms");
  result.info("step_p75_ms", p75, "ms");
  result.info("step_samples", static_cast<double>(stepS.size()), "count");

  if (!args.trace) return;
  std::vector<double> referenceS;
  for (const StepRecord& s : reference) referenceS.push_back(s.seconds);
  reportCommon(before, after, median(referenceS) / median(stepS), result);
  result.layer("gan.step_ms", p50, "ms");

  double flops = 0.0;
  double gemmS = 0.0;
  for (const auto& [shape, calls] :
       stepGemms(rig.network->generator().config(),
                 rig.network->discriminator().config(),
                 rig.network->trainingConfig().batchSize)) {
    const double f =
        calls * 2.0 * static_cast<double>(shape.m * shape.n * shape.k);
    flops += f;
    gemmS += f / gemmRate(shape);
  }
  result.layer("linalg.gemm_gflops", flops / gemmS * 1e-9, "GFLOP/s");
  result.layer("gan.gemm_share", gemmS / (p50 * 1e-3), "ratio");
}

}  // namespace perfbench
