#include "gan/trajectory_gan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/atomic_io.h"
#include "linalg/gemm.h"
#include "nn/adam.h"
#include "nn/finite.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/serialize.h"

namespace rfp::gan {

using nn::Matrix;
using trajectory::Trace;

namespace {

/// Per-timestep [batch x 2] step (displacement) matrices from a batch of
/// traces, written into the reused workspace \p xs: a trace of P points
/// yields P-1 steps.
void tracesToStepSequencesInto(std::vector<Matrix>& xs,
                               const std::vector<const Trace*>& batch,
                               std::size_t numSteps) {
  if (xs.size() != numSteps) xs.resize(numSteps);
  for (std::size_t t = 0; t < numSteps; ++t) {
    Matrix& step = xs[t];
    linalg::ensureShape(step, batch.size(), 2);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (batch[b]->points.size() != numSteps + 1) {
        throw std::invalid_argument(
            "tracesToStepSequences: trace length must be traceLength + 1");
      }
      const auto d = batch[b]->points[t + 1] - batch[b]->points[t];
      step(b, 0) = d.x;
      step(b, 1) = d.y;
    }
  }
}

constexpr const char* kTrainCheckpointMagic = "RFPGAN";
constexpr int kTrainCheckpointVersion = 1;

}  // namespace

TrajectoryGan::TrajectoryGan(GeneratorConfig gConfig,
                             DiscriminatorConfig dConfig,
                             GanTrainingConfig tConfig,
                             rfp::common::Rng& rng)
    : tConfig_(tConfig),
      generator_(gConfig, rng),
      discriminator_(dConfig, rng),
      gOptimizer_(generator_.parameters(), {tConfig.generatorLr}),
      dOptimizer_(discriminator_.parameters(), {tConfig.discriminatorLr}) {
  if (gConfig.traceLength != dConfig.traceLength ||
      gConfig.numClasses != dConfig.numClasses) {
    throw std::invalid_argument(
        "TrajectoryGan: generator/discriminator shape mismatch");
  }
  // Parameter pointers target member networks, so the lists stay valid for
  // the GAN's lifetime; caching them keeps parameters() calls (which
  // allocate) out of the per-batch hot path.
  gParams_ = generator_.parameters();
  dParams_ = discriminator_.parameters();
}

std::vector<double> TrajectoryGan::labelHistogram(
    const std::vector<Trace>& dataset, std::size_t numClasses) {
  std::vector<double> hist(numClasses, 0.0);
  for (const Trace& t : dataset) {
    if (t.label >= 0 && static_cast<std::size_t>(t.label) < numClasses) {
      hist[static_cast<std::size_t>(t.label)] += 1.0;
    }
  }
  return hist;
}

GanBatchStats TrajectoryGan::trainBatch(
    const std::vector<const Trace*>& batch, rfp::common::Rng& rng,
    const GradientHook& hook) {
  const std::size_t b = batch.size();
  const std::size_t traceLength = generator_.config().traceLength;
  GanBatchStats stats;

  realLabels_.resize(b);
  for (std::size_t i = 0; i < b; ++i) realLabels_[i] = batch[i]->label;
  tracesToStepSequencesInto(realXs_, batch, traceLength);

  // Fakes use the real batch's label mix (conditioning, paper Sec. 6).
  fakeLabels_ = realLabels_;
  rng.shuffle(fakeLabels_);
  linalg::ensureShape(z_, b, generator_.config().noiseDim);
  nn::fillGaussian(z_, rng);

  linalg::ensureShape(ones_, b, 1);
  ones_.fill(1.0);
  linalg::ensureShape(smoothOnes_, b, 1);
  smoothOnes_.fill(tConfig_.realLabelSmoothing);
  linalg::ensureShape(zeros_, b, 1);
  zeros_.fill(0.0);

  // ---- Discriminator step: push D(real) -> 1 and D(fake) -> 0. -----------
  const std::vector<Matrix>& fakeXs =
      generator_.forward(z_, fakeLabels_, /*training=*/true, rng);

  // D is forwarded several times per batch, so logits needed later are
  // copied out of its single-logit workspace.
  realLogits_ = discriminator_.forward(realXs_, realLabels_,
                                       /*training=*/true, rng);
  const double realLoss =
      nn::bceWithLogitsInto(dRealLogits_, realLogits_, smoothOnes_);
  discriminator_.backward(dRealLogits_);

  fakeLogitsD_ = discriminator_.forward(fakeXs, fakeLabels_,
                                        /*training=*/true, rng);
  const double fakeLoss =
      nn::bceWithLogitsInto(dFakeLogits_, fakeLogitsD_, zeros_);
  discriminator_.backward(dFakeLogits_);

  bool applyD = true;
  if (hook) applyD = hook("discriminator", dParams_);
  if (applyD) {
    stats.discriminatorGradNorm =
        dOptimizer_.clippedStepAndZero(tConfig_.gradientClip);
    stats.discriminatorClipped =
        stats.discriminatorGradNorm > tConfig_.gradientClip;
  } else {
    // Vetoed (non-finite gradient contained): record the norm, discard the
    // update, keep the optimizer state untouched.
    stats.discriminatorGradNorm = nn::gradientNorm(dParams_);
    stats.discriminatorStepSkipped = true;
    nn::zeroGradients(dParams_);
  }
  nn::zeroGradients(gParams_);  // G grads from D's fake pass

  // ---- Generator step: push D(G(z)) -> 1 (non-saturating form). ----------
  const std::vector<Matrix>& fakeXs2 =
      generator_.forward(z_, fakeLabels_, /*training=*/true, rng);
  const Matrix& fakeLogitsG =
      discriminator_.forward(fakeXs2, fakeLabels_, /*training=*/true, rng);
  const double genLoss = nn::bceWithLogitsInto(dGenLogits_, fakeLogitsG, ones_);
  // D's parameter gradients are zero here and zeroed again after this
  // step unread, so its backward only propagates to the generator.
  const std::vector<Matrix>& dFake =
      discriminator_.backward(dGenLogits_, /*weightGradients=*/false);
  generator_.backward(dFake);

  bool applyG = true;
  if (hook) applyG = hook("generator", gParams_);
  if (applyG) {
    stats.generatorGradNorm =
        gOptimizer_.clippedStepAndZero(tConfig_.gradientClip);
    stats.generatorClipped = stats.generatorGradNorm > tConfig_.gradientClip;
  } else {
    stats.generatorGradNorm = nn::gradientNorm(gParams_);
    stats.generatorStepSkipped = true;
    nn::zeroGradients(gParams_);
  }

  stats.discriminatorLoss = realLoss + fakeLoss;
  stats.generatorLoss = genLoss;
  stats.realScoreMean = nn::meanSigmoid(realLogits_);
  stats.fakeScoreMean = nn::meanSigmoid(fakeLogitsD_);

  // D's win rate over the batch's 2B judgments: real logits should be
  // positive, fake logits negative.
  std::size_t wins = 0;
  for (std::size_t i = 0; i < b; ++i) {
    if (realLogits_(i, 0) > 0.0) ++wins;
    if (fakeLogitsD_(i, 0) < 0.0) ++wins;
  }
  stats.discriminatorWinRate =
      b > 0 ? static_cast<double>(wins) / static_cast<double>(2 * b) : 0.0;
  return stats;
}

nn::ParameterList TrajectoryGan::networkParameters() {
  nn::ParameterList all = generator_.parameters();
  for (auto* p : discriminator_.parameters()) all.push_back(p);
  return all;
}

// ---------------------------------------------------------------------------
// TrainingSession
// ---------------------------------------------------------------------------

TrainingSession::TrainingSession(TrajectoryGan& gan,
                                 const std::vector<Trace>& dataset,
                                 rfp::common::Rng& rng)
    : gan_(gan), rng_(rng) {
  if (dataset.size() < gan_.tConfig_.batchSize) {
    throw std::invalid_argument("TrajectoryGan::train: dataset too small");
  }

  const std::size_t expectedPoints =
      gan_.generator_.config().traceLength + 1;
  for (const Trace& t : dataset) {
    if (t.points.size() != expectedPoints) {
      throw std::invalid_argument(
          "TrajectoryGan::train: traces must have traceLength + 1 points");
    }
  }

  // The GAN models relative motion: center each trace, then normalize so
  // the per-frame *steps* have unit coordinate variance.
  centered_.reserve(dataset.size());
  for (const Trace& t : dataset) centered_.push_back(trajectory::centered(t));

  double sumSq = 0.0;
  std::size_t n = 0;
  for (const Trace& t : centered_) {
    for (std::size_t i = 1; i < t.points.size(); ++i) {
      const auto d = t.points[i] - t.points[i - 1];
      sumSq += d.x * d.x + d.y * d.y;
      n += 2;
    }
  }
  gan_.scale_ = n > 0
                    ? std::sqrt(std::max(sumSq / static_cast<double>(n), 1e-12))
                    : 1.0;
  for (Trace& t : centered_) {
    for (auto& p : t.points) p *= 1.0 / gan_.scale_;
  }

  perm_.resize(centered_.size());
  for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
}

bool TrainingSession::done() const {
  return epoch_ >= gan_.tConfig_.epochs;
}

std::size_t TrainingSession::batchesPerEpoch() const {
  return perm_.size() / gan_.tConfig_.batchSize;
}

TrainingSession::Event TrainingSession::advance() {
  Event ev;
  if (done()) {
    ev.type = Event::Type::kDone;
    return ev;
  }
  const std::size_t batchSize = gan_.tConfig_.batchSize;
  if (nextStart_ + batchSize > perm_.size()) {
    finalizeEpoch(ev);
    return ev;
  }
  if (!shuffled_) {
    rng_.shuffle(perm_);
    shuffled_ = true;
  }

  batchPtrs_.resize(batchSize);
  for (std::size_t i = 0; i < batchSize; ++i) {
    batchPtrs_[i] = &centered_[perm_[nextStart_ + i]];
  }
  ev.type = Event::Type::kBatch;
  ev.batch = gan_.trainBatch(batchPtrs_, rng_, hook_);
  ev.batch.epoch = epoch_;
  nextStart_ += batchSize;
  ++steps_;

  accum_.discriminatorLoss += ev.batch.discriminatorLoss;
  accum_.generatorLoss += ev.batch.generatorLoss;
  accum_.realScoreMean += ev.batch.realScoreMean;
  accum_.fakeScoreMean += ev.batch.fakeScoreMean;
  ++accumBatches_;
  return ev;
}

void TrainingSession::finalizeEpoch(Event& ev) {
  ev.type = Event::Type::kEpochEnd;
  ev.epochStats = accum_;
  ev.epochStats.epoch = epoch_;
  if (accumBatches_ > 0) {
    const double inv = 1.0 / static_cast<double>(accumBatches_);
    ev.epochStats.discriminatorLoss *= inv;
    ev.epochStats.generatorLoss *= inv;
    ev.epochStats.realScoreMean *= inv;
    ev.epochStats.fakeScoreMean *= inv;
  }
  accum_ = GanEpochStats{};
  accumBatches_ = 0;
  ++epoch_;
  nextStart_ = 0;
  shuffled_ = false;
}

std::string TrainingSession::encodeCheckpoint() {
  std::ostringstream body;
  body << kTrainCheckpointMagic << ' ' << kTrainCheckpointVersion << '\n';
  body << epoch_ << ' ' << nextStart_ << '\n';
  body.precision(17);
  body << gan_.scale_ << '\n';
  body << perm_.size() << '\n';
  for (std::size_t i : perm_) body << i << ' ';
  body << '\n';
  rng_.saveState(body);
  body << '\n';
  const nn::ParameterList all = gan_.networkParameters();
  nn::serializeParameters(body, all);
  gan_.gOptimizer_.serializeState(body);
  gan_.dOptimizer_.serializeState(body);
  return body.str();
}

void TrainingSession::restoreCheckpoint(const std::string& body,
                                        const std::string& sourceName) {
  std::istringstream in(body);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (!in || magic != kTrainCheckpointMagic) {
    throw std::runtime_error(sourceName +
                             ": bad training checkpoint magic at byte 0");
  }
  if (version != kTrainCheckpointVersion) {
    throw std::runtime_error(sourceName +
                             ": unsupported training checkpoint version " +
                             std::to_string(version));
  }
  double scale = 1.0;
  std::size_t permSize = 0;
  std::size_t epoch = 0;
  std::size_t nextStart = 0;
  in >> epoch >> nextStart >> scale >> permSize;
  if (!in || permSize != perm_.size()) {
    throw std::runtime_error(
        sourceName + ": checkpoint does not match dataset (permutation size " +
        std::to_string(permSize) + ", dataset " +
        std::to_string(perm_.size()) + ")");
  }
  std::vector<std::size_t> loaded(permSize);
  for (std::size_t& v : loaded) {
    in >> v;
    if (!in || v >= permSize) {
      throw std::runtime_error(sourceName +
                               ": corrupt permutation in training checkpoint");
    }
  }
  rng_.loadState(in);
  const nn::ParameterList all = gan_.networkParameters();
  nn::deserializeParameters(in, all, sourceName);
  gan_.gOptimizer_.deserializeState(in);
  gan_.dOptimizer_.deserializeState(in);
  if (!in) {
    throw std::runtime_error(sourceName + ": truncated training checkpoint");
  }
  gan_.scale_ = scale;
  perm_ = std::move(loaded);
  epoch_ = epoch;
  nextStart_ = nextStart;
  // The checkpointed permutation was drawn (and the RNG advanced past the
  // shuffle) before the checkpoint was written; do not re-shuffle it.
  shuffled_ = true;
}

void TrainingSession::perturbDataOrder() {
  if (nextStart_ + 1 < perm_.size()) {
    std::vector<std::size_t> tail(perm_.begin() +
                                      static_cast<std::ptrdiff_t>(nextStart_),
                                  perm_.end());
    rng_.shuffle(tail);
    std::copy(tail.begin(), tail.end(),
              perm_.begin() + static_cast<std::ptrdiff_t>(nextStart_));
  } else {
    // Nothing left to reorder this epoch; still advance the stream so the
    // replayed continuation differs deterministically.
    rng_.uniform();
  }
}

// ---------------------------------------------------------------------------
// train() -- the one-call loop with crash-safe checkpoint/resume
// ---------------------------------------------------------------------------

void TrajectoryGan::train(
    const std::vector<Trace>& dataset, rfp::common::Rng& rng,
    const std::function<void(const GanEpochStats&)>& onEpoch) {
  TrainingSession session(*this, dataset, rng);

  const GanCheckpointConfig& ckpt = tConfig_.checkpoint;
  const std::size_t every = std::max<std::size_t>(1, ckpt.everyBatches);
  if (!ckpt.path.empty()) {
    if (const auto body = rfp::common::readFileRotating(ckpt.path)) {
      session.restoreCheckpoint(*body, ckpt.path);
    }
  }

  std::size_t batchesThisCall = 0;
  for (;;) {
    const TrainingSession::Event ev = session.advance();
    if (ev.type == TrainingSession::Event::Type::kDone) break;
    if (ev.type == TrainingSession::Event::Type::kEpochEnd) {
      if (onEpoch) onEpoch(ev.epochStats);
      continue;
    }
    ++batchesThisCall;
    if (!ckpt.path.empty() && batchesThisCall % every == 0) {
      rfp::common::writeFileRotating(ckpt.path, session.encodeCheckpoint());
    }
    if (ckpt.stopAfterBatches > 0 &&
        batchesThisCall >= ckpt.stopAfterBatches) {
      // Crash-simulation hook: abandon training here, as a power cut
      // would. Resume replays any batches since the last checkpoint from
      // the same state, so the final parameters are unchanged.
      return;
    }
  }
}

std::vector<Trace> TrajectoryGan::sample(
    std::size_t count, const std::vector<double>& labelWeights,
    rfp::common::Rng& rng) {
  // The generator emits normalized step sequences; integrate them into
  // positional traces (cumulative sum from the origin), rescale, center.
  std::vector<Trace> stepTraces =
      generator_.sampleMixed(count, labelWeights, rng);
  std::vector<Trace> out;
  out.reserve(stepTraces.size());
  for (const Trace& steps : stepTraces) {
    Trace t;
    t.points.reserve(steps.points.size() + 1);
    rfp::common::Vec2 pos{};
    t.points.push_back(pos);
    for (const auto& d : steps.points) {
      pos += d * scale_;
      t.points.push_back(pos);
    }
    t = trajectory::centered(t);
    t.label = trajectory::rangeClassOf(t);
    out.push_back(std::move(t));
  }
  return out;
}

void TrajectoryGan::save(const std::string& path) {
  nn::Parameter scaleParam("gan.scale", nn::Matrix(1, 1, scale_));
  nn::ParameterList all = networkParameters();
  all.push_back(&scaleParam);
  nn::saveParameters(path, all);
}

void TrajectoryGan::load(const std::string& path) {
  nn::Parameter scaleParam("gan.scale", nn::Matrix(1, 1, 1.0));
  nn::ParameterList all = networkParameters();
  all.push_back(&scaleParam);
  nn::loadParameters(path, all);
  scale_ = scaleParam.value(0, 0);
}

}  // namespace rfp::gan
