#include "gan/discriminator.h"

#include <stdexcept>

#include "linalg/gemm.h"
#include "nn/ops.h"

namespace rfp::gan {

using nn::Matrix;

Discriminator::Discriminator(DiscriminatorConfig config,
                             rfp::common::Rng& rng)
    : config_(config),
      labelEmbedding_("D.embed", config.numClasses, config.labelEmbeddingDim,
                      rng),
      fcIn_("D.fcIn", 2 + config.labelEmbeddingDim, config.featureSize, rng),
      bilstm_("D.bilstm", config.featureSize, config.hiddenSize, rng),
      poolDropout_(config.dropout),
      fcOut_("D.fcOut", 2 * config.hiddenSize, 1, rng) {}

const Matrix& Discriminator::forward(const std::vector<Matrix>& xs,
                                     const std::vector<int>& labels,
                                     bool training, rfp::common::Rng& rng) {
  if (xs.size() != config_.traceLength) {
    throw std::invalid_argument("Discriminator::forward: timestep mismatch");
  }
  const std::size_t batch = xs.front().rows();
  cachedBatch_ = batch;
  if (labels.size() != batch) {
    throw std::invalid_argument("Discriminator::forward: label count");
  }

  labelEmbedding_.forwardInto(emb_, labels);

  // Stack timesteps into a tall matrix (row = t * batch + b) so the input
  // FC runs (and caches) once.
  linalg::ensureShape(tallIn_, config_.traceLength * batch,
                      2 + config_.labelEmbeddingDim);
  for (std::size_t t = 0; t < config_.traceLength; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      tallIn_(t * batch + b, 0) = xs[t](b, 0);
      tallIn_(t * batch + b, 1) = xs[t](b, 1);
      for (std::size_t c = 0; c < config_.labelEmbeddingDim; ++c) {
        tallIn_(t * batch + b, 2 + c) = emb_(b, c);
      }
    }
  }
  fcIn_.forwardInto(cachedTallFeat_, tallIn_);
  nn::reluInPlace(cachedTallFeat_);

  if (feats_.size() != config_.traceLength) feats_.resize(config_.traceLength);
  for (std::size_t t = 0; t < config_.traceLength; ++t) {
    Matrix& f = feats_[t];
    linalg::ensureShape(f, batch, config_.featureSize);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t c = 0; c < config_.featureSize; ++c) {
        f(b, c) = cachedTallFeat_(t * batch + b, c);
      }
    }
  }

  const std::vector<Matrix>& hs = bilstm_.forward(feats_);

  // Mean pooling over time.
  linalg::ensureShape(pooled_, batch, 2 * config_.hiddenSize);
  pooled_.fill(0.0);
  for (const Matrix& h : hs) pooled_ += h;
  pooled_ *= 1.0 / static_cast<double>(config_.traceLength);

  poolDropout_.forwardInto(dropped_, pooled_, training, rng);
  fcOut_.forwardInto(logits_, dropped_);
  return logits_;
}

const std::vector<Matrix>& Discriminator::backward(const Matrix& dLogits,
                                                   bool weightGradients) {
  const std::size_t batch = cachedBatch_;

  fcOut_.backwardInto(dDropped_, dLogits, weightGradients);
  poolDropout_.backwardInPlace(dDropped_);  // dDropped_ is now dPooled

  const double invT = 1.0 / static_cast<double>(config_.traceLength);
  linalg::scaleInPlace(dDropped_, invT);
  if (dHs_.size() != config_.traceLength) dHs_.resize(config_.traceLength);
  for (Matrix& dh : dHs_) dh = dDropped_;

  const std::vector<Matrix>& dFeats = bilstm_.backward(dHs_, weightGradients);

  linalg::ensureShape(dTallFeat_, config_.traceLength * batch,
                      config_.featureSize);
  for (std::size_t t = 0; t < config_.traceLength; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t c = 0; c < config_.featureSize; ++c) {
        dTallFeat_(t * batch + b, c) = dFeats[t](b, c);
      }
    }
  }
  nn::reluBackwardInPlace(dTallFeat_, cachedTallFeat_);
  fcIn_.backwardInto(dTallIn_, dTallFeat_, weightGradients);

  // Split the tall input gradient back into per-timestep point gradients
  // and the label-embedding gradient (summed over timesteps).
  if (dXs_.size() != config_.traceLength) dXs_.resize(config_.traceLength);
  linalg::ensureShape(dEmb_, batch, config_.labelEmbeddingDim);
  dEmb_.fill(0.0);
  for (std::size_t t = 0; t < config_.traceLength; ++t) {
    Matrix& dx = dXs_[t];
    linalg::ensureShape(dx, batch, 2);
    for (std::size_t b = 0; b < batch; ++b) {
      dx(b, 0) = dTallIn_(t * batch + b, 0);
      dx(b, 1) = dTallIn_(t * batch + b, 1);
      if (!weightGradients) continue;
      for (std::size_t c = 0; c < config_.labelEmbeddingDim; ++c) {
        dEmb_(b, c) += dTallIn_(t * batch + b, 2 + c);
      }
    }
  }
  if (weightGradients) labelEmbedding_.backward(dEmb_);
  return dXs_;
}

std::vector<double> Discriminator::scoreTraces(
    const std::vector<trajectory::Trace>& traces, rfp::common::Rng& rng) {
  std::vector<double> scores;
  scores.reserve(traces.size());
  for (const trajectory::Trace& trace : traces) {
    if (trace.points.size() != config_.traceLength) {
      throw std::invalid_argument("scoreTraces: trace length mismatch");
    }
    std::vector<Matrix> xs(config_.traceLength);
    for (std::size_t t = 0; t < config_.traceLength; ++t) {
      Matrix step(1, 2);
      step(0, 0) = trace.points[t].x;
      step(0, 1) = trace.points[t].y;
      xs[t] = std::move(step);
    }
    const Matrix& logit = forward(xs, {trace.label}, /*training=*/false, rng);
    scores.push_back(nn::meanSigmoid(logit));  // 1x1 logit: mean == sigmoid
  }
  return scores;
}

nn::ParameterList Discriminator::parameters() {
  nn::ParameterList out;
  for (auto* p : labelEmbedding_.parameters()) out.push_back(p);
  for (auto* p : fcIn_.parameters()) out.push_back(p);
  for (auto* p : bilstm_.parameters()) out.push_back(p);
  for (auto* p : fcOut_.parameters()) out.push_back(p);
  return out;
}

}  // namespace rfp::gan
