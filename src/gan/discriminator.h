#pragma once

/// \file discriminator.h
/// Conditional discriminator (paper Fig. 6, right): per-timestep (x, y)
/// points concatenated with the embedded label pass through an FC layer,
/// a Bi-LSTM, mean pooling over time, and a final FC producing the realness
/// logit (the paper's sigmoid score is applied inside the BCE loss).

#include <vector>

#include "common/rng.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/dropout.h"
#include "nn/parameter.h"
#include "trajectory/trace.h"

namespace rfp::gan {

/// Architecture hyperparameters (paper: Bi-LSTM hidden 512, dropout 0.5).
struct DiscriminatorConfig {
  std::size_t labelEmbeddingDim = 8;
  std::size_t featureSize = 32;   ///< per-timestep FC output
  std::size_t hiddenSize = 64;    ///< Bi-LSTM hidden size per direction
  double dropout = 0.5;
  std::size_t numClasses = 5;
  std::size_t traceLength = 50;
};

/// Conditional discriminator D(x | n).
class Discriminator {
 public:
  Discriminator(DiscriminatorConfig config, rfp::common::Rng& rng);

  const DiscriminatorConfig& config() const { return config_; }

  /// xs: per-timestep [batch x 2] points. Returns logits [batch x 1] -- a
  /// reference into the discriminator's reused workspace, valid until the
  /// next forward() (DESIGN.md Sec. 9); copy it when forwarding D again
  /// before consuming the logits.
  const nn::Matrix& forward(const std::vector<nn::Matrix>& xs,
                            const std::vector<int>& labels, bool training,
                            rfp::common::Rng& rng);

  /// Backward from dLogits; returns the gradient w.r.t. each input step
  /// (needed to train the generator through the discriminator). References
  /// the reused workspace, valid until the next backward(). Accumulates
  /// D's parameter gradients unless \p weightGradients is false: the
  /// generator's step only needs the input gradients, and skips the
  /// weight products of every layer.
  const std::vector<nn::Matrix>& backward(const nn::Matrix& dLogits,
                                          bool weightGradients = true);

  /// Convenience: sigmoid realness scores for whole traces (eval mode).
  std::vector<double> scoreTraces(const std::vector<trajectory::Trace>& traces,
                                  rfp::common::Rng& rng);

  nn::ParameterList parameters();

 private:
  DiscriminatorConfig config_;
  nn::Embedding labelEmbedding_;
  nn::Linear fcIn_;
  nn::BiLstm bilstm_;
  nn::Dropout poolDropout_;
  nn::Linear fcOut_;
  nn::Matrix cachedTallFeat_;  ///< post-ReLU per-timestep features
  std::size_t cachedBatch_ = 0;

  // Workspace buffers recycled across steps (DESIGN.md Sec. 9).
  nn::Matrix emb_, tallIn_, pooled_, dropped_, logits_;
  std::vector<nn::Matrix> feats_;
  nn::Matrix dDropped_, dTallFeat_, dTallIn_, dEmb_;
  std::vector<nn::Matrix> dHs_, dXs_;
};

}  // namespace rfp::gan
