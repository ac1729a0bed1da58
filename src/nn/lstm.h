#pragma once

/// \file lstm.h
/// LSTM layers with full backpropagation-through-time, plus the stacked and
/// bidirectional variants the paper's generator (2-layer LSTM) and
/// discriminator (Bi-LSTM) require (Sec. 6, Fig. 6).
///
/// Conventions: sequences are vectors of [batch x features] matrices, one
/// per timestep. Gate order inside the fused 4H dimension is [i, f, g, o].
///
/// Workspace lifetime (DESIGN.md Sec. 9): forward()/backward() return
/// references into per-layer buffers that are recycled across calls, so a
/// steady-state training step allocates nothing. The references stay valid
/// until the *next* forward()/backward() on the same layer; callers that
/// need the values past that point copy them (`const auto hs = ...`).

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/gemm.h"
#include "nn/dropout.h"
#include "nn/parameter.h"

namespace rfp::nn {

/// Single LSTM layer.
class Lstm {
 public:
  Lstm(std::string name, std::size_t inputSize, std::size_t hiddenSize,
       rfp::common::Rng& rng);

  std::size_t inputSize() const { return inputSize_; }
  std::size_t hiddenSize() const { return hiddenSize_; }

  /// Runs the sequence from zero initial state; returns hidden states per
  /// timestep (a reference into the layer's reused output workspace) and
  /// caches everything backward() needs.
  const std::vector<Matrix>& forward(const std::vector<Matrix>& xs);

  /// BPTT. \p dHs holds the loss gradient w.r.t. each output hidden state
  /// (same shape as forward's output). Returns gradients w.r.t. each input
  /// (a mutable reference into the layer's workspace, so the stacked
  /// variant can apply dropout masks in place) and accumulates the weight
  /// gradients. All gradient products use transpose flags -- no
  /// materialized transposed() copies.
  std::vector<Matrix>& backward(const std::vector<Matrix>& dHs);

  ParameterList parameters();

 private:
  struct StepCache {
    Matrix x, hPrev, cPrev;
    Matrix i, f, g, o;  ///< post-activation gates
    Matrix c, tanhC;
  };

  std::size_t inputSize_;
  std::size_t hiddenSize_;
  Parameter wx_;  ///< [input x 4H]
  Parameter wh_;  ///< [hidden x 4H]
  Parameter b_;   ///< [1 x 4H]
  std::vector<StepCache> cache_;

  // Workspace, sized on first use and recycled (DESIGN.md Sec. 9).
  std::vector<Matrix> outputs_;
  std::vector<Matrix> dXs_;
  Matrix hPrev_, cPrev_, a_;  ///< forward scratch
  Matrix dhNext_, dcNext_, dh_, dOut_, dTanhC_, dcTmp_, dc_;  ///< backward
  Matrix dI_, dG_, dF_, da_, colSumsBuf_;
  // wx / wh packed once per pass: as-is for forward's gate products, as
  // transposes for backward's dX / dhNext. Repacked on every pass, since
  // the optimizer changes the weights between passes.
  linalg::PackedB wxPacked_, whPacked_;
  // Packing buffers for this layer's products, bound by forward/backward:
  // a Bi-LSTM direction runs on whichever pool thread claims it.
  linalg::GemmScratch gemmScratch_;
};

/// Stack of LSTM layers with dropout between layers (not after the last),
/// mirroring the paper's "two-layer LSTM ... dropout probability 0.5".
class StackedLstm {
 public:
  StackedLstm(std::string name, std::size_t inputSize, std::size_t hiddenSize,
              std::size_t numLayers, double dropout, rfp::common::Rng& rng);

  std::size_t hiddenSize() const;
  std::size_t numLayers() const { return layers_.size(); }

  /// Returns a reference into the top layer's output workspace (valid
  /// until the next forward on this stack).
  const std::vector<Matrix>& forward(const std::vector<Matrix>& xs,
                                     bool training, rfp::common::Rng& rng);
  /// Returns a reference into the bottom layer's input-gradient workspace.
  const std::vector<Matrix>& backward(const std::vector<Matrix>& dHs);

  ParameterList parameters();

 private:
  std::vector<Lstm> layers_;
  std::vector<std::vector<Dropout>> dropouts_;  ///< [layer][timestep]
  std::vector<std::vector<Matrix>> dropped_;    ///< inter-layer activations
  double dropoutP_;
};

/// Bidirectional LSTM: forward and reverse passes concatenated per step
/// -> [batch x 2H].
///
/// The two directions share no parameters, gradients or workspaces and
/// draw no randomness, so on a multi-thread pool they run as two pool
/// tasks (DESIGN.md Sec. 8); the result is bit-identical to running them
/// one after the other.
class BiLstm {
 public:
  BiLstm(std::string name, std::size_t inputSize, std::size_t hiddenSize,
         rfp::common::Rng& rng);

  std::size_t hiddenSize() const { return fwd_.hiddenSize(); }

  /// Returns a reference into this layer's output workspace.
  const std::vector<Matrix>& forward(const std::vector<Matrix>& xs);
  /// Returns a reference into this layer's input-gradient workspace.
  const std::vector<Matrix>& backward(const std::vector<Matrix>& dHs);

  ParameterList parameters();

 private:
  using Shape = std::pair<std::size_t, std::size_t>;  ///< (steps, batch)

  /// Runs body(0) (forward direction) and body(1) (reverse direction);
  /// throws what a serial run would have thrown first.
  template <typename Body>
  void runDirections(Shape shape, std::optional<Shape>& sizedFor,
                     const Body& body);

  Lstm fwd_;
  Lstm bwd_;
  std::vector<Matrix> revXs_, outs_, dFwd_, dBwdRev_, dXs_;
  // The shape each pass last completed at on the calling thread, which
  // sized both directions' workspaces for it.
  std::optional<Shape> forwardSizedFor_, backwardSizedFor_;
};

}  // namespace rfp::nn
