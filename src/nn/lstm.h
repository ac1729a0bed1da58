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
///
/// Cell (DESIGN.md Sec. 9): after a step's two gate products, one pass
/// over each [batch x 4H] gate row adds the bias, applies sigmoid / tanh,
/// and forms c and h; backward mirrors it in one pass that writes the
/// pre-activation gradient block directly. Every element goes through the
/// operations, order and roundings of the same cell composed from ops.h
/// calls (slice, activate, hadamard), so the two are bit-identical
/// (Lstm.FusedCellMatchesComposedOps).

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
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
///
/// One cell implementation serves both APIs: forward()/backward() are
/// loops over the per-step calls forwardStep()/backwardStep(), which the
/// stacked variant drives directly to run its layers as a wavefront.
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

  /// Starts a forward pass of \p steps timesteps of \p batch rows: sizes
  /// the workspaces and packs the weights. Throws std::invalid_argument on
  /// an empty sequence.
  void forwardBegin(std::size_t steps, std::size_t batch);
  /// Runs timestep \p t on input \p x -- t = 0, 1, ... in order after
  /// forwardBegin -- and returns its hidden state, outputs()[t]. Throws
  /// std::out_of_range past the begun sequence.
  const Matrix& forwardStep(std::size_t t, const Matrix& x);
  /// Hidden states of the current forward pass (steps run so far).
  const std::vector<Matrix>& outputs() const { return outputs_; }

  /// Starts BPTT over the last forward pass, which must have run \p steps
  /// timesteps: zeroes the carried gradients and packs the transposed
  /// weights.
  void backwardBegin(std::size_t steps);
  /// Runs BPTT timestep \p t -- steps - 1 down to 0 after backwardBegin --
  /// with \p dH the loss gradient w.r.t. hidden state t; accumulates the
  /// weight gradients and returns the input gradient, inputGradients()[t].
  /// Throws std::out_of_range past the begun pass.
  Matrix& backwardStep(std::size_t t, const Matrix& dH);
  /// Input gradients of the current backward pass.
  std::vector<Matrix>& inputGradients() { return dXs_; }

  /// True when some per-step product of this layer at \p batch rows takes
  /// linalg's pooled path on a pool of \p threads (linalg::gemmPath).
  bool stepProductsPooled(std::size_t batch, std::size_t threads) const;

  ParameterList parameters();

 private:
  struct StepCache {
    Matrix x;
    Matrix gates;  ///< [batch x 4H] post-activation [i, f, g, o]
    Matrix c, tanhC;
  };
  // Step t reads h_{t-1} from outputs_[t-1] and c_{t-1} from
  // cache_[t-1].c; step 0 reads zeroState_ for both.

  std::size_t inputSize_;
  std::size_t hiddenSize_;
  Parameter wx_;  ///< [input x 4H]
  Parameter wh_;  ///< [hidden x 4H]
  Parameter b_;   ///< [1 x 4H]
  std::size_t batch_ = 0;  ///< rows of the current forward pass
  std::vector<StepCache> cache_;

  // Workspace, sized on first use and recycled (DESIGN.md Sec. 9).
  std::vector<Matrix> outputs_;
  std::vector<Matrix> dXs_;
  Matrix zeroState_;                       ///< [batch x H] zeros
  Matrix dhNext_, dcNext_, da_, colSumsBuf_;  ///< backward
  // wx / wh packed once per pass: as-is for forward's gate products, as
  // transposes for backward's dX / dhNext. Repacked on every pass, since
  // the optimizer changes the weights between passes.
  linalg::PackedB wxPacked_, whPacked_;
  // Packing buffers for this layer's products, bound by every step: a
  // Bi-LSTM direction or a wavefront layer runs on whichever pool thread
  // claims it.
  linalg::GemmScratch gemmScratch_;
};

/// Stack of LSTM layers with dropout between layers (not after the last),
/// mirroring the paper's "two-layer LSTM ... dropout probability 0.5".
///
/// Layer l at step t needs only layer l - 1 at step t and itself at
/// t - 1, so on a multi-thread pool the layers run as a wavefront, one
/// pool task per layer, each waiting for the layer below to publish a
/// step (backward: the layer above). That happens only while no layer's
/// per-step products would take the pooled GEMM path, and not on the
/// first pass at a shape (DESIGN.md Sec. 8). Every dropout mask is drawn
/// on the calling thread first, in (layer, timestep) order, and each
/// layer's accumulation chain is unchanged, so the result is
/// bit-identical to running the layers one after the other.
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
  using Shape = std::pair<std::size_t, std::size_t>;  ///< (steps, batch)

  /// True when the layers may run as a wavefront at \p batch rows: the
  /// pool has several threads and no layer's per-step products want it.
  bool wavefront(std::size_t batch) const;
  /// Zeroes every lane's progress word before a pass.
  void resetProgress();

  std::vector<Lstm> layers_;
  std::vector<std::vector<Dropout>> dropouts_;  ///< [layer][timestep]
  std::vector<std::vector<Matrix>> dropped_;    ///< inter-layer activations
  double dropoutP_;
  // Wavefront hand-off, one word per lane: the steps it has published in
  // the current pass, or a failure mark once it threw or stopped on a
  // failure below it.
  std::unique_ptr<std::atomic<std::uint32_t>[]> progress_;
  std::vector<std::exception_ptr> laneFailures_;
  std::optional<Shape> forwardSizedFor_, backwardSizedFor_;
};

/// Bidirectional LSTM: forward and reverse passes concatenated per step
/// -> [batch x 2H].
///
/// The two directions share no parameters, gradients or workspaces and
/// draw no randomness, so on a multi-thread pool they run as two pool
/// tasks once the first pass has sized the shape (DESIGN.md Sec. 8); the
/// result is bit-identical to running them one after the other.
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

  Lstm fwd_;
  Lstm bwd_;
  std::vector<Matrix> revXs_, outs_, dFwd_, dBwdRev_, dXs_;
  std::vector<std::exception_ptr> laneFailures_;
  // The shape each pass last completed at on the calling thread, which
  // sized both directions' workspaces for it.
  std::optional<Shape> forwardSizedFor_, backwardSizedFor_;
};

}  // namespace rfp::nn
