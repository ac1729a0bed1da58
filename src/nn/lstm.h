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
/// pre-activation gradient over the step's gate block. Every element goes
/// through the operations, order and roundings of the same cell composed
/// from ops.h calls (slice, activate, hadamard), so the two are
/// bit-identical (Lstm.FusedCellMatchesComposedOps).
///
/// Rows (DESIGN.md Sec. 8): batch rows never mix inside a layer, so every
/// step runs on a row range and disjoint ranges may run on different
/// threads. The weight gradients, which sum over rows, leave the
/// recurrence: accumulateWeightGradients adds them after it, t descending,
/// split by rows of the weight matrices instead.

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/gemm.h"
#include "nn/dropout.h"
#include "nn/parameter.h"

namespace rfp::nn {

using linalg::RowRange;

/// Single LSTM layer.
///
/// One cell implementation serves both APIs: forward()/backward() run the
/// per-step calls forwardStep()/backwardStep() over the whole batch on the
/// calling thread; the stacked and bidirectional variants drive the steps
/// directly, a row block per lane.
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
  /// materialized transposed() copies. Consumes the forward cache: a
  /// second backward without a new forward throws std::logic_error.
  std::vector<Matrix>& backward(const std::vector<Matrix>& dHs);

  /// Starts a forward pass of \p steps timesteps of \p batch rows: sizes
  /// every step's cache and output and packs the weights. Throws
  /// std::invalid_argument on an empty sequence.
  void forwardBegin(std::size_t steps, std::size_t batch);
  /// Runs timestep \p t on rows \p rows of input \p x ([batch x input]) --
  /// t = 0, 1, ... in order for each range after forwardBegin -- and
  /// returns its hidden state, outputs()[t], of which it wrote those rows.
  /// Throws std::out_of_range for a step or rows outside the begun pass.
  const Matrix& forwardStep(std::size_t t, const Matrix& x, RowRange rows);
  /// Hidden states of the current forward pass (steps run so far).
  const std::vector<Matrix>& outputs() const { return outputs_; }

  /// Starts BPTT over the last forward pass, which must have run \p steps
  /// timesteps: zeroes the carried gradients and packs the transposed
  /// weights. Throws std::logic_error when an earlier backward already
  /// consumed that pass's cache.
  void backwardBegin(std::size_t steps);
  /// Runs BPTT timestep \p t on rows \p rows -- steps - 1 down to 0 for
  /// each range after backwardBegin -- with \p dH the loss gradient
  /// w.r.t. hidden state t, and returns the input gradient,
  /// inputGradients()[t], of which it wrote those rows. Overwrites the
  /// step's cached gates with their pre-activation gradients, which the
  /// weight gradients are summed from. Throws std::out_of_range for a step
  /// or rows outside the begun pass.
  Matrix& backwardStep(std::size_t t, const Matrix& dH, RowRange rows);
  /// Input gradients of the current backward pass.
  std::vector<Matrix>& inputGradients() { return dXs_; }

  /// Rows of the stacked weight gradient [dWx; dWh; db]: input + hidden + 1.
  std::size_t weightGradientRows() const {
    return inputSize_ + hiddenSize_ + 1;
  }
  /// Adds rows \p rows of the stacked [dWx; dWh; db] of the backward pass
  /// whose steps have all run: x_t^T da_t, h_{t-1}^T da_t (the zero state
  /// at t = 0) and da_t's column sums, t descending -- each element's add
  /// sequence of a per-step accumulation. Disjoint ranges may run on
  /// different threads. Throws std::logic_error outside a backward pass.
  void accumulateWeightGradients(RowRange rows);

  /// True when some per-step product of this layer at \p batch rows takes
  /// linalg's pooled path on a pool of \p threads (linalg::gemmPath).
  bool stepProductsPooled(std::size_t batch, std::size_t threads) const;

  ParameterList parameters();

 private:
  struct StepCache {
    Matrix x;
    /// [batch x 4H] post-activation [i, f, g, o]; after backwardStep,
    /// their pre-activation gradients.
    Matrix gates;
    Matrix c, tanhC;
  };
  // Step t reads h_{t-1} from outputs_[t-1] and c_{t-1} from
  // cache_[t-1].c; step 0 reads zeroState_ for both.

  /// What the step cache holds.
  enum class Pass { kNone, kForward, kBackward };

  std::size_t inputSize_;
  std::size_t hiddenSize_;
  Parameter wx_;  ///< [input x 4H]
  Parameter wh_;  ///< [hidden x 4H]
  Parameter b_;   ///< [1 x 4H]
  std::size_t batch_ = 0;  ///< rows of the current forward pass
  Pass pass_ = Pass::kNone;
  std::vector<StepCache> cache_;

  // Workspace, sized on first use and recycled (DESIGN.md Sec. 9).
  std::vector<Matrix> outputs_;
  std::vector<Matrix> dXs_;
  Matrix zeroState_;                   ///< [batch x H] zeros
  Matrix dhNext_, dcNext_, colSumsBuf_;  ///< backward
  // wx / wh packed once per pass: as-is for forward's gate products, as
  // transposes for backward's dX / dhNext. Repacked on every pass, since
  // the optimizer changes the weights between passes.
  linalg::PackedB wxPacked_, whPacked_;
};

namespace detail {

/// Pass shape a group of lanes was sized for: (steps, batch, pool size).
struct LaneShape {
  std::size_t steps = 0, batch = 0, threads = 0;
  bool operator==(const LaneShape&) const = default;
};

/// Per-lane state of a layer group that runs as pool lanes (DESIGN.md
/// Sec. 8), grown on the calling thread when the lane count first grows:
/// each lane's hand-off word, exception slot and GEMM packing buffers,
/// plus the shape each pass last completed at on the calling thread.
struct Lanes {
  /// Makes room for \p n lanes; allocates only when n grows.
  void reserve(std::size_t n);

  std::size_t capacity = 0;
  std::unique_ptr<std::atomic<std::uint32_t>[]> progress;
  std::vector<std::exception_ptr> failures;
  std::vector<linalg::GemmScratch> scratch;
  std::optional<LaneShape> forwardSizedFor, backwardSizedFor;
};

}  // namespace detail

/// Stack of LSTM layers with dropout between layers (not after the last),
/// mirroring the paper's "two-layer LSTM ... dropout probability 0.5".
///
/// Layer l at step t needs only layer l - 1 at step t and itself at
/// t - 1, and rows never mix, so on a multi-thread pool each (layer, row
/// block) pair is a pool lane that waits only for the same rows of the
/// layer below to publish a step (backward: the layer above); the weight
/// gradients follow in one pass split by their rows. That happens only
/// while no layer's per-step products would take the pooled GEMM path,
/// and not on the first pass at a shape (DESIGN.md Sec. 8). Every dropout
/// mask is drawn on the calling thread first, in (layer, timestep) order,
/// and every element's accumulation chain is unchanged, so the result is
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
  /// Consumes the forward pass (Lstm::backward).
  const std::vector<Matrix>& backward(const std::vector<Matrix>& dHs);

  ParameterList parameters();

 private:
  std::vector<Lstm> layers_;
  std::vector<std::vector<Dropout>> dropouts_;  ///< [layer][timestep]
  std::vector<std::vector<Matrix>> dropped_;    ///< inter-layer activations
  double dropoutP_;
  detail::Lanes lanes_;
};

/// Bidirectional LSTM: forward and reverse passes concatenated per step
/// -> [batch x 2H].
///
/// The two directions share no parameters, gradients or workspaces and
/// draw no randomness, and rows never mix, so on a multi-thread pool each
/// (direction, row block) pair is a pool lane once the first pass has
/// sized the shape (DESIGN.md Sec. 8); the result is bit-identical to
/// running the directions one after the other.
class BiLstm {
 public:
  BiLstm(std::string name, std::size_t inputSize, std::size_t hiddenSize,
         rfp::common::Rng& rng);

  std::size_t hiddenSize() const { return dirs_[0].hiddenSize(); }

  /// Returns a reference into this layer's output workspace.
  const std::vector<Matrix>& forward(const std::vector<Matrix>& xs);
  /// Returns a reference into this layer's input-gradient workspace.
  /// Consumes the forward pass (Lstm::backward). Without
  /// \p weightGradients it only propagates: the parameter gradients are
  /// left untouched.
  const std::vector<Matrix>& backward(const std::vector<Matrix>& dHs,
                                      bool weightGradients = true);

  ParameterList parameters();

 private:
  std::array<Lstm, 2> dirs_;  ///< forward, reverse
  std::vector<Matrix> outs_, dFwd_, dBwdRev_, dXs_;
  detail::Lanes lanes_;
};

}  // namespace rfp::nn
