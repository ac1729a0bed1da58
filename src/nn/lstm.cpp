#include "nn/lstm.h"

#include <cmath>
#include <exception>
#include <stdexcept>

#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "nn/ops.h"

namespace rfp::nn {

using linalg::ensureShape;
using linalg::gemm;

Lstm::Lstm(std::string name, std::size_t inputSize, std::size_t hiddenSize,
           rfp::common::Rng& rng)
    : inputSize_(inputSize),
      hiddenSize_(hiddenSize),
      wx_(name + ".wx", Matrix(inputSize, 4 * hiddenSize)),
      wh_(name + ".wh", Matrix(hiddenSize, 4 * hiddenSize)),
      b_(name + ".b", Matrix(1, 4 * hiddenSize)) {
  if (inputSize == 0 || hiddenSize == 0) {
    throw std::invalid_argument("Lstm: zero dimension");
  }
  xavierInit(wx_.value, inputSize, hiddenSize, rng);
  xavierInit(wh_.value, hiddenSize, hiddenSize, rng);
  // Forget-gate bias of 1.0 is the standard trick to keep early gradients
  // flowing through the cell state.
  for (std::size_t c = hiddenSize; c < 2 * hiddenSize; ++c) {
    b_.value(0, c) = 1.0;
  }
}

const std::vector<Matrix>& Lstm::forward(const std::vector<Matrix>& xs) {
  forwardBegin(xs.size(), xs.empty() ? 0 : xs.front().rows());
  for (std::size_t t = 0; t < xs.size(); ++t) forwardStep(t, xs[t]);
  return outputs_;
}

void Lstm::forwardBegin(std::size_t steps, std::size_t batch) {
  if (steps == 0) throw std::invalid_argument("Lstm::forward: empty sequence");
  batch_ = batch;
  if (cache_.size() != steps) cache_.resize(steps);
  if (outputs_.size() != steps) outputs_.resize(steps);
  ensureShape(zeroState_, batch, hiddenSize_);  // zero-filled, never written
  wxPacked_.pack(wx_.value);
  whPacked_.pack(wh_.value);
}

const Matrix& Lstm::forwardStep(std::size_t t, const Matrix& x) {
  if (t >= cache_.size()) {
    throw std::out_of_range("Lstm::forwardStep: step out of range");
  }
  if (x.rows() != batch_ || x.cols() != inputSize_) {
    throw std::invalid_argument("Lstm::forward: input shape mismatch");
  }
  const std::size_t h = hiddenSize_;
  const linalg::ScopedGemmScratch scratch(gemmScratch_);
  StepCache& sc = cache_[t];
  const Matrix& hPrev = t == 0 ? zeroState_ : outputs_[t - 1];
  const Matrix& cPrev = t == 0 ? zeroState_ : cache_[t - 1].c;
  sc.x = x;
  // gates = x*wx + hPrev*wh, accumulated in place: the second gemm adds
  // each complete hPrev*wh element in one rounding step.
  gemm(sc.gates, x, wxPacked_);
  gemm(sc.gates, hPrev, whPacked_, false, 1.0, 1.0);
  ensureShape(sc.c, batch_, h);
  ensureShape(sc.tanhC, batch_, h);
  Matrix& hOut = outputs_[t];
  ensureShape(hOut, batch_, h);

  // One pass per row: bias, activations, c = f .* cPrev + i .* g (product
  // and sum rounded separately), h = o .* tanh(c).
  const double* bias = b_.value.data().data();
  for (std::size_t r = 0; r < batch_; ++r) {
    double* gate = sc.gates.data().data() + r * 4 * h;
    const double* cp = cPrev.data().data() + r * h;
    double* c = sc.c.data().data() + r * h;
    double* tc = sc.tanhC.data().data() + r * h;
    double* ho = hOut.data().data() + r * h;
    for (std::size_t j = 0; j < h; ++j) {
      const double i = stableSigmoid(gate[j] + bias[j]);
      const double f = stableSigmoid(gate[h + j] + bias[h + j]);
      const double g = std::tanh(gate[2 * h + j] + bias[2 * h + j]);
      const double o = stableSigmoid(gate[3 * h + j] + bias[3 * h + j]);
      gate[j] = i;
      gate[h + j] = f;
      gate[2 * h + j] = g;
      gate[3 * h + j] = o;
      double cell = f * cp[j];
      cell += i * g;
      c[j] = cell;
      tc[j] = std::tanh(cell);
      ho[j] = o * tc[j];
    }
  }
  return hOut;
}

std::vector<Matrix>& Lstm::backward(const std::vector<Matrix>& dHs) {
  backwardBegin(dHs.size());
  for (std::size_t t = dHs.size(); t-- > 0;) backwardStep(t, dHs[t]);
  return dXs_;
}

void Lstm::backwardBegin(std::size_t steps) {
  if (steps != cache_.size()) {
    throw std::invalid_argument("Lstm::backward: timestep count mismatch");
  }
  if (cache_.empty()) {
    throw std::logic_error("Lstm::backward: forward not called");
  }
  if (dXs_.size() != steps) dXs_.resize(steps);
  ensureShape(dhNext_, batch_, hiddenSize_);  // gradient from step k+1 into h_k
  dhNext_.fill(0.0);
  ensureShape(dcNext_, batch_, hiddenSize_);  // ... and into c_k
  dcNext_.fill(0.0);
  wxPacked_.pack(wx_.value, true);
  whPacked_.pack(wh_.value, true);
}

Matrix& Lstm::backwardStep(std::size_t t, const Matrix& dH) {
  const std::size_t h = hiddenSize_;
  if (t >= dXs_.size() || dXs_.size() != cache_.size()) {
    throw std::out_of_range("Lstm::backwardStep: step out of range");
  }
  if (dH.rows() != batch_ || dH.cols() != h) {
    throw std::invalid_argument("Lstm::backward: gradient shape mismatch");
  }
  const linalg::ScopedGemmScratch scratch(gemmScratch_);
  const StepCache& sc = cache_[t];
  const Matrix& hPrev = t == 0 ? zeroState_ : outputs_[t - 1];
  const Matrix& cPrev = t == 0 ? zeroState_ : cache_[t - 1].c;
  ensureShape(da_, batch_, 4 * h);
  ensureShape(colSumsBuf_, 1, 4 * h);
  colSumsBuf_.fill(0.0);

  // One pass per row mirrors the forward cell: dh = dH + dhNext, then dc
  // and the four pre-activation gate gradients straight into da, each in
  // the operation order of the composed-op cell (lstm.h). The bias
  // gradient's column sums ride along, rows in order, as colSumsInto
  // would add them.
  double* colSums = colSumsBuf_.data().data();
  for (std::size_t r = 0; r < batch_; ++r) {
    const double* gate = sc.gates.data().data() + r * 4 * h;
    const double* tc = sc.tanhC.data().data() + r * h;
    const double* cp = cPrev.data().data() + r * h;
    const double* dHr = dH.data().data() + r * h;
    const double* dhN = dhNext_.data().data() + r * h;
    double* dcN = dcNext_.data().data() + r * h;
    double* da = da_.data().data() + r * 4 * h;
    for (std::size_t j = 0; j < h; ++j) {
      const double i = gate[j];
      const double f = gate[h + j];
      const double g = gate[2 * h + j];
      const double o = gate[3 * h + j];
      const double dh = dHr[j] + dhN[j];
      const double dTanhC = 1.0 - tc[j] * tc[j];
      const double dc = dcN[j] + dh * o * dTanhC;
      dcN[j] = dc * f;
      da[j] = dc * g * (i * (1.0 - i));
      da[h + j] = dc * cp[j] * (f * (1.0 - f));
      da[2 * h + j] = dc * i * (1.0 - g * g);
      da[3 * h + j] = dh * tc[j] * (o * (1.0 - o));
    }
    for (std::size_t c = 0; c < 4 * h; ++c) colSums[c] += da[c];
  }

  gemm(wx_.grad, sc.x, da_, true, false, 1.0, 1.0);
  gemm(wh_.grad, hPrev, da_, true, false, 1.0, 1.0);
  b_.grad += colSumsBuf_;
  gemm(dXs_[t], da_, wxPacked_);
  // The gradient into h_{-1}, the zero initial state, is never read.
  if (t > 0) gemm(dhNext_, da_, whPacked_);
  return dXs_[t];
}

bool Lstm::stepProductsPooled(std::size_t batch, std::size_t threads) const {
  const std::size_t in = inputSize_;
  const std::size_t h = hiddenSize_;
  const std::size_t products[][3] = {
      {batch, 4 * h, in}, {batch, 4 * h, h},  // gate products
      {in, 4 * h, batch}, {h, 4 * h, batch},  // weight gradients
      {batch, in, 4 * h}, {batch, h, 4 * h},  // dX and dhNext
  };
  for (const auto& p : products) {
    if (linalg::gemmPath(p[0], p[1], p[2], threads) ==
        linalg::GemmPath::kPooled) {
      return true;
    }
  }
  return false;
}

ParameterList Lstm::parameters() { return {&wx_, &wh_, &b_}; }

namespace {

using Shape = std::pair<std::size_t, std::size_t>;  ///< (steps, batch)

/// The lane rule of StackedLstm's layers and BiLstm's directions: runs
/// lane(0), ..., lane(n - 1) as pool tasks when \p concurrent, else inline
/// in lane order. The first pass at a new shape always runs inline, so
/// every lane's workspaces are allocated on the calling thread: buffers
/// first allocated on workers land in glibc per-thread arenas and raise
/// peak RSS. A lane may wait for a lower lane to publish progress, which
/// ThreadPool's ascending-claim contract makes deadlock-free, but never
/// for a higher one. Throws what running the lanes one after the other
/// would have thrown first; \p failures holds n slots.
template <typename Lane>
void runLanes(std::size_t n, Shape shape, std::optional<Shape>& sizedFor,
              bool concurrent, std::vector<std::exception_ptr>& failures,
              const Lane& lane) {
  if (!concurrent || shape != sizedFor) {
    for (std::size_t i = 0; i < n; ++i) lane(i);
    sizedFor = shape;
    return;
  }
  common::ThreadPool::global().parallelFor(0, n, [&](std::size_t i) {
    try {
      lane(i);
    } catch (...) {
      failures[i] = std::current_exception();
    }
  });
  std::exception_ptr first;
  for (std::exception_ptr& e : failures) {
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

/// Progress word value of a lane that threw: its waiters give up.
constexpr std::uint32_t kLaneFailed = UINT32_MAX;

void publish(std::atomic<std::uint32_t>& progress, std::uint32_t value) {
  progress.store(value, std::memory_order_release);
  progress.notify_one();
}

/// Blocks until \p progress reaches \p count; false when its lane failed
/// instead, so the waiter stops and the failure alone is reported.
bool awaitProgress(const std::atomic<std::uint32_t>& progress,
                   std::uint32_t count) {
  for (;;) {
    const std::uint32_t seen = progress.load(std::memory_order_acquire);
    if (seen == kLaneFailed) return false;
    if (seen >= count) return true;
    progress.wait(seen, std::memory_order_acquire);
  }
}

/// Lane \p k of a wavefront over \p steps steps: before step s it waits
/// until lane k - 1 has published s + 1 steps (lane 0 waits for none),
/// after it it publishes s + 1 in progress[k]. A lane that throws, or
/// whose predecessor failed, marks its own word failed before it leaves,
/// so the stop reaches every later lane.
template <typename Step>
void runWavefrontLane(std::atomic<std::uint32_t>* progress, std::size_t k,
                      std::size_t steps, const Step& step) {
  try {
    for (std::size_t s = 0; s < steps; ++s) {
      if (k > 0 && !awaitProgress(progress[k - 1],
                                  static_cast<std::uint32_t>(s + 1))) {
        publish(progress[k], kLaneFailed);
        return;
      }
      step(s);
      publish(progress[k], static_cast<std::uint32_t>(s + 1));
    }
  } catch (...) {
    publish(progress[k], kLaneFailed);
    throw;
  }
}

}  // namespace

StackedLstm::StackedLstm(std::string name, std::size_t inputSize,
                         std::size_t hiddenSize, std::size_t numLayers,
                         double dropout, rfp::common::Rng& rng)
    : dropoutP_(dropout),
      progress_(std::make_unique<std::atomic<std::uint32_t>[]>(numLayers)),
      laneFailures_(numLayers) {
  if (numLayers == 0) throw std::invalid_argument("StackedLstm: zero layers");
  // Validate the probability once, up front (layer dropouts are created
  // lazily on first forward).
  (void)Dropout(dropout);
  layers_.reserve(numLayers);
  for (std::size_t l = 0; l < numLayers; ++l) {
    const std::size_t in = l == 0 ? inputSize : hiddenSize;
    layers_.emplace_back(name + ".layer" + std::to_string(l), in, hiddenSize,
                         rng);
  }
}

std::size_t StackedLstm::hiddenSize() const {
  return layers_.back().hiddenSize();
}

bool StackedLstm::wavefront(std::size_t batch) const {
  const std::size_t threads = common::ThreadPool::global().size();
  if (threads < 2 || layers_.size() < 2) return false;
  // A layer's products nested in a wavefront task would run inline, so a
  // layer big enough to pool its GEMMs keeps the whole pool instead.
  for (const Lstm& layer : layers_) {
    if (layer.stepProductsPooled(batch, threads)) return false;
  }
  return true;
}

const std::vector<Matrix>& StackedLstm::forward(const std::vector<Matrix>& xs,
                                                bool training,
                                                rfp::common::Rng& rng) {
  const std::size_t steps = xs.size();
  const std::size_t batch = steps == 0 ? 0 : xs.front().rows();
  for (Lstm& layer : layers_) layer.forwardBegin(steps, batch);

  // Every mask is drawn here, per layer and then per timestep in
  // ascending order: the RNG sequence of drawing them between layers, as
  // the layers themselves draw nothing.
  const std::size_t numInter = layers_.size() - 1;
  if (dropouts_.size() != numInter) dropouts_.resize(numInter);
  if (dropped_.size() != numInter) dropped_.resize(numInter);
  for (std::size_t l = 0; l < numInter; ++l) {
    if (dropouts_[l].size() != steps) {
      dropouts_[l].assign(steps, Dropout(dropoutP_));
    }
    if (dropped_[l].size() != steps) dropped_[l].resize(steps);
    for (Dropout& d : dropouts_[l]) {
      d.drawMask(batch, layers_[l].hiddenSize(), training, rng);
    }
  }

  resetProgress();
  runLanes(layers_.size(), {steps, batch}, forwardSizedFor_, wavefront(batch),
           laneFailures_, [&](std::size_t l) {
             runWavefrontLane(progress_.get(), l, steps, [&](std::size_t t) {
               const Matrix* in = &xs[t];
               if (l > 0) {
                 dropouts_[l - 1][t].applyInto(dropped_[l - 1][t],
                                               layers_[l - 1].outputs()[t]);
                 in = &dropped_[l - 1][t];
               }
               layers_[l].forwardStep(t, *in);
             });
           });
  return layers_.back().outputs();
}

const std::vector<Matrix>& StackedLstm::backward(
    const std::vector<Matrix>& dHs) {
  const std::size_t steps = dHs.size();
  const std::size_t top = layers_.size() - 1;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    layers_[l].backwardBegin(steps);
  }
  const std::size_t batch = dHs.front().rows();

  // Lane k runs layer top - k, top down: each lower layer waits for the
  // layer above to publish its input gradient at a step, after the
  // dropout backward between them.
  resetProgress();
  runLanes(layers_.size(), {steps, batch}, backwardSizedFor_,
           wavefront(batch), laneFailures_, [&](std::size_t k) {
             const std::size_t l = top - k;
             runWavefrontLane(progress_.get(), k, steps, [&](std::size_t s) {
               const std::size_t t = steps - 1 - s;
               Matrix& dX = layers_[l].backwardStep(
                   t, k == 0 ? dHs[t] : layers_[l + 1].inputGradients()[t]);
               if (l > 0) dropouts_[l - 1][t].backwardInPlace(dX);
             });
           });
  return layers_.front().inputGradients();
}

void StackedLstm::resetProgress() {
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    progress_[k].store(0, std::memory_order_relaxed);
  }
}

ParameterList StackedLstm::parameters() {
  ParameterList out;
  for (Lstm& l : layers_) {
    for (Parameter* p : l.parameters()) out.push_back(p);
  }
  return out;
}

BiLstm::BiLstm(std::string name, std::size_t inputSize,
               std::size_t hiddenSize, rfp::common::Rng& rng)
    : fwd_(name + ".fwd", inputSize, hiddenSize, rng),
      bwd_(name + ".bwd", inputSize, hiddenSize, rng),
      laneFailures_(2) {}

const std::vector<Matrix>& BiLstm::forward(const std::vector<Matrix>& xs) {
  const std::size_t steps = xs.size();
  if (revXs_.size() != steps) revXs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) revXs_[t] = xs[steps - 1 - t];

  const std::vector<Matrix>* hf = nullptr;
  const std::vector<Matrix>* hbRev = nullptr;
  const Shape shape{steps, steps == 0 ? 0 : xs.front().rows()};
  runLanes(2, shape, forwardSizedFor_, true, laneFailures_,
           [&](std::size_t d) {
             if (d == 0) {
               hf = &fwd_.forward(xs);
             } else {
               hbRev = &bwd_.forward(revXs_);
             }
           });

  if (outs_.size() != steps) outs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    concatColsInto(outs_[t], (*hf)[t], (*hbRev)[steps - 1 - t]);
  }
  return outs_;
}

const std::vector<Matrix>& BiLstm::backward(const std::vector<Matrix>& dHs) {
  const std::size_t steps = dHs.size();
  const std::size_t h = hiddenSize();
  if (dFwd_.size() != steps) dFwd_.resize(steps);
  if (dBwdRev_.size() != steps) dBwdRev_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    sliceColsInto(dFwd_[t], dHs[t], 0, h);
    sliceColsInto(dBwdRev_[steps - 1 - t], dHs[t], h, 2 * h);
  }

  const std::vector<Matrix>* dXf = nullptr;
  const std::vector<Matrix>* dXbRev = nullptr;
  const Shape shape{steps, steps == 0 ? 0 : dHs.front().rows()};
  runLanes(2, shape, backwardSizedFor_, true, laneFailures_,
           [&](std::size_t d) {
             if (d == 0) {
               dXf = &fwd_.backward(dFwd_);
             } else {
               dXbRev = &bwd_.backward(dBwdRev_);
             }
           });

  if (dXs_.size() != steps) dXs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    dXs_[t] = (*dXf)[t];
    dXs_[t] += (*dXbRev)[steps - 1 - t];
  }
  return dXs_;
}

ParameterList BiLstm::parameters() {
  ParameterList out = fwd_.parameters();
  for (Parameter* p : bwd_.parameters()) out.push_back(p);
  return out;
}

}  // namespace rfp::nn
