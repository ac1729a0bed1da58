#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
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
  for (std::size_t t = 0; t < xs.size(); ++t) {
    forwardStep(t, xs[t], {0, batch_});
  }
  return outputs_;
}

void Lstm::forwardBegin(std::size_t steps, std::size_t batch) {
  if (steps == 0) throw std::invalid_argument("Lstm::forward: empty sequence");
  const std::size_t h = hiddenSize_;
  batch_ = batch;
  pass_ = Pass::kForward;
  if (cache_.size() != steps) cache_.resize(steps);
  if (outputs_.size() != steps) outputs_.resize(steps);
  // Row ranges of a step may run on different threads, so every step's
  // buffers take their shape here, on the calling thread.
  for (std::size_t t = 0; t < steps; ++t) {
    StepCache& sc = cache_[t];
    ensureShape(sc.x, batch, inputSize_);
    ensureShape(sc.gates, batch, 4 * h);
    ensureShape(sc.c, batch, h);
    ensureShape(sc.tanhC, batch, h);
    ensureShape(outputs_[t], batch, h);
  }
  ensureShape(zeroState_, batch, h);  // zero-filled, never written
  wxPacked_.pack(wx_.value);
  whPacked_.pack(wh_.value);
}

namespace {

void requireRows(RowRange rows, std::size_t batch, const char* what) {
  if (rows.begin > rows.end || rows.end > batch) throw std::out_of_range(what);
}

}  // namespace

const Matrix& Lstm::forwardStep(std::size_t t, const Matrix& x,
                                RowRange rows) {
  if (pass_ != Pass::kForward || t >= cache_.size()) {
    throw std::out_of_range("Lstm::forwardStep: step out of range");
  }
  if (x.rows() != batch_ || x.cols() != inputSize_) {
    throw std::invalid_argument("Lstm::forward: input shape mismatch");
  }
  requireRows(rows, batch_, "Lstm::forwardStep: rows out of range");
  const std::size_t h = hiddenSize_;
  StepCache& sc = cache_[t];
  const Matrix& hPrev = t == 0 ? zeroState_ : outputs_[t - 1];
  const Matrix& cPrev = t == 0 ? zeroState_ : cache_[t - 1].c;
  std::copy(x.data().begin() + rows.begin * inputSize_,
            x.data().begin() + rows.end * inputSize_,
            sc.x.data().begin() + rows.begin * inputSize_);
  // gates = x*wx + hPrev*wh, accumulated in place: the second gemm adds
  // each complete hPrev*wh element in one rounding step.
  gemm(sc.gates, rows, x, wxPacked_);
  gemm(sc.gates, rows, hPrev, whPacked_, false, 1.0, 1.0);
  Matrix& hOut = outputs_[t];

  // One pass per row: bias, activations, c = f .* cPrev + i .* g (product
  // and sum rounded separately), h = o .* tanh(c).
  const double* bias = b_.value.data().data();
  for (std::size_t r = rows.begin; r < rows.end; ++r) {
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
  for (std::size_t t = dHs.size(); t-- > 0;) {
    backwardStep(t, dHs[t], {0, batch_});
  }
  accumulateWeightGradients({0, weightGradientRows()});
  return dXs_;
}

void Lstm::backwardBegin(std::size_t steps) {
  if (steps != cache_.size()) {
    throw std::invalid_argument("Lstm::backward: timestep count mismatch");
  }
  if (pass_ != Pass::kForward) {
    throw std::logic_error(
        "Lstm::backward: no forward pass left to consume; each backward "
        "needs its own forward");
  }
  pass_ = Pass::kBackward;
  if (dXs_.size() != steps) dXs_.resize(steps);
  for (Matrix& dx : dXs_) ensureShape(dx, batch_, inputSize_);
  ensureShape(dhNext_, batch_, hiddenSize_);  // gradient from step k+1 into h_k
  dhNext_.fill(0.0);
  ensureShape(dcNext_, batch_, hiddenSize_);  // ... and into c_k
  dcNext_.fill(0.0);
  ensureShape(colSumsBuf_, 1, 4 * hiddenSize_);
  wxPacked_.pack(wx_.value, true);
  whPacked_.pack(wh_.value, true);
}

Matrix& Lstm::backwardStep(std::size_t t, const Matrix& dH, RowRange rows) {
  const std::size_t h = hiddenSize_;
  if (pass_ != Pass::kBackward || t >= cache_.size()) {
    throw std::out_of_range("Lstm::backwardStep: step out of range");
  }
  if (dH.rows() != batch_ || dH.cols() != h) {
    throw std::invalid_argument("Lstm::backward: gradient shape mismatch");
  }
  requireRows(rows, batch_, "Lstm::backwardStep: rows out of range");
  StepCache& sc = cache_[t];
  const Matrix& cPrev = t == 0 ? zeroState_ : cache_[t - 1].c;

  // One pass per row mirrors the forward cell: dh = dH + dhNext, then dc
  // and the four pre-activation gate gradients, each in the operation
  // order of the composed-op cell (lstm.h), written over the activated
  // gates they are computed from: da.
  for (std::size_t r = rows.begin; r < rows.end; ++r) {
    double* gate = sc.gates.data().data() + r * 4 * h;
    const double* tc = sc.tanhC.data().data() + r * h;
    const double* cp = cPrev.data().data() + r * h;
    const double* dHr = dH.data().data() + r * h;
    const double* dhN = dhNext_.data().data() + r * h;
    double* dcN = dcNext_.data().data() + r * h;
    for (std::size_t j = 0; j < h; ++j) {
      const double i = gate[j];
      const double f = gate[h + j];
      const double g = gate[2 * h + j];
      const double o = gate[3 * h + j];
      const double dh = dHr[j] + dhN[j];
      const double dTanhC = 1.0 - tc[j] * tc[j];
      const double dc = dcN[j] + dh * o * dTanhC;
      dcN[j] = dc * f;
      gate[j] = dc * g * (i * (1.0 - i));
      gate[h + j] = dc * cp[j] * (f * (1.0 - f));
      gate[2 * h + j] = dc * i * (1.0 - g * g);
      gate[3 * h + j] = dh * tc[j] * (o * (1.0 - o));
    }
  }

  const Matrix& da = sc.gates;
  gemm(dXs_[t], rows, da, wxPacked_);
  // The gradient into h_{-1}, the zero initial state, is never read.
  if (t > 0) gemm(dhNext_, rows, da, whPacked_);
  return dXs_[t];
}

void Lstm::accumulateWeightGradients(RowRange rows) {
  if (pass_ != Pass::kBackward) {
    throw std::logic_error(
        "Lstm::accumulateWeightGradients: no backward pass");
  }
  requireRows(rows, weightGradientRows(),
              "Lstm::accumulateWeightGradients: rows out of range");
  const std::size_t in = inputSize_;
  const std::size_t h = hiddenSize_;
  const RowRange wxRows{std::min(rows.begin, in), std::min(rows.end, in)};
  const RowRange whRows{std::clamp(rows.begin, in, in + h) - in,
                        std::clamp(rows.end, in, in + h) - in};
  const bool biasRow = rows.end > in + h;
  // t descending, as the steps ran: each element's sequence of adds is a
  // per-step accumulation's. The bias gradient's column sums run over the
  // rows in order, as colSumsInto would add them.
  for (std::size_t t = cache_.size(); t-- > 0;) {
    const StepCache& sc = cache_[t];
    const Matrix& da = sc.gates;
    if (wxRows.size() > 0) {
      gemm(wx_.grad, wxRows, sc.x, da, true, false, 1.0, 1.0);
    }
    if (whRows.size() > 0) {
      gemm(wh_.grad, whRows, t == 0 ? zeroState_ : outputs_[t - 1], da, true,
           false, 1.0, 1.0);
    }
    if (biasRow) {
      colSumsBuf_.fill(0.0);
      double* colSums = colSumsBuf_.data().data();
      for (std::size_t r = 0; r < batch_; ++r) {
        const double* row = da.data().data() + r * 4 * h;
        for (std::size_t c = 0; c < 4 * h; ++c) colSums[c] += row[c];
      }
      b_.grad += colSumsBuf_;
    }
  }
}

bool Lstm::stepProductsPooled(std::size_t batch, std::size_t threads) const {
  const std::size_t in = inputSize_;
  const std::size_t h = hiddenSize_;
  const std::size_t products[][3] = {
      {batch, 4 * h, in}, {batch, 4 * h, h},  // gate products
      {in, 4 * h, batch}, {h, 4 * h, batch},  // one step's weight gradients
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

namespace detail {

void Lanes::reserve(std::size_t n) {
  if (n <= capacity) return;
  progress = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  failures.resize(n);
  scratch.resize(n);
  capacity = n;
}

}  // namespace detail

namespace {

using detail::LaneShape;
using detail::Lanes;

/// How a group of layers or directions runs one pass on the global pool.
struct LanePlan {
  std::size_t threads = 1;
  /// Some layer's per-step products take the pooled GEMM path: inside a
  /// lane they would run inline and lose the pool.
  bool productsPooled = false;
  /// Row blocks per layer or direction: half the pool, since a group has
  /// at least two layers or directions to share it, capped by the batch;
  /// 1 when productsPooled.
  std::size_t blocks = 1;
  std::size_t lanes = 0;  ///< layers or directions x blocks
  LaneShape shape;
};

/// Plans a pass of \p layers over \p steps steps of \p batch rows and
/// readies \p lanes for it: room for every lane and every share of the
/// weight-gradient pass, progress words zeroed.
LanePlan planPass(std::span<const Lstm> layers, std::size_t steps,
                  std::size_t batch, Lanes& lanes) {
  LanePlan plan;
  plan.threads = common::ThreadPool::global().size();
  for (const Lstm& layer : layers) {
    plan.productsPooled = plan.productsPooled ||
                          layer.stepProductsPooled(batch, plan.threads);
  }
  if (!plan.productsPooled) {
    plan.blocks =
        std::max<std::size_t>(1, std::min(batch, plan.threads / 2));
  }
  plan.lanes = layers.size() * plan.blocks;
  plan.shape = {steps, batch, plan.threads};
  lanes.reserve(std::max(plan.lanes, plan.threads));
  for (std::size_t k = 0; k < plan.lanes; ++k) {
    lanes.progress[k].store(0, std::memory_order_relaxed);
  }
  return plan;
}

/// Rows of block \p b of \p blocks contiguous blocks of a batch.
RowRange blockRows(std::size_t batch, std::size_t blocks, std::size_t b) {
  return {batch * b / blocks, batch * (b + 1) / blocks};
}

/// The lane rule of StackedLstm and BiLstm (DESIGN.md Sec. 8): runs
/// lane(0), ..., lane(n - 1), each with lane i's GEMM packing buffers
/// bound, as one parallelFor when \p pooled, else inline in lane order.
/// Owners pass pooled only once a pass at the shape completed inline, so
/// every lane's workspaces are allocated on the calling thread: buffers
/// first allocated on workers land in glibc per-thread arenas and raise
/// peak RSS. A lane may wait for a lower lane to publish progress, which
/// ThreadPool's ascending-claim contract makes deadlock-free, but never
/// for a higher one. Throws what running the lanes one after the other
/// would have thrown first. \p lanes holds at least n lanes.
template <typename Lane>
void runLanes(Lanes& lanes, std::size_t n, bool pooled, const Lane& lane) {
  const auto run = [&](std::size_t i) {
    const linalg::ScopedGemmScratch scratch(lanes.scratch[i]);
    lane(i);
  };
  if (!pooled) {
    for (std::size_t i = 0; i < n; ++i) run(i);
    return;
  }
  common::ThreadPool::global().parallelFor(0, n, [&](std::size_t i) {
    try {
      run(i);
    } catch (...) {
      lanes.failures[i] = std::current_exception();
    }
  });
  std::exception_ptr first;
  for (std::size_t i = 0; i < n; ++i) {
    if (!first) first = lanes.failures[i];
    lanes.failures[i] = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

/// The weight-gradient pass after a backward of \p layers (DESIGN.md
/// Sec. 9): their stacked [dWx; dWh; db] rows, concatenated, in one
/// contiguous share per pool thread, each share adding its rows over every
/// timestep (Lstm::accumulateWeightGradients). Shares write disjoint rows,
/// so they run as lanes.
void accumulateWeightGradients(std::span<Lstm> layers, Lanes& lanes,
                               std::size_t threads, bool pooled) {
  std::size_t total = 0;
  for (const Lstm& layer : layers) total += layer.weightGradientRows();
  const std::size_t parts = std::min(threads, total);
  runLanes(lanes, parts, pooled, [&](std::size_t w) {
    const std::size_t lo = total * w / parts;
    const std::size_t hi = total * (w + 1) / parts;
    std::size_t base = 0;
    for (Lstm& layer : layers) {
      const std::size_t rows = layer.weightGradientRows();
      const std::size_t b = std::max(lo, base);
      const std::size_t e = std::min(hi, base + rows);
      if (b < e) layer.accumulateWeightGradients({b - base, e - base});
      base += rows;
    }
  });
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

/// Lane \p k of a wavefront over \p steps steps, whose predecessor is lane
/// k - \p stride (none below \p stride): before step s it waits until the
/// predecessor has published s + 1 steps, after it it publishes s + 1 in
/// progress[k]. A lane that throws, or whose predecessor failed, marks its
/// own word failed before it leaves, so the stop reaches every later lane.
template <typename Step>
void runWavefrontLane(std::atomic<std::uint32_t>* progress, std::size_t k,
                      std::size_t stride, std::size_t steps,
                      const Step& step) {
  try {
    for (std::size_t s = 0; s < steps; ++s) {
      if (k >= stride && !awaitProgress(progress[k - stride],
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
    : dropoutP_(dropout) {
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
    const std::size_t h = layers_[l].hiddenSize();
    for (std::size_t t = 0; t < steps; ++t) {
      dropouts_[l][t].drawMask(batch, h, training, rng);
      ensureShape(dropped_[l][t], batch, h);
    }
  }

  // Lane l * blocks + b runs layer l on row block b and waits on the same
  // block of the layer below, `blocks` lanes lower.
  const LanePlan plan = planPass(layers_, steps, batch, lanes_);
  const std::size_t blocks = plan.blocks;
  runLanes(lanes_, plan.lanes,
           !plan.productsPooled && lanes_.forwardSizedFor == plan.shape,
           [&](std::size_t k) {
             const std::size_t l = k / blocks;
             const RowRange rows = blockRows(batch, blocks, k % blocks);
             runWavefrontLane(
                 lanes_.progress.get(), k, blocks, steps, [&](std::size_t t) {
                   const Matrix* in = &xs[t];
                   if (l > 0) {
                     dropouts_[l - 1][t].applyInto(
                         dropped_[l - 1][t], layers_[l - 1].outputs()[t],
                         rows);
                     in = &dropped_[l - 1][t];
                   }
                   layers_[l].forwardStep(t, *in, rows);
                 });
           });
  lanes_.forwardSizedFor = plan.shape;
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

  // Lane k runs layer top - k / blocks on row block k % blocks, top down:
  // each lower layer's lane waits for the same rows of the layer above to
  // publish their input gradient at a step, after the dropout backward
  // between them.
  const LanePlan plan = planPass(layers_, steps, batch, lanes_);
  const std::size_t blocks = plan.blocks;
  const bool sized = lanes_.backwardSizedFor == plan.shape;
  runLanes(
      lanes_, plan.lanes, !plan.productsPooled && sized, [&](std::size_t k) {
        const std::size_t l = top - k / blocks;
        const RowRange rows = blockRows(batch, blocks, k % blocks);
        runWavefrontLane(
            lanes_.progress.get(), k, blocks, steps, [&](std::size_t s) {
              const std::size_t t = steps - 1 - s;
              Matrix& dX = layers_[l].backwardStep(
                  t, l == top ? dHs[t] : layers_[l + 1].inputGradients()[t],
                  rows);
              if (l > 0) dropouts_[l - 1][t].backwardInPlace(dX, rows);
            });
      });
  accumulateWeightGradients(layers_, lanes_, plan.threads, sized);
  lanes_.backwardSizedFor = plan.shape;
  return layers_.front().inputGradients();
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
    : dirs_{Lstm(name + ".fwd", inputSize, hiddenSize, rng),
            Lstm(name + ".bwd", inputSize, hiddenSize, rng)} {}

const std::vector<Matrix>& BiLstm::forward(const std::vector<Matrix>& xs) {
  const std::size_t steps = xs.size();
  const std::size_t batch = steps == 0 ? 0 : xs.front().rows();
  for (Lstm& dir : dirs_) dir.forwardBegin(steps, batch);

  const std::size_t h = hiddenSize();
  if (outs_.size() != steps) outs_.resize(steps);
  for (Matrix& out : outs_) ensureShape(out, batch, 2 * h);

  // Lane d * blocks + b runs direction d on row block b and copies its
  // hidden rows into columns [d * H, (d + 1) * H) of the output; the
  // reverse direction reads the sequence back to front.
  const LanePlan plan = planPass(dirs_, steps, batch, lanes_);
  const std::size_t blocks = plan.blocks;
  runLanes(lanes_, plan.lanes, lanes_.forwardSizedFor == plan.shape,
           [&](std::size_t k) {
             const std::size_t d = k / blocks;
             const RowRange rows = blockRows(batch, blocks, k % blocks);
             for (std::size_t t = 0; t < steps; ++t) {
               const std::size_t seqT = d == 0 ? t : steps - 1 - t;
               const Matrix& hOut = dirs_[d].forwardStep(t, xs[seqT], rows);
               for (std::size_t r = rows.begin; r < rows.end; ++r) {
                 const double* src = hOut.data().data() + r * h;
                 std::copy(src, src + h,
                           outs_[seqT].data().data() + (2 * r + d) * h);
               }
             }
           });
  lanes_.forwardSizedFor = plan.shape;
  return outs_;
}

const std::vector<Matrix>& BiLstm::backward(const std::vector<Matrix>& dHs,
                                            bool weightGradients) {
  const std::size_t steps = dHs.size();
  const std::size_t h = hiddenSize();
  for (Lstm& dir : dirs_) dir.backwardBegin(steps);
  if (dFwd_.size() != steps) dFwd_.resize(steps);
  if (dBwdRev_.size() != steps) dBwdRev_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    sliceColsInto(dFwd_[t], dHs[t], 0, h);
    sliceColsInto(dBwdRev_[steps - 1 - t], dHs[t], h, 2 * h);
  }

  const std::size_t batch = steps == 0 ? 0 : dHs.front().rows();
  const LanePlan plan = planPass(dirs_, steps, batch, lanes_);
  const std::size_t blocks = plan.blocks;
  const bool sized = lanes_.backwardSizedFor == plan.shape;
  runLanes(lanes_, plan.lanes, sized, [&](std::size_t k) {
    const std::size_t d = k / blocks;
    const RowRange rows = blockRows(batch, blocks, k % blocks);
    const std::vector<Matrix>& dH = d == 0 ? dFwd_ : dBwdRev_;
    for (std::size_t t = steps; t-- > 0;) dirs_[d].backwardStep(t, dH[t], rows);
  });
  if (weightGradients) {
    accumulateWeightGradients(dirs_, lanes_, plan.threads, sized);
  }
  lanes_.backwardSizedFor = plan.shape;

  const std::vector<Matrix>& dXf = dirs_[0].inputGradients();
  const std::vector<Matrix>& dXbRev = dirs_[1].inputGradients();
  if (dXs_.size() != steps) dXs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    dXs_[t] = dXf[t];
    dXs_[t] += dXbRev[steps - 1 - t];
  }
  return dXs_;
}

ParameterList BiLstm::parameters() {
  ParameterList out = dirs_[0].parameters();
  for (Parameter* p : dirs_[1].parameters()) out.push_back(p);
  return out;
}

}  // namespace rfp::nn
