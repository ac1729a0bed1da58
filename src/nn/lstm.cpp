#include "nn/lstm.h"

#include <exception>
#include <stdexcept>

#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "nn/ops.h"

namespace rfp::nn {

using linalg::addRowBroadcastInPlace;
using linalg::ensureShape;
using linalg::gemm;
using linalg::hadamardInPlace;

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
  if (xs.empty()) throw std::invalid_argument("Lstm::forward: empty sequence");
  const std::size_t batch = xs.front().rows();
  const std::size_t h = hiddenSize_;
  const std::size_t steps = xs.size();

  const linalg::ScopedGemmScratch scratch(gemmScratch_);
  if (cache_.size() != steps) cache_.resize(steps);
  if (outputs_.size() != steps) outputs_.resize(steps);

  ensureShape(hPrev_, batch, h);
  hPrev_.fill(0.0);
  ensureShape(cPrev_, batch, h);
  cPrev_.fill(0.0);
  wxPacked_.pack(wx_.value);
  whPacked_.pack(wh_.value);

  for (std::size_t t = 0; t < steps; ++t) {
    const Matrix& x = xs[t];
    if (x.rows() != batch || x.cols() != inputSize_) {
      throw std::invalid_argument("Lstm::forward: input shape mismatch");
    }
    // a = x*wx + hPrev*wh + b, accumulated in place: the second gemm adds
    // each complete hPrev*wh element in one rounding step, matching the
    // former materialize-then-add evaluation bit for bit.
    gemm(a_, x, wxPacked_);
    gemm(a_, hPrev_, whPacked_, false, 1.0, 1.0);
    addRowBroadcastInPlace(a_, b_.value);

    StepCache& sc = cache_[t];
    sc.x = x;
    sc.hPrev = hPrev_;
    sc.cPrev = cPrev_;
    sliceColsInto(sc.i, a_, 0, h);
    sigmoidInPlace(sc.i);
    sliceColsInto(sc.f, a_, h, 2 * h);
    sigmoidInPlace(sc.f);
    sliceColsInto(sc.g, a_, 2 * h, 3 * h);
    tanhInPlace(sc.g);
    sliceColsInto(sc.o, a_, 3 * h, 4 * h);
    sigmoidInPlace(sc.o);

    // c = f .* cPrev + i .* g
    sc.c = sc.f;
    hadamardInPlace(sc.c, sc.cPrev);
    linalg::addHadamardInPlace(sc.c, sc.i, sc.g);
    sc.tanhC = sc.c;
    tanhInPlace(sc.tanhC);

    Matrix& hOut = outputs_[t];
    hOut = sc.o;
    hadamardInPlace(hOut, sc.tanhC);

    hPrev_ = hOut;
    cPrev_ = sc.c;
  }
  return outputs_;
}

std::vector<Matrix>& Lstm::backward(const std::vector<Matrix>& dHs) {
  if (dHs.size() != cache_.size()) {
    throw std::invalid_argument("Lstm::backward: timestep count mismatch");
  }
  if (cache_.empty()) {
    throw std::logic_error("Lstm::backward: forward not called");
  }
  const std::size_t steps = cache_.size();
  const std::size_t h = hiddenSize_;
  const std::size_t batch = cache_.front().x.rows();

  const linalg::ScopedGemmScratch scratch(gemmScratch_);
  if (dXs_.size() != steps) dXs_.resize(steps);
  ensureShape(dhNext_, batch, h);  // gradient flowing from step k+1 into h_k
  dhNext_.fill(0.0);
  ensureShape(dcNext_, batch, h);  // ... and into c_k
  dcNext_.fill(0.0);
  wxPacked_.pack(wx_.value, true);
  whPacked_.pack(wh_.value, true);

  for (std::size_t step = steps; step-- > 0;) {
    const StepCache& sc = cache_[step];
    dh_ = dHs[step];
    dh_ += dhNext_;

    // h = o * tanh(c)
    dOut_ = dh_;
    hadamardInPlace(dOut_, sc.tanhC);
    dTanhC_ = sc.tanhC;
    for (double& v : dTanhC_.data()) v = 1.0 - v * v;
    dcTmp_ = dh_;
    hadamardInPlace(dcTmp_, sc.o);
    hadamardInPlace(dcTmp_, dTanhC_);
    dc_ = dcNext_;
    dc_ += dcTmp_;

    dI_ = dc_;
    hadamardInPlace(dI_, sc.g);
    dG_ = dc_;
    hadamardInPlace(dG_, sc.i);
    dF_ = dc_;
    hadamardInPlace(dF_, sc.cPrev);
    dcNext_ = dc_;
    hadamardInPlace(dcNext_, sc.f);

    // Pre-activation gradients, written in place over the gate gradients.
    sigmoidBackwardInPlace(dI_, sc.i);
    sigmoidBackwardInPlace(dF_, sc.f);
    tanhBackwardInPlace(dG_, sc.g);
    sigmoidBackwardInPlace(dOut_, sc.o);

    ensureShape(da_, batch, 4 * h);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t c = 0; c < h; ++c) {
        da_(r, c) = dI_(r, c);
        da_(r, h + c) = dF_(r, c);
        da_(r, 2 * h + c) = dG_(r, c);
        da_(r, 3 * h + c) = dOut_(r, c);
      }
    }

    gemm(wx_.grad, sc.x, da_, true, false, 1.0, 1.0);
    gemm(wh_.grad, sc.hPrev, da_, true, false, 1.0, 1.0);
    colSumsInto(colSumsBuf_, da_);
    b_.grad += colSumsBuf_;

    gemm(dXs_[step], da_, wxPacked_);
    gemm(dhNext_, da_, whPacked_);
  }
  return dXs_;
}

ParameterList Lstm::parameters() { return {&wx_, &wh_, &b_}; }

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
  const std::size_t numInter = layers_.size() - 1;
  if (dropouts_.size() != numInter) dropouts_.resize(numInter);
  if (dropped_.size() != numInter) dropped_.resize(numInter);

  const std::vector<Matrix>* h = &layers_.front().forward(xs);
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    auto& layerDropouts = dropouts_[l - 1];
    if (layerDropouts.size() != h->size()) {
      layerDropouts.clear();
      layerDropouts.reserve(h->size());
      for (std::size_t t = 0; t < h->size(); ++t) {
        layerDropouts.emplace_back(dropoutP_);
      }
    }
    auto& dropped = dropped_[l - 1];
    if (dropped.size() != h->size()) dropped.resize(h->size());
    for (std::size_t t = 0; t < h->size(); ++t) {
      // Masks are drawn per timestep in ascending order, preserving the
      // RNG draw sequence of the former build-a-fresh-Dropout loop.
      layerDropouts[t].forwardInto(dropped[t], (*h)[t], training, rng);
    }
    h = &layers_[l].forward(dropped);
  }
  return *h;
}

const std::vector<Matrix>& StackedLstm::backward(
    const std::vector<Matrix>& dHs) {
  const std::vector<Matrix>* grad = &dHs;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    std::vector<Matrix>& g = layers_[l].backward(*grad);
    if (l > 0) {
      auto& layerDropouts = dropouts_[l - 1];
      for (std::size_t st = 0; st < g.size(); ++st) {
        layerDropouts[st].backwardInPlace(g[st]);
      }
    }
    grad = &g;
  }
  return *grad;
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
      bwd_(name + ".bwd", inputSize, hiddenSize, rng) {}

template <typename Body>
void BiLstm::runDirections(Shape shape, std::optional<Shape>& sizedFor,
                           const Body& body) {
  // Inline for the first pass at a new shape, so both directions'
  // workspaces are allocated on this thread: buffers first allocated on
  // workers land in glibc per-thread arenas and raise peak RSS.
  if (shape != sizedFor) {
    body(0);
    body(1);
    sizedFor = shape;
    return;
  }
  std::exception_ptr failed[2];
  common::ThreadPool::global().parallelFor(0, 2, [&](std::size_t d) {
    try {
      body(d);
    } catch (...) {
      failed[d] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : failed) {
    if (e) std::rethrow_exception(e);
  }
}

const std::vector<Matrix>& BiLstm::forward(const std::vector<Matrix>& xs) {
  const std::size_t steps = xs.size();
  if (revXs_.size() != steps) revXs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) revXs_[t] = xs[steps - 1 - t];

  const std::vector<Matrix>* hf = nullptr;
  const std::vector<Matrix>* hbRev = nullptr;
  const Shape shape{steps, steps == 0 ? 0 : xs.front().rows()};
  runDirections(shape, forwardSizedFor_, [&](std::size_t d) {
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
  runDirections(shape, backwardSizedFor_, [&](std::size_t d) {
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
