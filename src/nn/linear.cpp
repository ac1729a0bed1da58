#include "nn/linear.h"

#include <stdexcept>

namespace rfp::nn {

Linear::Linear(std::string name, std::size_t inFeatures,
               std::size_t outFeatures, rfp::common::Rng& rng)
    : weight_(name + ".weight", Matrix(inFeatures, outFeatures)),
      bias_(name + ".bias", Matrix(1, outFeatures)) {
  if (inFeatures == 0 || outFeatures == 0) {
    throw std::invalid_argument("Linear: zero feature dimension");
  }
  xavierInit(weight_.value, inFeatures, outFeatures, rng);
}

Matrix Linear::forward(const Matrix& x) {
  Matrix y;
  forwardInto(y, x);
  return y;
}

void Linear::forwardInto(Matrix& y, const Matrix& x) {
  cachedInput_ = x;  // copy-assign reuses capacity
  gemm(y, x, weight_.value);
  addRowBroadcastInPlace(y, bias_.value);
}

Matrix Linear::forwardInference(const Matrix& x) const {
  Matrix y;
  gemm(y, x, weight_.value);
  addRowBroadcastInPlace(y, bias_.value);
  return y;
}

Matrix Linear::backward(const Matrix& dy) {
  Matrix dx;
  backwardInto(dx, dy);
  return dx;
}

void Linear::backwardInto(Matrix& dx, const Matrix& dy,
                          bool weightGradients) {
  if (cachedInput_.empty()) {
    throw std::logic_error("Linear::backward before forward");
  }
  if (weightGradients) {
    // dW += X^T dY via transpose flag (no materialized transpose); beta = 1
    // accumulates the fully-summed product in a single per-element add,
    // matching the historical `grad += X.transposed() * dY` bit-for-bit.
    gemm(weight_.grad, cachedInput_, dy, /*transA=*/true, /*transB=*/false,
         1.0, 1.0);
    colSumsInto(colSumsBuf_, dy);
    bias_.grad += colSumsBuf_;
  }
  gemm(dx, dy, weight_.value, /*transA=*/false, /*transB=*/true);
}

ParameterList Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace rfp::nn
