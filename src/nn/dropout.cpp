#include "nn/dropout.h"

#include <stdexcept>

#include "linalg/gemm.h"

namespace rfp::nn {

Dropout::Dropout(double probability) : p_(probability) {
  if (p_ < 0.0 || p_ >= 1.0) {
    throw std::invalid_argument("Dropout: probability must be in [0, 1)");
  }
}

Matrix Dropout::forward(const Matrix& x, bool training,
                        rfp::common::Rng& rng) {
  Matrix out;
  forwardInto(out, x, training, rng);
  return out;
}

void Dropout::forwardInto(Matrix& dst, const Matrix& x, bool training,
                          rfp::common::Rng& rng) {
  drawMask(x.rows(), x.cols(), training, rng);
  applyInto(dst, x);
}

void Dropout::drawMask(std::size_t rows, std::size_t cols, bool training,
                       rfp::common::Rng& rng) {
  lastTraining_ = training;
  if (!training || p_ == 0.0) return;
  linalg::ensureShape(mask_, rows, cols);
  const double scale = 1.0 / (1.0 - p_);
  for (double& m : mask_.data()) m = rng.bernoulli(p_) ? 0.0 : scale;
}

void Dropout::applyInto(Matrix& dst, const Matrix& x) const {
  if (!lastTraining_ || p_ == 0.0) {
    dst = x;
    return;
  }
  dst = x;
  linalg::hadamardInPlace(dst, mask_);
}

Matrix Dropout::backward(const Matrix& dy) const {
  Matrix out = dy;
  backwardInPlace(out);
  return out;
}

void Dropout::backwardInPlace(Matrix& dy) const {
  if (!lastTraining_ || p_ == 0.0) return;
  linalg::hadamardInPlace(dy, mask_);
}

}  // namespace rfp::nn
