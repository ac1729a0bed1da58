#include "nn/dropout.h"

#include <algorithm>
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
  linalg::ensureShape(dst, x.rows(), x.cols());
  applyInto(dst, x, {0, x.rows()});
}

void Dropout::drawMask(std::size_t rows, std::size_t cols, bool training,
                       rfp::common::Rng& rng) {
  lastTraining_ = training;
  if (!training || p_ == 0.0) return;
  linalg::ensureShape(mask_, rows, cols);
  const double scale = 1.0 / (1.0 - p_);
  for (double& m : mask_.data()) m = rng.bernoulli(p_) ? 0.0 : scale;
}

bool Dropout::masked(const Matrix& m, linalg::RowRange rows) const {
  if (rows.begin > rows.end || rows.end > m.rows()) {
    throw std::invalid_argument("Dropout: row range outside the input");
  }
  if (!lastTraining_ || p_ == 0.0) return false;
  if (m.rows() != mask_.rows() || m.cols() != mask_.cols()) {
    throw std::invalid_argument("Dropout: input does not match the mask");
  }
  return true;
}

void Dropout::applyInto(Matrix& dst, const Matrix& x,
                        linalg::RowRange rows) const {
  if (dst.rows() != x.rows() || dst.cols() != x.cols()) {
    throw std::invalid_argument("Dropout: destination shape mismatch");
  }
  const std::size_t first = rows.begin * x.cols();
  const std::size_t last = rows.end * x.cols();
  double* d = dst.data().data();
  const double* xs = x.data().data();
  if (!masked(x, rows)) {
    std::copy(xs + first, xs + last, d + first);
    return;
  }
  const double* m = mask_.data().data();
  for (std::size_t i = first; i < last; ++i) d[i] = xs[i] * m[i];
}

Matrix Dropout::backward(const Matrix& dy) const {
  Matrix out = dy;
  backwardInPlace(out);
  return out;
}

void Dropout::backwardInPlace(Matrix& dy) const {
  backwardInPlace(dy, {0, dy.rows()});
}

void Dropout::backwardInPlace(Matrix& dy, linalg::RowRange rows) const {
  if (!masked(dy, rows)) return;
  const std::size_t first = rows.begin * dy.cols();
  const std::size_t last = rows.end * dy.cols();
  double* d = dy.data().data();
  const double* m = mask_.data().data();
  for (std::size_t i = first; i < last; ++i) d[i] *= m[i];
}

}  // namespace rfp::nn
