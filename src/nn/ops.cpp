#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rfp::nn {

void tanhInPlace(Matrix& m) {
  for (double& v : m.data()) v = std::tanh(v);
}

Matrix tanhForward(const Matrix& x) {
  Matrix y = x;
  tanhInPlace(y);
  return y;
}

void tanhBackwardInPlace(Matrix& dy, const Matrix& y) {
  auto yd = y.data();
  auto dxd = dy.data();
  for (std::size_t i = 0; i < dxd.size(); ++i) {
    dxd[i] *= 1.0 - yd[i] * yd[i];
  }
}

void sigmoidInPlace(Matrix& m) {
  for (double& v : m.data()) v = stableSigmoid(v);
}

Matrix sigmoidForward(const Matrix& x) {
  Matrix y = x;
  sigmoidInPlace(y);
  return y;
}

void sigmoidBackwardInPlace(Matrix& dy, const Matrix& y) {
  auto yd = y.data();
  auto dxd = dy.data();
  for (std::size_t i = 0; i < dxd.size(); ++i) {
    dxd[i] *= yd[i] * (1.0 - yd[i]);
  }
}

void reluInPlace(Matrix& m) {
  for (double& v : m.data()) v = v > 0.0 ? v : 0.0;
}

Matrix reluForward(const Matrix& x) {
  Matrix y = x;
  reluInPlace(y);
  return y;
}

void reluBackwardInPlace(Matrix& dy, const Matrix& y) {
  auto yd = y.data();
  auto dxd = dy.data();
  for (std::size_t i = 0; i < dxd.size(); ++i) {
    if (yd[i] <= 0.0) dxd[i] = 0.0;
  }
}

Matrix softmaxRows(const Matrix& x) {
  Matrix y = x;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double rowMax = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < y.cols(); ++c) {
      rowMax = std::max(rowMax, y(r, c));
    }
    // All--Inf rows (and empty exponent mass) fall back to uniform rather
    // than 0/0 = NaN.
    double sum = 0.0;
    for (std::size_t c = 0; c < y.cols(); ++c) {
      const double e = std::isfinite(rowMax) ? std::exp(y(r, c) - rowMax) : 0.0;
      y(r, c) = e;
      sum += e;
    }
    if (sum <= 0.0) {
      const double uniform = 1.0 / static_cast<double>(y.cols());
      for (std::size_t c = 0; c < y.cols(); ++c) y(r, c) = uniform;
    } else {
      for (std::size_t c = 0; c < y.cols(); ++c) y(r, c) /= sum;
    }
  }
  return y;
}

Matrix safeLog(const Matrix& x, double eps) {
  if (eps <= 0.0) throw std::invalid_argument("safeLog: eps must be positive");
  Matrix y = x;
  for (double& v : y.data()) v = std::log(std::max(v, eps));
  return y;
}

void concatColsInto(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("concatCols: row count mismatch");
  }
  ensureShape(out, a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b(r, c);
  }
}

Matrix concatCols(const Matrix& a, const Matrix& b) {
  Matrix out;
  concatColsInto(out, a, b);
  return out;
}

void sliceColsInto(Matrix& out, const Matrix& m, std::size_t from,
                   std::size_t to) {
  if (from > to || to > m.cols()) {
    throw std::invalid_argument("sliceCols: bad column range");
  }
  ensureShape(out, m.rows(), to - from);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = from; c < to; ++c) out(r, c - from) = m(r, c);
  }
}

Matrix sliceCols(const Matrix& m, std::size_t from, std::size_t to) {
  Matrix out;
  sliceColsInto(out, m, from, to);
  return out;
}

Matrix addRowBroadcast(const Matrix& m, const Matrix& row) {
  if (row.rows() != 1 || row.cols() != m.cols()) {
    throw std::invalid_argument("addRowBroadcast: row shape mismatch");
  }
  Matrix out = m;
  addRowBroadcastInPlace(out, row);
  return out;
}

void colSumsInto(Matrix& out, const Matrix& m) {
  ensureShape(out, 1, m.cols());
  out.fill(0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out(0, c) += m(r, c);
  }
}

Matrix colSums(const Matrix& m) {
  Matrix out;
  colSumsInto(out, m);
  return out;
}

double meanAll(const Matrix& m) {
  if (m.empty()) return 0.0;
  double s = 0.0;
  for (double v : m.data()) s += v;
  return s / static_cast<double>(m.rows() * m.cols());
}

double meanSigmoid(const Matrix& m) {
  if (m.empty()) return 0.0;
  double s = 0.0;
  for (double v : m.data()) s += stableSigmoid(v);
  return s / static_cast<double>(m.rows() * m.cols());
}

void fillUniform(Matrix& m, double limit, rfp::common::Rng& rng) {
  for (double& v : m.data()) v = rng.uniform(-limit, limit);
}

void xavierInit(Matrix& m, std::size_t fanIn, std::size_t fanOut,
                rfp::common::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fanIn + fanOut));
  fillUniform(m, limit, rng);
}

void fillGaussian(Matrix& m, rfp::common::Rng& rng, double mean,
                  double stddev) {
  for (double& v : m.data()) v = rng.gaussian(mean, stddev);
}

}  // namespace rfp::nn
