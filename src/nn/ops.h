#pragma once

/// \file ops.h
/// Element-wise activations and small matrix utilities used by the layers.
/// Activations come in forward/backward pairs; backward takes the *output*
/// of the forward pass (cheaper than re-deriving from the input).

#include <cmath>

#include "common/rng.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"

namespace rfp::nn {

using linalg::Matrix;

// Re-exported destination-passing kernels (linalg/gemm.h) so layer code
// reads uniformly: nn::gemm, nn::hadamardInPlace, nn::ensureShape, ...
using linalg::addHadamardInPlace;
using linalg::addRowBroadcastInPlace;
using linalg::axpyInPlace;
using linalg::ensureShape;
using linalg::gemm;
using linalg::hadamardInPlace;
using linalg::scaleInPlace;

// --- activations -----------------------------------------------------------
// The copying Forward functions below remain the convenience API; the
// *InPlace variants are the allocation-free hot path and perform the same
// per-element operation (bit-identical results). The backward passes take
// dY and the forward output y and turn dY into dX in place.

/// The numerically stable logistic shared by every sigmoid path (the
/// activations below and the LSTM's fused cell).
inline double stableSigmoid(double v) {
  if (v >= 0.0) return 1.0 / (1.0 + std::exp(-v));
  const double e = std::exp(v);  // one call: exp is a pure function
  return e / (1.0 + e);
}

void tanhInPlace(Matrix& m);
/// dy *= (1 - y^2).
void tanhBackwardInPlace(Matrix& dy, const Matrix& y);

void sigmoidInPlace(Matrix& m);
/// dy *= y * (1 - y).
void sigmoidBackwardInPlace(Matrix& dy, const Matrix& y);

void reluInPlace(Matrix& m);
/// dy[i] = 0 where y[i] <= 0.
void reluBackwardInPlace(Matrix& dy, const Matrix& y);

Matrix tanhForward(const Matrix& x);
Matrix sigmoidForward(const Matrix& x);
Matrix reluForward(const Matrix& x);

/// Row-wise softmax, guarded against overflow: the row maximum is
/// subtracted before exponentiation, so logits of any magnitude (+/-1e308
/// included) produce finite probabilities that sum to 1 per row.
Matrix softmaxRows(const Matrix& x);

/// log(max(x, eps)) element-wise: the epsilon-guarded logarithm for
/// probability-space losses, never -Inf/NaN for x >= 0.
Matrix safeLog(const Matrix& x, double eps = 1e-12);

// --- shape utilities --------------------------------------------------------

/// Horizontal concatenation [a | b]; row counts must match.
Matrix concatCols(const Matrix& a, const Matrix& b);
/// Destination-passing concatCols; \p out is reshaped (capacity-reusing).
void concatColsInto(Matrix& out, const Matrix& a, const Matrix& b);

/// Columns [from, to) of m.
Matrix sliceCols(const Matrix& m, std::size_t from, std::size_t to);
/// Destination-passing sliceCols; \p out is reshaped (capacity-reusing).
void sliceColsInto(Matrix& out, const Matrix& m, std::size_t from,
                   std::size_t to);

/// Adds a 1 x C row vector to every row of an R x C matrix.
Matrix addRowBroadcast(const Matrix& m, const Matrix& row);

/// 1 x C column sums of an R x C matrix (the bias gradient).
Matrix colSums(const Matrix& m);
/// Destination-passing colSums; \p out is reshaped (capacity-reusing).
void colSumsInto(Matrix& out, const Matrix& m);

/// Mean of all entries.
double meanAll(const Matrix& m);

/// meanAll(sigmoidForward(m)) without the temporary: the per-element
/// sigmoid and the accumulation order match the two-call form exactly.
double meanSigmoid(const Matrix& m);

/// Fills \p m with uniform samples in [-limit, limit].
void fillUniform(Matrix& m, double limit, rfp::common::Rng& rng);

/// Xavier/Glorot uniform initialization for a fanIn x fanOut weight.
void xavierInit(Matrix& m, std::size_t fanIn, std::size_t fanOut,
                rfp::common::Rng& rng);

/// Standard-normal fill (for noise vectors).
void fillGaussian(Matrix& m, rfp::common::Rng& rng, double mean = 0.0,
                  double stddev = 1.0);

}  // namespace rfp::nn
