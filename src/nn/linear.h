#pragma once

/// \file linear.h
/// Fully connected layer Y = X W + b with cached-input backprop.

#include <string>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/parameter.h"

namespace rfp::nn {

/// Affine layer. forward() caches its input; backward() must follow each
/// forward (LIFO is unnecessary here because the cache holds only the most
/// recent input -- callers that reuse a Linear across timesteps batch the
/// timesteps into one tall matrix instead).
class Linear {
 public:
  Linear(std::string name, std::size_t inFeatures, std::size_t outFeatures,
         rfp::common::Rng& rng);

  std::size_t inFeatures() const { return weight_.value.rows(); }
  std::size_t outFeatures() const { return weight_.value.cols(); }

  /// X: [batch x in] -> [batch x out].
  Matrix forward(const Matrix& x);

  /// Destination-passing forward: writes into \p y (reshaped, capacity-
  /// reusing) and caches the input. \p y must not alias \p x or the
  /// weights. The allocation-free hot path.
  void forwardInto(Matrix& y, const Matrix& x);

  /// Inference-only forward: no input caching.
  Matrix forwardInference(const Matrix& x) const;

  /// dY: [batch x out] -> dX [batch x in]; accumulates dW and db.
  Matrix backward(const Matrix& dy);

  /// Destination-passing backward: dX into \p dx (reshaped); accumulates
  /// dW and db without temporaries unless \p weightGradients is false.
  /// \p dx must not alias \p dy.
  void backwardInto(Matrix& dx, const Matrix& dy, bool weightGradients = true);

  ParameterList parameters();

 private:
  Parameter weight_;  ///< [in x out]
  Parameter bias_;    ///< [1 x out]
  Matrix cachedInput_;
  Matrix colSumsBuf_;  ///< bias-gradient scratch (kept for reuse)
};

}  // namespace rfp::nn
