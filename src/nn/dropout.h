#pragma once

/// \file dropout.h
/// Inverted dropout (paper Sec. 6 uses dropout probability 0.5 in both the
/// generator LSTM and the discriminator Bi-LSTM).

#include "common/rng.h"
#include "linalg/matrix.h"

namespace rfp::nn {

using linalg::Matrix;

/// Inverted-dropout layer: at train time zeroes each activation with
/// probability p and scales survivors by 1/(1-p); identity at eval time.
class Dropout {
 public:
  explicit Dropout(double probability);

  double probability() const { return p_; }

  /// \p training selects train vs eval behaviour.
  Matrix forward(const Matrix& x, bool training, rfp::common::Rng& rng);

  /// Destination-passing forward: drawMask(x's shape) then applyInto.
  /// The mask buffer is reshaped in place, so a Dropout reused across
  /// steps of a fixed-shape sequence draws fresh Bernoulli masks (same
  /// element order as forward) without allocating.
  void forwardInto(Matrix& dst, const Matrix& x, bool training,
                   rfp::common::Rng& rng);

  /// The randomness of forwardInto: draws a rows x cols mask from \p rng
  /// at train time with p > 0, else records eval mode and draws nothing.
  /// Split from applyInto so a caller can draw every mask of a sequence
  /// on one thread, in order, and apply them elsewhere.
  void drawMask(std::size_t rows, std::size_t cols, bool training,
                rfp::common::Rng& rng);

  /// The draw-free half of forwardInto: \p dst = x .* mask, or a copy of
  /// \p x at eval / p == 0. Throws std::invalid_argument when \p x does
  /// not have the drawn mask's shape.
  void applyInto(Matrix& dst, const Matrix& x) const;

  /// Applies the cached mask (train) or passes through (eval).
  Matrix backward(const Matrix& dy) const;

  /// In-place backward: multiplies \p dy by the cached mask (no-op at
  /// eval / p == 0, exactly like the copying form).
  void backwardInPlace(Matrix& dy) const;

 private:
  double p_;
  bool lastTraining_ = false;
  Matrix mask_;
};

}  // namespace rfp::nn
