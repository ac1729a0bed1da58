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

  /// Destination-passing forward: drawMask(x's shape), then applyInto
  /// over every row of \p dst, reshaped to x's shape.
  /// The mask buffer is reshaped in place, so a Dropout reused across
  /// steps of a fixed-shape sequence draws fresh Bernoulli masks (same
  /// element order as forward) without allocating.
  void forwardInto(Matrix& dst, const Matrix& x, bool training,
                   rfp::common::Rng& rng);

  /// The randomness of forwardInto: draws a rows x cols mask from \p rng
  /// at train time with p > 0, else records eval mode and draws nothing.
  /// Split from applyInto so a caller can draw every mask of a sequence
  /// on one thread, in order, and apply them elsewhere, a row block per
  /// thread.
  void drawMask(std::size_t rows, std::size_t cols, bool training,
                rfp::common::Rng& rng);

  /// The draw-free half of forwardInto on rows \p rows only: those rows
  /// of \p dst = x .* mask, or copies of x's rows at eval / p == 0. \p dst
  /// must already have x's shape. Throws std::invalid_argument when it
  /// does not, when \p x does not have the drawn mask's shape, or when
  /// \p rows runs past x's rows.
  void applyInto(Matrix& dst, const Matrix& x, linalg::RowRange rows) const;

  /// Applies the cached mask (train) or passes through (eval).
  Matrix backward(const Matrix& dy) const;

  /// In-place backward: multiplies \p dy by the cached mask (no-op at
  /// eval / p == 0, exactly like the copying form).
  void backwardInPlace(Matrix& dy) const;
  /// backwardInPlace on rows \p rows of \p dy only, with
  /// applyInto's shape rules.
  void backwardInPlace(Matrix& dy, linalg::RowRange rows) const;

 private:
  /// True when the last drawMask drew a mask; throws
  /// std::invalid_argument unless \p m and \p rows fit it.
  bool masked(const Matrix& m, linalg::RowRange rows) const;

  double p_;
  bool lastTraining_ = false;
  Matrix mask_;
};

}  // namespace rfp::nn
