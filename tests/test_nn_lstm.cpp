#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"
#include "nn/ops.h"

namespace rfp::nn {
namespace {

double halfSumSquares(const std::vector<Matrix>& ys) {
  double s = 0.0;
  for (const Matrix& y : ys) {
    for (double v : y.data()) s += v * v;
  }
  return 0.5 * s;
}

std::vector<Matrix> randomSequence(std::size_t steps, std::size_t batch,
                                   std::size_t dim, rfp::common::Rng& rng) {
  std::vector<Matrix> xs(steps, Matrix(batch, dim));
  for (Matrix& x : xs) fillGaussian(x, rng);
  return xs;
}

TEST(Lstm, ForwardShapesAndDeterminism) {
  rfp::common::Rng rng(1);
  Lstm lstm("l", 3, 5, rng);
  rfp::common::Rng dataRng(2);
  const auto xs = randomSequence(7, 2, 3, dataRng);
  const auto h1 = lstm.forward(xs);
  const auto h2 = lstm.forward(xs);
  ASSERT_EQ(h1.size(), 7u);
  EXPECT_EQ(h1[0].rows(), 2u);
  EXPECT_EQ(h1[0].cols(), 5u);
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_TRUE(h1[t].approxEquals(h2[t], 0.0));
  }
  // Hidden states are bounded by tanh * sigmoid.
  for (double v : h1.back().data()) {
    EXPECT_LT(std::fabs(v), 1.0);
  }
}

TEST(Lstm, RejectsBadInputs) {
  rfp::common::Rng rng(1);
  Lstm lstm("l", 3, 4, rng);
  EXPECT_THROW(lstm.forward({}), std::invalid_argument);
  EXPECT_THROW(lstm.forward({Matrix(2, 5)}), std::invalid_argument);
  EXPECT_THROW(Lstm("z", 0, 4, rng), std::invalid_argument);
}

TEST(Lstm, GradientCheckAllParameters) {
  rfp::common::Rng rng(3);
  Lstm lstm("l", 2, 3, rng);
  rfp::common::Rng dataRng(4);
  const auto xs = randomSequence(5, 2, 2, dataRng);

  auto lossFn = [&]() { return halfSumSquares(lstm.forward(xs)); };

  zeroGradients(lstm.parameters());
  const auto hs = lstm.forward(xs);
  lstm.backward(hs);  // dL/dH = H

  for (Parameter* p : lstm.parameters()) {
    const auto result = checkGradient(*p, lossFn, 1e-6, 2e-5);
    EXPECT_TRUE(result.passed) << p->name << " rel " << result.maxRelError
                               << " abs " << result.maxAbsError;
  }
}

TEST(Lstm, InputGradientMatchesNumeric) {
  rfp::common::Rng rng(5);
  Lstm lstm("l", 2, 3, rng);
  rfp::common::Rng dataRng(6);
  auto xs = randomSequence(4, 1, 2, dataRng);

  zeroGradients(lstm.parameters());
  const auto hs = lstm.forward(xs);
  const auto dxs = lstm.backward(hs);

  const double eps = 1e-6;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    for (std::size_t j = 0; j < xs[t].cols(); ++j) {
      auto xp = xs;
      xp[t](0, j) += eps;
      auto xm = xs;
      xm[t](0, j) -= eps;
      const double numeric =
          (halfSumSquares(lstm.forward(xp)) -
           halfSumSquares(lstm.forward(xm))) /
          (2.0 * eps);
      EXPECT_NEAR(dxs[t](0, j), numeric, 2e-5)
          << "t=" << t << " j=" << j;
    }
  }
}

TEST(StackedLstm, GradientCheckTwoLayersNoDropout) {
  rfp::common::Rng rng(7);
  // Dropout 0 keeps the network deterministic for finite differences.
  StackedLstm stack("s", 2, 3, 2, 0.0, rng);
  rfp::common::Rng dataRng(8);
  const auto xs = randomSequence(4, 2, 2, dataRng);
  rfp::common::Rng fwdRng(9);

  auto lossFn = [&]() {
    rfp::common::Rng r(9);
    return halfSumSquares(stack.forward(xs, false, r));
  };

  zeroGradients(stack.parameters());
  const auto hs = stack.forward(xs, false, fwdRng);
  stack.backward(hs);

  for (Parameter* p : stack.parameters()) {
    const auto result = checkGradient(*p, lossFn, 1e-6, 2e-5);
    EXPECT_TRUE(result.passed) << p->name << " rel " << result.maxRelError;
  }
}

TEST(StackedLstm, DropoutBetweenLayersOnlyInTraining) {
  rfp::common::Rng rng(10);
  StackedLstm stack("s", 2, 4, 2, 0.6, rng);
  rfp::common::Rng dataRng(11);
  const auto xs = randomSequence(3, 2, 2, dataRng);
  rfp::common::Rng r1(12);
  rfp::common::Rng r2(12);
  const auto evalA = stack.forward(xs, false, r1);
  const auto evalB = stack.forward(xs, false, r2);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(evalA[t].approxEquals(evalB[t], 0.0));
  }
  EXPECT_EQ(stack.numLayers(), 2u);
  EXPECT_EQ(stack.hiddenSize(), 4u);
  EXPECT_THROW(StackedLstm("z", 2, 4, 0, 0.0, rng), std::invalid_argument);
}

TEST(BiLstm, OutputConcatenatesDirections) {
  rfp::common::Rng rng(13);
  BiLstm bi("b", 3, 4, rng);
  rfp::common::Rng dataRng(14);
  const auto xs = randomSequence(5, 2, 3, dataRng);
  const auto hs = bi.forward(xs);
  ASSERT_EQ(hs.size(), 5u);
  EXPECT_EQ(hs[0].cols(), 8u);
  EXPECT_EQ(bi.parameters().size(), 6u);
}

TEST(BiLstm, IsDirectionSensitive) {
  // Reversing the input sequence must not merely reverse the output
  // sequence (forward and backward passes see different histories).
  rfp::common::Rng rng(15);
  BiLstm bi("b", 2, 3, rng);
  rfp::common::Rng dataRng(16);
  auto xs = randomSequence(4, 1, 2, dataRng);
  const auto hs = bi.forward(xs);
  std::vector<Matrix> reversed(xs.rbegin(), xs.rend());
  const auto hsRev = bi.forward(reversed);
  EXPECT_GT(hs.front().maxAbsDiff(hsRev.back()), 1e-6);
}

TEST(BiLstm, GradientCheckAllParameters) {
  rfp::common::Rng rng(17);
  BiLstm bi("b", 2, 2, rng);
  rfp::common::Rng dataRng(18);
  const auto xs = randomSequence(4, 2, 2, dataRng);

  auto lossFn = [&]() { return halfSumSquares(bi.forward(xs)); };

  zeroGradients(bi.parameters());
  const auto hs = bi.forward(xs);
  bi.backward(hs);

  for (Parameter* p : bi.parameters()) {
    const auto result = checkGradient(*p, lossFn, 1e-6, 2e-5);
    EXPECT_TRUE(result.passed) << p->name << " rel " << result.maxRelError;
  }
}

TEST(BiLstm, InputGradientMatchesNumeric) {
  rfp::common::Rng rng(19);
  BiLstm bi("b", 2, 2, rng);
  rfp::common::Rng dataRng(20);
  auto xs = randomSequence(3, 1, 2, dataRng);

  zeroGradients(bi.parameters());
  const auto hs = bi.forward(xs);
  const auto dxs = bi.backward(hs);

  const double eps = 1e-6;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    for (std::size_t j = 0; j < xs[t].cols(); ++j) {
      auto xp = xs;
      xp[t](0, j) += eps;
      auto xm = xs;
      xm[t](0, j) -= eps;
      const double numeric = (halfSumSquares(bi.forward(xp)) -
                              halfSumSquares(bi.forward(xm))) /
                             (2.0 * eps);
      EXPECT_NEAR(dxs[t](0, j), numeric, 2e-5);
    }
  }
}

bool bitIdentical(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        std::memcmp(a[i].data().data(), b[i].data().data(),
                    a[i].data().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct BiLstmPass {
  std::vector<Matrix> outs, dXs, grads;
};

/// A fresh BiLstm's outputs, input gradients and parameter gradients from
/// its second pass on a pool of \p threads: the first pass at a shape runs
/// the directions inline, so only later passes run them as pool tasks.
BiLstmPass biLstmPass(std::size_t threads) {
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(23);
  BiLstm bi("b", 6, 16, rng);
  rfp::common::Rng dataRng(24);
  const auto xs = randomSequence(9, 8, 6, dataRng);
  const auto dHs = randomSequence(9, 8, 32, dataRng);
  BiLstmPass out;
  for (int pass = 0; pass < 2; ++pass) {
    zeroGradients(bi.parameters());
    out.outs = bi.forward(xs);
    out.dXs = bi.backward(dHs);
  }
  for (const Parameter* p : bi.parameters()) out.grads.push_back(p->grad);
  rfp::common::ThreadPool::setGlobalThreads(0);
  return out;
}

TEST(BiLstm, BitIdenticalAcrossThreadCounts) {
  const BiLstmPass serial = biLstmPass(1);
  ASSERT_EQ(serial.grads.size(), 6u);
  for (std::size_t threads : {2ul, 4ul}) {
    const BiLstmPass pooled = biLstmPass(threads);
    EXPECT_TRUE(bitIdentical(serial.outs, pooled.outs)) << threads;
    EXPECT_TRUE(bitIdentical(serial.dXs, pooled.dXs)) << threads;
    EXPECT_TRUE(bitIdentical(serial.grads, pooled.grads)) << threads;
  }
}

TEST(BiLstm, PooledPassThrowsTheSerialException) {
  rfp::common::ThreadPool::setGlobalThreads(4);
  rfp::common::Rng rng(25);
  BiLstm bi("b", 3, 4, rng);
  rfp::common::Rng dataRng(26);
  const auto xs = randomSequence(5, 2, 3, dataRng);
  const auto dHs = randomSequence(5, 2, 8, dataRng);
  bi.forward(xs);
  bi.backward(dHs);
  // A shorter forward leaves dHs one step too long for both directions;
  // backward's shape is unchanged, so the directions run as pool tasks.
  bi.forward(randomSequence(4, 2, 3, dataRng));
  EXPECT_THROW(bi.backward(dHs), std::invalid_argument);
  rfp::common::ThreadPool::setGlobalThreads(0);
}

}  // namespace
}  // namespace rfp::nn
