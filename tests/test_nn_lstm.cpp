#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>

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
  // The per-step API rejects a step past the begun sequence or pass, and
  // rows past the batch.
  lstm.forwardBegin(2, 1);
  EXPECT_THROW(lstm.forwardStep(2, Matrix(1, 3), {0, 1}), std::out_of_range);
  EXPECT_THROW(lstm.backwardStep(0, Matrix(1, 4), {0, 1}), std::out_of_range);
  EXPECT_THROW(lstm.forwardStep(0, Matrix(1, 3), {0, 2}), std::out_of_range);
}

TEST(Lstm, SecondBackwardWithoutForwardThrows) {
  rfp::common::Rng rng(36);
  Lstm lstm("l", 3, 4, rng);
  rfp::common::Rng dataRng(37);
  const auto xs = randomSequence(4, 2, 3, dataRng);
  const auto dHs = randomSequence(4, 2, 4, dataRng);
  lstm.forward(xs);
  const auto dXs = lstm.backward(dHs);
  // Backward wrote its gate gradients over the forward cache.
  EXPECT_THROW(lstm.backward(dHs), std::logic_error);
  // A new forward makes the pass whole again.
  lstm.forward(xs);
  EXPECT_TRUE(lstm.backward(dHs)[0].approxEquals(dXs[0], 0.0));
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

/// The former one-op-per-pass LSTM cell, composed from sliceCols,
/// sigmoidInPlace, hadamardInPlace and friends: the reference the fused
/// cell must reproduce bit for bit.
struct ComposedLstm {
  Matrix wx, wh, b;
  std::size_t h;
  struct Step {
    Matrix x, hPrev, cPrev, i, f, g, o, c, tanhC;
  };
  std::vector<Step> steps;
  Matrix wxGrad, whGrad, bGrad;

  std::vector<Matrix> forward(const std::vector<Matrix>& xs) {
    const std::size_t batch = xs.front().rows();
    Matrix hPrev(batch, h);
    Matrix cPrev(batch, h);
    std::vector<Matrix> hs;
    steps.clear();
    for (const Matrix& x : xs) {
      Matrix a;
      gemm(a, x, wx);
      gemm(a, hPrev, wh, false, false, 1.0, 1.0);
      addRowBroadcastInPlace(a, b);
      Step s;
      s.x = x;
      s.hPrev = hPrev;
      s.cPrev = cPrev;
      s.i = sliceCols(a, 0, h);
      sigmoidInPlace(s.i);
      s.f = sliceCols(a, h, 2 * h);
      sigmoidInPlace(s.f);
      s.g = sliceCols(a, 2 * h, 3 * h);
      tanhInPlace(s.g);
      s.o = sliceCols(a, 3 * h, 4 * h);
      sigmoidInPlace(s.o);
      s.c = s.f;
      hadamardInPlace(s.c, s.cPrev);
      addHadamardInPlace(s.c, s.i, s.g);
      s.tanhC = s.c;
      tanhInPlace(s.tanhC);
      Matrix hOut = s.o;
      hadamardInPlace(hOut, s.tanhC);
      hPrev = hOut;
      cPrev = s.c;
      hs.push_back(hOut);
      steps.push_back(s);
    }
    return hs;
  }

  std::vector<Matrix> backward(const std::vector<Matrix>& dHs) {
    const std::size_t batch = dHs.front().rows();
    wxGrad = Matrix(wx.rows(), wx.cols());
    whGrad = Matrix(wh.rows(), wh.cols());
    bGrad = Matrix(1, 4 * h);
    Matrix dhNext(batch, h);
    Matrix dcNext(batch, h);
    std::vector<Matrix> dXs(steps.size());
    for (std::size_t t = steps.size(); t-- > 0;) {
      const Step& s = steps[t];
      Matrix dh = dHs[t];
      dh += dhNext;
      Matrix dOut = dh;
      hadamardInPlace(dOut, s.tanhC);
      Matrix dTanhC = s.tanhC;
      for (double& v : dTanhC.data()) v = 1.0 - v * v;
      Matrix dcTmp = dh;
      hadamardInPlace(dcTmp, s.o);
      hadamardInPlace(dcTmp, dTanhC);
      Matrix dc = dcNext;
      dc += dcTmp;
      Matrix dI = dc;
      hadamardInPlace(dI, s.g);
      Matrix dG = dc;
      hadamardInPlace(dG, s.i);
      Matrix dF = dc;
      hadamardInPlace(dF, s.cPrev);
      dcNext = dc;
      hadamardInPlace(dcNext, s.f);
      sigmoidBackwardInPlace(dI, s.i);
      sigmoidBackwardInPlace(dF, s.f);
      tanhBackwardInPlace(dG, s.g);
      sigmoidBackwardInPlace(dOut, s.o);
      Matrix da(batch, 4 * h);
      for (std::size_t r = 0; r < batch; ++r) {
        for (std::size_t c = 0; c < h; ++c) {
          da(r, c) = dI(r, c);
          da(r, h + c) = dF(r, c);
          da(r, 2 * h + c) = dG(r, c);
          da(r, 3 * h + c) = dOut(r, c);
        }
      }
      gemm(wxGrad, s.x, da, true, false, 1.0, 1.0);
      gemm(whGrad, s.hPrev, da, true, false, 1.0, 1.0);
      bGrad += colSums(da);
      gemm(dXs[t], da, wx, false, true);
      gemm(dhNext, da, wh, false, true);
    }
    return dXs;
  }
};

bool bitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool bitIdentical(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bitIdentical(a[i], b[i])) return false;
  }
  return true;
}

TEST(Lstm, FusedCellMatchesComposedOps) {
  rfp::common::Rng rng(31);
  Lstm lstm("l", 4, 5, rng);
  rfp::common::Rng dataRng(32);
  const auto xs = randomSequence(4, 3, 4, dataRng);
  const auto dHs = randomSequence(4, 3, 5, dataRng);
  // Biases away from the forget-gate default, so every gate's bias add
  // is exercised with nonzero values.
  const ParameterList params = lstm.parameters();
  fillGaussian(params[2]->value, dataRng);

  ComposedLstm ref{params[0]->value, params[1]->value, params[2]->value, 5,
                   {}, {}, {}, {}};
  const auto refHs = ref.forward(xs);
  const auto refDxs = ref.backward(dHs);

  zeroGradients(params);
  const auto hs = lstm.forward(xs);
  const auto dxs = lstm.backward(dHs);
  EXPECT_TRUE(bitIdentical(hs, refHs));
  EXPECT_TRUE(bitIdentical(dxs, refDxs));
  EXPECT_TRUE(bitIdentical(params[0]->grad, ref.wxGrad));
  EXPECT_TRUE(bitIdentical(params[1]->grad, ref.whGrad));
  EXPECT_TRUE(bitIdentical(params[2]->grad, ref.bGrad));
}

struct StackPass {
  std::vector<Matrix> outs, dXs, grads;
  double nextDraw = 0.0;  ///< the caller's RNG after the forward
};

/// A fresh 3-layer training-mode StackedLstm's outputs, input gradients,
/// parameter gradients and post-forward RNG state from its second pass at
/// \p batch rows on a pool of \p threads: the first pass at a shape runs
/// the layers one after the other, later ones as a wavefront of
/// (layer, row block) lanes, threads / 2 blocks capped by the batch. On a
/// 2-thread pool one chunk holds two lanes; on 8 threads 17 rows make 4
/// blocks of 4 or 5 rows.
StackPass stackPass(std::size_t threads, std::size_t batch) {
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(27);
  StackedLstm stack("s", 6, 16, 3, 0.5, rng);
  rfp::common::Rng dataRng(28);
  const auto xs = randomSequence(9, batch, 6, dataRng);
  const auto dHs = randomSequence(9, batch, 16, dataRng);
  StackPass out;
  rfp::common::Rng dropRng(29);
  for (int pass = 0; pass < 2; ++pass) {
    zeroGradients(stack.parameters());
    out.outs = stack.forward(xs, true, dropRng);
    out.dXs = stack.backward(dHs);
  }
  out.nextDraw = dropRng.uniform(0.0, 1.0);
  for (const Parameter* p : stack.parameters()) out.grads.push_back(p->grad);
  rfp::common::ThreadPool::setGlobalThreads(0);
  return out;
}

TEST(StackedLstm, BitIdenticalAcrossThreadCounts) {
  // The wavefront runs only while no layer's per-step products are
  // pooled; pin that for this shape so the comparison stays a
  // wavefront-vs-serial one.
  rfp::common::Rng probeRng(30);
  const Lstm probe("p", 16, 16, probeRng);
  ASSERT_FALSE(probe.stepProductsPooled(17, 8));

  for (std::size_t batch : {1ul, 3ul, 8ul, 17ul}) {
    const StackPass serial = stackPass(1, batch);
    ASSERT_EQ(serial.grads.size(), 9u);
    for (std::size_t threads : {2ul, 4ul, 8ul}) {
      const StackPass pooled = stackPass(threads, batch);
      EXPECT_TRUE(bitIdentical(serial.outs, pooled.outs))
          << threads << " threads, batch " << batch;
      EXPECT_TRUE(bitIdentical(serial.dXs, pooled.dXs))
          << threads << " threads, batch " << batch;
      EXPECT_TRUE(bitIdentical(serial.grads, pooled.grads))
          << threads << " threads, batch " << batch;
      EXPECT_EQ(serial.nextDraw, pooled.nextDraw)
          << threads << " threads, batch " << batch;
    }
  }
}

/// what() of the exception \p pass throws, or "" when it throws none.
template <typename Pass>
std::string thrownMessage(const Pass& pass) {
  try {
    pass();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The messages a sized stack of \p layers throws on a pool of \p threads
/// for a forward with a bad input at step 2 and then a backward with a bad
/// gradient at step 2; after both it must still run a clean pass. With
/// three layers the middle one stops on its predecessor's failure without
/// throwing, and the top one must still be released. Its 5 rows make 2
/// row blocks per layer on 4 threads and 4 on 8.
std::vector<std::string> wavefrontFailures(std::size_t layers,
                                           std::size_t threads) {
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(33);
  StackedLstm stack("s", 3, 4, layers, 0.5, rng);
  rfp::common::Rng dataRng(34);
  const auto xs = randomSequence(5, 5, 3, dataRng);
  const auto dHs = randomSequence(5, 5, 4, dataRng);
  rfp::common::Rng dropRng(35);
  stack.forward(xs, true, dropRng);
  stack.backward(dHs);

  auto badXs = xs;
  badXs[2] = Matrix(5, 7);
  auto badDHs = dHs;
  badDHs[2] = Matrix(5, 9);
  std::vector<std::string> messages;
  messages.push_back(
      thrownMessage([&] { stack.forward(badXs, true, dropRng); }));
  stack.forward(xs, true, dropRng);
  messages.push_back(thrownMessage([&] { stack.backward(badDHs); }));
  stack.forward(xs, true, dropRng);
  stack.backward(dHs);
  rfp::common::ThreadPool::setGlobalThreads(0);
  return messages;
}

TEST(StackedLstm, WavefrontThrowsTheSerialExceptionWithoutHanging) {
  for (std::size_t layers : {2ul, 3ul}) {
    const std::vector<std::string> serial = wavefrontFailures(layers, 1);
    ASSERT_EQ(serial.size(), 2u);
    EXPECT_NE(serial[0], "") << layers;
    EXPECT_NE(serial[1], "") << layers;
    for (std::size_t threads : {2ul, 4ul, 8ul}) {
      // A waiting layer that missed its hand-off would block forever, and
      // the blocked pool could never be joined: end the process so a hang
      // fails here rather than at the suite timeout.
      auto pooled = std::async(std::launch::async, [=] {
        return wavefrontFailures(layers, threads);
      });
      if (pooled.wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        std::fprintf(stderr,
                     "the %zu-layer wavefront hung after a failing layer on "
                     "%zu threads\n",
                     layers, threads);
        std::_Exit(1);
      }
      EXPECT_EQ(pooled.get(), serial) << layers << " layers, " << threads;
    }
  }
}

struct BiLstmPass {
  std::vector<Matrix> outs, dXs, grads;
};

/// A fresh BiLstm's outputs, input gradients and parameter gradients from
/// its second pass at \p batch rows on a pool of \p threads: the first
/// pass at a shape runs the lanes inline, later passes run each
/// (direction, row block) pair as a pool lane.
BiLstmPass biLstmPass(std::size_t threads, std::size_t batch) {
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(23);
  BiLstm bi("b", 6, 16, rng);
  rfp::common::Rng dataRng(24);
  const auto xs = randomSequence(9, batch, 6, dataRng);
  const auto dHs = randomSequence(9, batch, 32, dataRng);
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
  for (std::size_t batch : {1ul, 3ul, 8ul, 17ul}) {
    const BiLstmPass serial = biLstmPass(1, batch);
    ASSERT_EQ(serial.grads.size(), 6u);
    for (std::size_t threads : {2ul, 4ul, 8ul}) {
      const BiLstmPass pooled = biLstmPass(threads, batch);
      EXPECT_TRUE(bitIdentical(serial.outs, pooled.outs))
          << threads << " threads, batch " << batch;
      EXPECT_TRUE(bitIdentical(serial.dXs, pooled.dXs))
          << threads << " threads, batch " << batch;
      EXPECT_TRUE(bitIdentical(serial.grads, pooled.grads))
          << threads << " threads, batch " << batch;
    }
  }
}

/// The messages a sized BiLstm throws on a pool of \p threads for a
/// forward with a bad input at step 2, a backward whose gradient at step 2
/// has too few rows, and a backward one step longer than its forward;
/// after each it must still run a clean pass. Its 5 rows make 2 row blocks
/// per direction on 4 threads and 4 on 8, so the first two fail inside
/// row-block lanes.
std::vector<std::string> biLstmFailures(std::size_t threads) {
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(25);
  BiLstm bi("b", 3, 4, rng);
  rfp::common::Rng dataRng(26);
  const auto xs = randomSequence(5, 5, 3, dataRng);
  const auto dHs = randomSequence(5, 5, 8, dataRng);
  bi.forward(xs);
  bi.backward(dHs);

  auto badXs = xs;
  badXs[2] = Matrix(5, 7);
  auto badDHs = dHs;
  badDHs[2] = Matrix(4, 8);
  std::vector<std::string> messages;
  messages.push_back(thrownMessage([&] { bi.forward(badXs); }));
  bi.forward(xs);
  messages.push_back(thrownMessage([&] { bi.backward(badDHs); }));
  bi.forward(randomSequence(4, 5, 3, dataRng));
  messages.push_back(thrownMessage([&] { bi.backward(dHs); }));
  bi.forward(xs);
  bi.backward(dHs);
  rfp::common::ThreadPool::setGlobalThreads(0);
  return messages;
}

TEST(BiLstm, PooledPassThrowsTheSerialException) {
  const std::vector<std::string> serial = biLstmFailures(1);
  ASSERT_EQ(serial.size(), 3u);
  for (const std::string& message : serial) EXPECT_NE(message, "");
  for (std::size_t threads : {2ul, 4ul, 8ul}) {
    EXPECT_EQ(biLstmFailures(threads), serial) << threads;
  }
}

}  // namespace
}  // namespace rfp::nn
