#include "linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/cpuid.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "linalg/gemm_kernels.h"

namespace rfp::linalg {

using rfp::common::simd::KernelLevel;

namespace {

// Per-worker work floor [FLOP] for splitting a product across the pool: a
// worker's share of row panels must outweigh its wake-up and join several
// times over. Set on a 4-core AVX-512 host against the queue-based pool
// this one replaced, whose fork/join cost 25-50 us; 4 MFLOP is about
// 150 us of micro-tile work, and a 128^3 product (4.2 MFLOP) split in two
// ran slower than inline there. Purely a performance threshold: the
// inline and pooled paths produce identical bits.
constexpr std::size_t kPooledFlopsPerWorker = 1u << 22;

/// Pool workers a tiled product is split across: one share of row panels
/// each, every share at least kPooledFlopsPerWorker. 0 or 1 means inline.
std::size_t pooledWorkers(std::size_t m, std::size_t n, std::size_t k,
                          std::size_t threads, std::size_t mr) {
  const std::size_t rowPanels = (m + mr - 1) / mr;
  return std::min({threads, rowPanels, 2 * m * n * k / kPooledFlopsPerWorker});
}

std::atomic<int> g_kernel{static_cast<int>(GemmKernel::kTiled)};

/// The dispatch registry row tiledGemm runs with: the level's micro-tile
/// extents (which fix the packing strides) and its kernel function.
struct MicroKernelEntry {
  GemmLevelInfo info;
  detail::MicroKernelFn fn = nullptr;
};

/// Registry keyed by KernelLevel. The SSE2 baseline is always present;
/// the vector rows exist only in x86 builds and are runtime-gated by
/// cpuid before selection.
MicroKernelEntry microKernelForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return {{KernelLevel::kAvx512, 8, 8}, &detail::microKernelAvx512};
    case KernelLevel::kAvx2Fma:
      return {{KernelLevel::kAvx2Fma, 4, 4}, &detail::microKernelAvx2};
    case KernelLevel::kSse2:
      break;
  }
#endif
  return {{KernelLevel::kSse2, 4, 4}, &detail::microKernelSse2};
}

/// N-dimension block size: how many output columns share one packed B
/// panel. Tunable via RFP_GEMM_NC (rounded up to a multiple of the active
/// level's nr, clamped to [nr, 8192]); perf-only, never affects results.
std::size_t resolveNc(std::size_t nrMax) {
  static const std::size_t raw = [] {
    const auto parsed = common::parsePositiveEnv(std::getenv("RFP_GEMM_NC"));
    return std::min<std::size_t>(parsed.value_or(256), 8192);
  }();
  const std::size_t rounded = ((raw + nrMax - 1) / nrMax) * nrMax;
  return std::clamp<std::size_t>(rounded, nrMax, 8192);
}

/// Packs op(A) rows [i0, i0+mr) into ap as K consecutive mrMax-wide column
/// slivers: ap[k * mrMax + ir] = op(A)(i0 + ir, k). Lanes ir >= mr are
/// zeroed; they feed accumulators that are never written back.
void packA(std::vector<double>& ap, const Matrix& a, bool transA,
           std::size_t i0, std::size_t mr, std::size_t kDim,
           std::size_t mrMax) {
  if (ap.size() < kDim * mrMax) ap.resize(kDim * mrMax);
  double* dst = ap.data();
  if (mr < mrMax) std::fill(dst, dst + kDim * mrMax, 0.0);
  if (!transA) {
    const std::size_t lda = a.cols();
    const double* base = a.data().data();
    for (std::size_t ir = 0; ir < mr; ++ir) {
      const double* src = base + (i0 + ir) * lda;
      for (std::size_t k = 0; k < kDim; ++k) dst[k * mrMax + ir] = src[k];
    }
  } else {
    const std::size_t lda = a.cols();
    const double* base = a.data().data();
    for (std::size_t k = 0; k < kDim; ++k) {
      const double* src = base + k * lda + i0;
      for (std::size_t ir = 0; ir < mr; ++ir) dst[k * mrMax + ir] = src[ir];
    }
  }
}

/// Packs op(B) columns [j0, j0+jb) into bp as ceil(jb/nrMax) panels, each K
/// consecutive nrMax-wide row slivers: bp[(jp * K + k) * nrMax + jr] =
/// op(B)(k, j0 + jp * nrMax + jr). Edge lanes are zeroed.
void packB(std::vector<double>& bp, const Matrix& b, bool transB,
           std::size_t j0, std::size_t jb, std::size_t kDim,
           std::size_t nrMax) {
  const std::size_t panels = (jb + nrMax - 1) / nrMax;
  if (bp.size() < panels * kDim * nrMax) bp.resize(panels * kDim * nrMax);
  const std::size_t ldb = b.cols();
  const double* base = b.data().data();
  for (std::size_t jp = 0; jp < panels; ++jp) {
    double* dst = bp.data() + jp * kDim * nrMax;
    const std::size_t nr = std::min(nrMax, jb - jp * nrMax);
    if (nr < nrMax) std::fill(dst, dst + kDim * nrMax, 0.0);
    if (!transB) {
      for (std::size_t k = 0; k < kDim; ++k) {
        const double* src = base + k * ldb + j0 + jp * nrMax;
        for (std::size_t jr = 0; jr < nr; ++jr) dst[k * nrMax + jr] = src[jr];
      }
    } else {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        const double* src = base + (j0 + jp * nrMax + jr) * ldb;
        for (std::size_t k = 0; k < kDim; ++k) dst[k * nrMax + jr] = src[k];
      }
    }
  }
}

// Packing scratch: the thread's own unless a ScopedGemmScratch bound one.
// Each participant packs its own A panels; the B panel is packed once per
// column block by the calling thread and read by all of them (parallelFor's
// fork/join gives the happens-before edge).
thread_local GemmScratch tlsOwnScratch;
thread_local GemmScratch* tlsScratch = &tlsOwnScratch;

/// Rows \p rows of C += alpha * op(A) * op(B) in packed micro-tiles, the
/// range's row panels split into \p workers contiguous shares. Panels
/// start at rows.begin, so they need not align to mr: packA reads op(A)
/// from any row. \p bPacked, when non-null, holds all of op(B) packed by
/// packB over the full N extent (a PackedB). Column blocks start on panel
/// boundaries (nc is a multiple of nrMax), so block j0's panels are that
/// buffer's panels from j0 / nrMax on -- the same bytes packB would write
/// for the block.
void tiledGemm(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
               bool transA, bool transB, double alpha,
               const MicroKernelEntry& kernel, std::size_t workers,
               const double* bPacked) {
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  if (rows.size() == 0 || n == 0) return;

  const std::size_t mrMax = kernel.info.mr;
  const std::size_t nrMax = kernel.info.nr;
  const std::size_t ldc = n;
  double* cBase = c.data().data();
  const std::size_t rowPanels = (rows.size() + mrMax - 1) / mrMax;
  const std::size_t nc = resolveNc(nrMax);

  for (std::size_t j0 = 0; j0 < n; j0 += nc) {
    const std::size_t jb = std::min(nc, n - j0);
    const double* bPack = nullptr;
    if (bPacked != nullptr) {
      bPack = bPacked + (j0 / nrMax) * kDim * nrMax;
    } else {
      std::vector<double>& own = tlsScratch->b;
      packB(own, b, transB, j0, jb, kDim, nrMax);
      bPack = own.data();
    }
    const std::size_t colPanels = (jb + nrMax - 1) / nrMax;

    auto rowPanel = [&](std::size_t p) {
      const std::size_t i0 = rows.begin + p * mrMax;
      const std::size_t mr = std::min(mrMax, rows.end - i0);
      std::vector<double>& aBuf = tlsScratch->a;
      packA(aBuf, a, transA, i0, mr, kDim, mrMax);
      const double* aPack = aBuf.data();
      for (std::size_t jp = 0; jp < colPanels; ++jp) {
        const std::size_t nr = std::min(nrMax, jb - jp * nrMax);
        kernel.fn(cBase + i0 * ldc + j0 + jp * nrMax, ldc, aPack,
                  bPack + jp * kDim * nrMax, kDim, mr, nr, alpha);
      }
    };

    const std::size_t parts = std::max<std::size_t>(workers, 1);
    common::ThreadPool::global().parallelFor(0, parts, [&](std::size_t w) {
      const std::size_t end = rowPanels * (w + 1) / parts;
      for (std::size_t p = rowPanels * w / parts; p < end; ++p) rowPanel(p);
    });
  }
}

/// Direct kernel for tiny products (the tracker's 4x4 Kalman algebra,
/// innovation solves, assignment costs). Runs the exact per-element
/// accumulation chain of the active level's micro-tile -- k-ascending
/// separate mul+add at the SSE2 baseline, one k-ascending std::fma chain
/// in the FMA regime -- against op()-indexed operands, so the bits match
/// tiledGemm while skipping the packing round-trip (and its thread-local
/// buffer traffic), which dominates below one tile of work.
void directGemm(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
                bool transA, bool transB, double alpha, bool fmaChain) {
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  const std::size_t lda = a.cols();
  const std::size_t ldb = b.cols();
  double* cd = c.data().data();
  for (std::size_t i = rows.begin; i < rows.end; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      if (fmaChain) {
        for (std::size_t k = 0; k < kDim; ++k) {
          const double av = transA ? ad[k * lda + i] : ad[i * lda + k];
          const double bv = transB ? bd[j * ldb + k] : bd[k * ldb + j];
          acc = std::fma(av, bv, acc);
        }
      } else {
        for (std::size_t k = 0; k < kDim; ++k) {
          const double av = transA ? ad[k * lda + i] : ad[i * lda + k];
          const double bv = transB ? bd[j * ldb + k] : bd[k * ldb + j];
          acc += av * bv;
        }
      }
      cd[i * n + j] += alpha == 1.0 ? acc : alpha * acc;
    }
  }
}

/// Below this many multiply-adds the packed path is all overhead; one
/// AVX-512 tile's worth (8x8x8). Perf threshold only -- both sides of the
/// cut produce identical bits.
constexpr std::size_t kDirectGemmFlops = 512;

/// Validates the operands of C = op(A) * op(B) and returns the product's
/// shape (m, n).
std::pair<std::size_t, std::size_t> productShape(const Matrix& c,
                                                 const Matrix& a,
                                                 const Matrix& b, bool transA,
                                                 bool transB) {
  const std::size_t kA = transA ? a.rows() : a.cols();
  const std::size_t kB = transB ? b.cols() : b.rows();
  if (kA != kB) {
    throw std::invalid_argument("gemm: inner dimension mismatch");
  }
  if (!c.data().empty() &&
      (c.data().data() == a.data().data() ||
       c.data().data() == b.data().data())) {
    throw std::invalid_argument("gemm: C must not alias A or B");
  }
  return {transA ? a.cols() : a.rows(), transB ? b.rows() : b.cols()};
}

/// The beta pre-pass over rows \p rows of C. Applying beta in one pass
/// before the product keeps the per-element combine identical between the
/// tiled and naive kernels: C = (beta-scaled C) + alpha * sum.
void applyBeta(Matrix& c, RowRange rows, double beta) {
  double* first = c.data().data() + rows.begin * c.cols();
  double* last = c.data().data() + rows.end * c.cols();
  if (beta == 0.0) {
    std::fill(first, last, 0.0);
  } else if (beta != 1.0) {
    for (double* v = first; v != last; ++v) *v *= beta;
  }
}

/// The full form's validation + beta pre-pass: C is reshaped (zero-filled)
/// when beta == 0 and its shape differs from the product's.
void prepareC(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
              bool transB, double beta) {
  const auto [m, n] = productShape(c, a, b, transA, transB);
  if (c.rows() != m || c.cols() != n) {
    if (beta != 0.0) {
      throw std::invalid_argument(
          "gemm: C shape mismatch with nonzero beta");
    }
    ensureShape(c, m, n);  // resize zero-fills
    return;
  }
  applyBeta(c, {0, m}, beta);
}

/// The row-range form's validation + beta pre-pass over its rows only.
void prepareRows(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
                 bool transA, bool transB, double beta) {
  const auto [m, n] = productShape(c, a, b, transA, transB);
  if (c.rows() != m || c.cols() != n) {
    throw std::invalid_argument(
        "gemm: a row range needs C in the product's shape");
  }
  if (rows.begin > rows.end || rows.end > m) {
    throw std::invalid_argument("gemm: row range outside C");
  }
  applyBeta(c, rows, beta);
}

/// The naive kernel on rows \p rows of C, after the beta pre-pass: the
/// seed's i-k-j loop with its data-dependent `aik == 0.0` skip, summing
/// each row of the product in a temporary before the one per-element add.
void referenceRows(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
                   bool transA, bool transB, double alpha) {
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  std::vector<double> product(n);
  for (std::size_t i = rows.begin; i < rows.end; ++i) {
    std::fill(product.begin(), product.end(), 0.0);
    for (std::size_t k = 0; k < kDim; ++k) {
      const double aik = transA ? a(k, i) : a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        product[j] += aik * (transB ? b(j, k) : b(k, j));
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      c(i, j) += alpha == 1.0 ? product[j] : alpha * product[j];
    }
  }
}

/// Portable per-element FMA-chain kernel shared by the two FmaRef packing
/// layouts: acc = fma(a_ik, b_kj, acc), k ascending -- exactly the chain
/// the AVX2/AVX-512 tiles run per element.
void microKernelFmaRefImpl(double* c, std::size_t ldc, const double* ap,
                           const double* bp, std::size_t kDim,
                           std::size_t mr, std::size_t nr, double alpha,
                           std::size_t mrMax, std::size_t nrMax) {
  for (std::size_t ir = 0; ir < mr; ++ir) {
    for (std::size_t jr = 0; jr < nr; ++jr) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kDim; ++k) {
        acc = std::fma(ap[k * mrMax + ir], bp[k * nrMax + jr], acc);
      }
      if (alpha == 1.0) {
        c[ir * ldc + jr] += acc;
      } else {
        c[ir * ldc + jr] += alpha * acc;
      }
    }
  }
}

}  // namespace

namespace detail {

void microKernelSse2(double* c, std::size_t ldc, const double* ap,
                     const double* bp, std::size_t kDim, std::size_t mr,
                     std::size_t nr, double alpha) {
  constexpr std::size_t kMr = 4;
  constexpr std::size_t kNr = 4;
  // mr x nr micro-tile: full-K register accumulation (k ascending, one
  // accumulator per element -- the determinism-critical property), then a
  // single `+= alpha * acc` store. Inner loops run the full kMr x kNr tile
  // so the compiler can keep acc in registers and vectorize; padded lanes
  // only feed accumulators that are never stored. Baseline codegen has no
  // FMA instruction, so each step is the seed's separate mul+add rounding.
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kDim; ++k) {
    const double* arow = ap + k * kMr;
    const double* brow = bp + k * kNr;
    for (std::size_t ir = 0; ir < kMr; ++ir) {
      const double av = arow[ir];
      for (std::size_t jr = 0; jr < kNr; ++jr) {
        acc[ir][jr] += av * brow[jr];
      }
    }
  }
  if (alpha == 1.0) {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += acc[ir][jr];
      }
    }
  } else {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += alpha * acc[ir][jr];
      }
    }
  }
}

void microKernelFmaRef4(double* c, std::size_t ldc, const double* ap,
                        const double* bp, std::size_t kDim, std::size_t mr,
                        std::size_t nr, double alpha) {
  microKernelFmaRefImpl(c, ldc, ap, bp, kDim, mr, nr, alpha, 4, 4);
}

void microKernelFmaRef8(double* c, std::size_t ldc, const double* ap,
                        const double* bp, std::size_t kDim, std::size_t mr,
                        std::size_t nr, double alpha) {
  microKernelFmaRefImpl(c, ldc, ap, bp, kDim, mr, nr, alpha, 8, 8);
}

}  // namespace detail

void setGemmKernel(GemmKernel kernel) {
  g_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

GemmKernel gemmKernel() {
  return static_cast<GemmKernel>(g_kernel.load(std::memory_order_relaxed));
}

GemmLevelInfo activeGemmLevelInfo() {
  return microKernelForLevel(common::simd::activeKernelLevel()).info;
}

std::vector<GemmLevelInfo> availableGemmLevels() {
  std::vector<GemmLevelInfo> out;
  for (KernelLevel level : common::simd::availableKernelLevels()) {
    out.push_back(microKernelForLevel(level).info);
  }
  return out;
}

GemmPath gemmPath(std::size_t m, std::size_t n, std::size_t k,
                  std::size_t threads) {
  if (m * n * k <= kDirectGemmFlops) return GemmPath::kDirect;
  return pooledWorkers(m, n, k, threads, activeGemmLevelInfo().mr) > 1
             ? GemmPath::kPooled
             : GemmPath::kInline;
}

namespace {

/// The tiled kernel family's product on rows \p rows of C, after the
/// beta pre-pass: direct loop, inline or pooled packed micro-tiles
/// (gemmPath on the range's row count), with op(B) taken from \p bPacked
/// when non-null.
void tiledProduct(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
                  bool transA, bool transB, double alpha,
                  const MicroKernelEntry& kernel, const double* bPacked) {
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  if (rows.size() * n * kDim <= kDirectGemmFlops) {
    directGemm(c, rows, a, b, transA, transB, alpha,
               kernel.info.level != KernelLevel::kSse2);
    return;
  }
  const std::size_t workers =
      pooledWorkers(rows.size(), n, kDim, common::ThreadPool::global().size(),
                    kernel.info.mr);
  tiledGemm(c, rows, a, b, transA, transB, alpha, kernel, workers, bPacked);
}

}  // namespace

void gemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
          bool transB, double alpha, double beta) {
  prepareC(c, a, b, transA, transB, beta);
  gemm(c, RowRange{0, c.rows()}, a, b, transA, transB, alpha, 1.0);
}

void gemm(Matrix& c, RowRange rows, const Matrix& a, const Matrix& b,
          bool transA, bool transB, double alpha, double beta) {
  prepareRows(c, rows, a, b, transA, transB, beta);
  if (gemmKernel() == GemmKernel::kNaive) {
    referenceRows(c, rows, a, b, transA, transB, alpha);
    return;
  }
  tiledProduct(c, rows, a, b, transA, transB, alpha,
               microKernelForLevel(common::simd::activeKernelLevel()),
               nullptr);
}

ScopedGemmScratch::ScopedGemmScratch(GemmScratch& scratch)
    : previous_(tlsScratch) {
  tlsScratch = &scratch;
}

ScopedGemmScratch::~ScopedGemmScratch() { tlsScratch = previous_; }

void PackedB::pack(const Matrix& b, bool transB) {
  const GemmLevelInfo info = activeGemmLevelInfo();
  const std::size_t kDim = transB ? b.cols() : b.rows();
  const std::size_t n = transB ? b.rows() : b.cols();
  packB(panels_, b, transB, 0, n, kDim, info.nr);
  source_ = &b;
  rows_ = b.rows();
  cols_ = b.cols();
  transB_ = transB;
  level_ = info.level;
}

const Matrix& PackedB::checkedSource() const {
  if (source_ == nullptr) {
    throw std::invalid_argument("gemm: PackedB used before pack()");
  }
  if (source_->rows() != rows_ || source_->cols() != cols_) {
    throw std::logic_error("gemm: PackedB source reshaped since pack()");
  }
  return *source_;
}

void gemm(Matrix& c, const Matrix& a, const PackedB& b, bool transA,
          double alpha, double beta) {
  prepareC(c, a, b.checkedSource(), transA, b.transB_, beta);
  gemm(c, RowRange{0, c.rows()}, a, b, transA, alpha, 1.0);
}

void gemm(Matrix& c, RowRange rows, const Matrix& a, const PackedB& b,
          bool transA, double alpha, double beta) {
  const Matrix& src = b.checkedSource();
  const KernelLevel level = common::simd::activeKernelLevel();
  if (gemmKernel() == GemmKernel::kNaive || level != b.level_) {
    gemm(c, rows, a, src, transA, b.transB_, alpha, beta);
    return;
  }
  prepareRows(c, rows, a, src, transA, b.transB_, beta);
  tiledProduct(c, rows, a, src, transA, b.transB_, alpha,
               microKernelForLevel(level), b.panels_.data());
}

void referenceGemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
                   bool transB, double alpha, double beta) {
  prepareC(c, a, b, transA, transB, beta);
  referenceRows(c, {0, c.rows()}, a, b, transA, transB, alpha);
}

void referenceGemmForLevel(common::simd::KernelLevel level, Matrix& c,
                           const Matrix& a, const Matrix& b, bool transA,
                           bool transB, double alpha, double beta) {
  if (level == KernelLevel::kSse2) {
    referenceGemm(c, a, b, transA, transB, alpha, beta);
    return;
  }
  prepareC(c, a, b, transA, transB, beta);
  // FMA regime: one k-ascending std::fma chain per output element, then
  // the shared `+= alpha * acc` combine. Direct op() indexing -- packing
  // is a pure data movement and cannot change the chain.
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kDim; ++k) {
        const double av = transA ? a(k, i) : a(i, k);
        const double bv = transB ? b(j, k) : b(k, j);
        acc = std::fma(av, bv, acc);
      }
      if (alpha == 1.0) {
        c(i, j) += acc;
      } else {
        c(i, j) += alpha * acc;
      }
    }
  }
}

void axpyInPlace(Matrix& y, double alpha, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("axpyInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto xd = x.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] += alpha * xd[i];
}

void scaleInPlace(Matrix& m, double s) {
  for (double& v : m.data()) v *= s;
}

void hadamardInPlace(Matrix& y, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("hadamardInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto xd = x.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] *= xd[i];
}

void addHadamardInPlace(Matrix& y, const Matrix& a, const Matrix& b) {
  if (y.rows() != a.rows() || y.cols() != a.cols() || a.rows() != b.rows() ||
      a.cols() != b.cols()) {
    throw std::invalid_argument("addHadamardInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] += ad[i] * bd[i];
}

void addRowBroadcastInPlace(Matrix& m, const Matrix& row) {
  if (row.rows() != 1 || row.cols() != m.cols()) {
    throw std::invalid_argument("addRowBroadcastInPlace: row shape mismatch");
  }
  const double* r = row.data().data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* dst = m.data().data() + i * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) dst[c] += r[c];
  }
}

void ensureShape(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() == rows && m.cols() == cols) return;
  m.resize(rows, cols);
}

}  // namespace rfp::linalg
