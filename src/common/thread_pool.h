#pragma once

/// \file thread_pool.h
/// Shared fork/join pool driving the simulation hot paths (beat-signal
/// synthesis, range FFT + beamforming, multipath image expansion), the
/// training step (large GEMMs, the Bi-LSTM's two directions, the stacked
/// LSTM's layer wavefront) and the fleet's per-epoch tasks.
///
/// Determinism contract (DESIGN.md Sec. 8). The pool never owns
/// randomness and never influences numeric results: callers hand it
/// index ranges whose iterations write to disjoint outputs, and every
/// random draw inside a parallel region comes from a counter-based
/// stream keyed by the loop index (common/det_hash.h), not from a shared
/// sequential engine. Output is therefore bit-identical at any thread
/// count, including the inline single-thread fallback.
///
/// Execution (DESIGN.md Sec. 8). A pool of size N owns N - 1 workers and
/// one job slot; the woken workers and the calling thread claim a job's
/// static chunks from one atomic word, and the chunked path allocates
/// nothing. A pool of size 1 spawns no threads and runs every loop inline.
///
/// Ascending-claim contract (DESIGN.md Sec. 8). Chunks are claimed in
/// ascending index order, each by one thread that runs it to the end
/// before claiming another, and every inline fallback runs the indices in
/// ascending order. So body(i) may block until body(j) for some j < i
/// has made progress -- the stacked LSTM's layer wavefront does -- and
/// the loop still completes at any pool size, with a busy slot and when
/// nested. Waiting on a later index can deadlock and is not allowed.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rfp::common {

/// Thrown by parallelFor when more than one chunk failed. The single-failure
/// case rethrows the original exception unchanged (type-preserving); with
/// several failures the first alone would silently swallow the rest, so they
/// are aggregated here with an explicit count and the first few reasons.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::string message, std::size_t failureCount)
      : std::runtime_error(std::move(message)), failureCount_(failureCount) {}

  /// Number of chunks that threw (>= 2 by construction).
  std::size_t failureCount() const { return failureCount_; }

 private:
  std::size_t failureCount_;
};

/// Fixed-size fork/join pool with a single job slot.
///
/// Thread-safety: parallelFor() may be called concurrently from different
/// threads -- a caller that finds the slot taken runs its loop inline;
/// construction, destruction, and the global-pool management calls
/// (setGlobalThreads) must not race with parallelFor.
class ThreadPool {
  /// Type-erased loop over [lo, hi) of the body at \p ctx.
  using ChunkFn = void (*)(const void* ctx, std::size_t lo, std::size_t hi);

 public:
  /// Sizes the pool at \p threads (0 means resolveThreadCount()) and
  /// spawns threads - 1 workers; the calling thread of each job is the
  /// last participant. A pool of size 1 spawns nothing.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads a job runs on (>= 1).
  std::size_t size() const { return size_; }

  /// Runs body(i) for every i in [begin, end) and blocks until all
  /// iterations finished. The range is split into min(size, range) static
  /// chunks [begin + range*c/N, begin + range*(c+1)/N). Iterations must
  /// write to disjoint state. Exceptions are aggregated after every chunk
  /// has settled: one failing chunk rethrows its original exception
  /// unchanged; several failing chunks throw ParallelForError carrying the
  /// failure count (no failure is dropped silently). Runs inline
  /// (deterministically, in index order) when the pool has size 1, the
  /// range is a single index, the caller is itself running a chunk of some
  /// pool's job (nested parallelism degrades to serial instead of
  /// deadlocking), or another thread's job holds the slot. Under the
  /// ascending-claim contract above, an iteration may wait on an earlier
  /// one, never on a later one.
  template <typename Body>
  void parallelFor(std::size_t begin, std::size_t end, const Body& body) {
    const ChunkFn chunk = [](const void* ctx, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) (*static_cast<const Body*>(ctx))(i);
    };
    if (forkJoin(chunk, &body, begin, end)) return;
    for (std::size_t i = begin; i < end; ++i) body(i);
  }

  /// Size a default-constructed pool would use: `RFP_THREADS` when set to
  /// a positive integer (clamped to 256; signed, zero or unparsable values
  /// are ignored, common/env.h), else hardware_concurrency, floored at 1.
  static std::size_t resolveThreadCount();

  /// Process-wide pool shared by the simulation hot paths. Created on
  /// first use with resolveThreadCount() threads.
  static ThreadPool& global();

  /// Replaces the global pool with one of \p threads threads (0 =
  /// re-resolve from the environment). Joins the old pool first; must not
  /// be called while other threads use the global pool. Intended for
  /// benches and tests that sweep thread counts.
  static void setGlobalThreads(std::size_t threads);

 private:
  /// Runs [begin, end) chunked on the workers and this thread and returns
  /// true, or returns false without running anything when the loop runs
  /// inline instead.
  bool forkJoin(ChunkFn fn, const void* ctx, std::size_t begin,
                std::size_t end);

  struct Impl;
  void runWorker(std::size_t index);

  std::size_t size_ = 1;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> workers_;
};

}  // namespace rfp::common
