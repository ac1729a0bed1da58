#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"

namespace rfp::common {

namespace {

/// True while this thread runs chunks of some pool's job (always on
/// workers, during its own job on a caller): nested parallelFor calls run
/// inline instead of waiting on a slot only this job can free.
thread_local bool tlsInsideJob = false;

}  // namespace

struct ThreadPool::Impl {
  explicit Impl(std::size_t threads) : wake(threads - 1), failures(threads) {}

  std::mutex mutex;
  std::vector<std::condition_variable> wake;  ///< one per worker
  std::condition_variable done;               ///< active reached 0

  // Guarded by `mutex`, except that the threads inside a job use the job
  // and the failure slots unlocked between joining and leaving it.
  bool busy = false;  ///< a caller owns the slot
  struct Job {
    ChunkFn fn = nullptr;
    const void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t range = 0;
    std::size_t chunks = 0;
  } job;
  std::uint64_t generation = 0;  ///< bumped per job
  bool open = false;             ///< joinable; closed once all are claimed
  std::size_t active = 0;        ///< workers inside the job
  bool stopping = false;

  std::vector<std::exception_ptr> failures;  ///< one slot per chunk
  std::atomic<std::size_t> next{0};          ///< the claim word

  void claimChunks() {
    const Job& j = job;
    for (std::size_t c = next++; c < j.chunks; c = next++) {
      try {
        j.fn(j.ctx, j.begin + j.range * c / j.chunks,
             j.begin + j.range * (c + 1) / j.chunks);
      } catch (...) {
        failures[c] = std::current_exception();
      }
    }
  }

  /// The job's outcome -- null, the one failure unchanged, or an
  /// aggregate -- leaving every slot empty for the next job.
  std::exception_ptr takeFailures() {
    constexpr std::size_t kMaxQuoted = 3;
    std::size_t failed = 0;
    std::exception_ptr first;
    std::string reasons;
    for (std::size_t c = 0; c < job.chunks; ++c) {
      const std::exception_ptr e = std::exchange(failures[c], nullptr);
      if (!e) continue;
      if (failed == 0) first = e;
      if (failed < kMaxQuoted) {
        reasons += "; [" + std::to_string(failed) + "] ";
        try {
          std::rethrow_exception(e);
        } catch (const std::exception& x) {
          reasons += x.what();
        } catch (...) {
          reasons += "<non-standard>";
        }
      }
      ++failed;
    }
    if (failed < 2) return first;
    if (failed > kMaxQuoted) reasons += "; ...";
    return std::make_exception_ptr(ParallelForError(
        "parallelFor: " + std::to_string(failed) + " of " +
            std::to_string(job.chunks) + " chunks failed" + reasons,
        failed));
  }
};

std::size_t ThreadPool::resolveThreadCount() {
  if (const auto parsed = parsePositiveEnv(std::getenv("RFP_THREADS"))) {
    return std::min<std::size_t>(*parsed, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? resolveThreadCount() : threads),
      impl_(std::make_unique<Impl>(size_)) {
  workers_.reserve(size_ - 1);
  for (std::size_t w = 0; w + 1 < size_; ++w) {
    workers_.emplace_back([this, w] { runWorker(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  for (std::condition_variable& cv : impl_->wake) cv.notify_one();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::runWorker(std::size_t index) {
  tlsInsideJob = true;
  Impl& s = *impl_;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(s.mutex);
  for (;;) {
    s.wake[index].wait(lock, [&] {
      return s.stopping || (s.open && s.generation != seen);
    });
    if (s.stopping) return;
    seen = s.generation;
    ++s.active;
    lock.unlock();
    s.claimChunks();
    lock.lock();
    if (--s.active == 0 && !s.open) s.done.notify_one();
  }
}

bool ThreadPool::forkJoin(ChunkFn fn, const void* ctx, std::size_t begin,
                          std::size_t end) {
  if (workers_.empty() || begin >= end || end - begin == 1 || tlsInsideJob) {
    return false;
  }
  Impl& s = *impl_;
  const std::size_t chunks = std::min(size_, end - begin);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.busy) return false;  // another caller's job holds the slot
    s.busy = true;
    s.job = {fn, ctx, begin, end - begin, chunks};
    s.next = 0;
    s.open = true;
    ++s.generation;
  }
  // Wake only the workers the job can use; the caller is the last one.
  for (std::size_t w = 0; w + 1 < chunks; ++w) s.wake[w].notify_one();

  tlsInsideJob = true;
  s.claimChunks();
  tlsInsideJob = false;

  // Every chunk is claimed. Close the job to late wakers and wait only for
  // the workers already inside it, so `body` outlives its last use.
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lock(s.mutex);
    s.open = false;
    s.done.wait(lock, [&] { return s.active == 0; });
    failure = s.takeFailures();
    s.busy = false;
  }
  if (failure) std::rethrow_exception(failure);
  return true;
}

namespace {

std::unique_ptr<ThreadPool>& globalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& globalMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(globalMutex());
  auto& slot = globalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::setGlobalThreads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(globalMutex());
  auto& slot = globalSlot();
  slot.reset();  // join the old pool before spawning the new one
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace rfp::common
