/// \file test_parallel.cpp
/// The parallel simulation engine's determinism contract (DESIGN.md
/// Sec. 8): thread-pool mechanics (sizing, nesting, concurrent callers,
/// exceptions), bit identity of radar frames / range-angle maps /
/// environment snapshots at any thread count, and the steering/twiddle
/// cache behavior.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vec2.h"
#include "env/environment.h"
#include "env/floorplan.h"
#include "env/human.h"
#include "radar/config.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "signal/fft.h"

namespace rfp {
namespace {

using rfp::common::ThreadPool;
using rfp::common::Vec2;

/// RAII guard: every test that touches the global pool puts it back to the
/// environment-resolved default on exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::setGlobalThreads(0); }
};

TEST(ThreadPool, RfpThreadsEnvOverridesAndFallsBackToOne) {
  ::setenv("RFP_THREADS", "1", 1);
  {
    ThreadPool pool;  // default-constructed -> resolves from env
    EXPECT_EQ(pool.size(), 1u);
    // The 1-thread fallback runs everything inline on the calling thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    pool.parallelFor(0, seen.size(),
                     [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    for (const auto& id : seen) EXPECT_EQ(id, caller);
  }
  ::setenv("RFP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolveThreadCount(), 3u);
  ::setenv("RFP_THREADS", "not-a-number", 1);
  const std::size_t fallback = ThreadPool::resolveThreadCount();
  EXPECT_GE(fallback, 1u);  // ignored, hw fallback
  // strtoul would wrap "-1" to ULONG_MAX (then clamped to 256 threads);
  // a negative value falls back like any other unparsable one.
  ::setenv("RFP_THREADS", "-1", 1);
  EXPECT_EQ(ThreadPool::resolveThreadCount(), fallback);
  ::unsetenv("RFP_THREADS");
}

TEST(EnvParse, RejectsSignsGarbageAndZero) {
  using common::parsePositiveEnv;
  EXPECT_EQ(parsePositiveEnv("1").value_or(0), 1u);
  EXPECT_EQ(parsePositiveEnv("4").value_or(0), 4u);
  EXPECT_EQ(parsePositiveEnv("007").value_or(0), 7u);
  EXPECT_EQ(parsePositiveEnv("65536").value_or(0), 65536u);
  // Past SIZE_MAX saturates, so the caller's clamp applies.
  EXPECT_EQ(parsePositiveEnv("99999999999999999999999").value_or(0),
            std::numeric_limits<std::size_t>::max());
  for (const char* bad : {"", "0", "00", "-1", "-0", "+4", " 4", "4 ", "4x",
                          "x", "1e3", "0x10", "4.0", "--1"}) {
    EXPECT_FALSE(parsePositiveEnv(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parsePositiveEnv(nullptr).has_value());
}

/// Runs an 8-index loop on \p pool in which index i blocks until index
/// i - 1 has finished, the hand-off of a layer wavefront, and returns
/// how many indices had finished when each one started.
std::vector<std::uint32_t> chainedLoop(ThreadPool& pool) {
  constexpr std::size_t kRange = 8;
  std::atomic<std::uint32_t> finished{0};
  std::vector<std::uint32_t> startedAfter(kRange);
  pool.parallelFor(0, kRange, [&](std::size_t i) {
    std::uint32_t seen = finished.load();
    while (seen < i) {
      finished.wait(seen);
      seen = finished.load();
    }
    startedAfter[i] = seen;
    finished.store(static_cast<std::uint32_t>(i + 1));
    finished.notify_all();
  });
  return startedAfter;
}

TEST(ThreadPool, LaterChunkMayWaitOnEarlierChunk) {
  // The ascending-claim contract (thread_pool.h): chunks are claimed in
  // index order and every inline fallback runs in index order, so an
  // index may wait on any earlier one without deadlock.
  const std::vector<std::uint32_t> inOrder = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const std::size_t size : {1u, 4u}) {
    ThreadPool pool(size);
    EXPECT_EQ(chainedLoop(pool), inOrder) << "size " << size;
  }

  // Busy slot: another thread's job holds it, so the loop runs inline.
  ThreadPool pool(4);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.parallelFor(0, 2, [&](std::size_t i) {
      if (i != 0) return;
      holding = true;
      holding.notify_all();
      release.wait(false);
    });
  });
  holding.wait(false);
  EXPECT_EQ(chainedLoop(pool), inOrder) << "busy slot";
  release = true;
  release.notify_all();
  holder.join();

  // Nested: inside a chunk the loop runs inline, on this pool or another.
  ThreadPool other(4);
  std::vector<std::vector<std::uint32_t>> nested(4);
  pool.parallelFor(0, nested.size(), [&](std::size_t c) {
    nested[c] = chainedLoop(c % 2 == 0 ? pool : other);
  });
  for (const auto& run : nested) EXPECT_EQ(run, inOrder) << "nested";
}

TEST(ThreadPool, ParallelForPropagatesWorkerExceptions) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      pool.parallelFor(0, 64,
                       [&](std::size_t i) {
                         visited.fetch_add(1);
                         if (i == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing job and stays usable.
  std::atomic<int> after{0};
  pool.parallelFor(0, 8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ParallelForAggregatesMultipleChunkFailures) {
  // One failure per chunk: with 4 workers and a 64-wide range every chunk
  // throws, and the old first-exception-only behavior would silently drop
  // three of them. The aggregate carries the count and stays catchable as
  // std::runtime_error.
  ThreadPool pool(4);
  try {
    pool.parallelFor(0, 64, [&](std::size_t i) {
      if (i % 16 == 0) {
        throw std::invalid_argument("chunk " + std::to_string(i / 16));
      }
    });
    FAIL() << "expected ParallelForError";
  } catch (const rfp::common::ParallelForError& e) {
    EXPECT_EQ(e.failureCount(), 4u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("4 of 4 chunks failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("chunk 0"), std::string::npos) << msg;
  }

  // A single failing chunk still rethrows the original exception type.
  try {
    pool.parallelFor(0, 64, [&](std::size_t i) {
      if (i == 3) throw std::invalid_argument("solo");
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "solo");
  }

  // Inline execution (1-thread pool) aborts at the first throw by design;
  // the aggregate path only applies to chunked execution.
  ThreadPool inlinePool(1);
  EXPECT_THROW(inlinePool.parallelFor(
                   0, 8, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  ThreadPool other(2);
  std::atomic<int> inner{0};
  pool.parallelFor(0, 2, [&](std::size_t) {
    // A chunk re-entering parallelFor must not deadlock waiting on the
    // slot its own job holds; the nested loop degrades to serial, on this
    // pool and on any other one. The sleep gives another pool's workers
    // time to claim chunks if the nested call did fork.
    const std::thread::id self = std::this_thread::get_id();
    for (ThreadPool* p : {&pool, &other}) {
      p->parallelFor(0, 32, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        EXPECT_EQ(std::this_thread::get_id(), self);
        inner.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(inner.load(), 128);
}

TEST(ThreadPool, ConcurrentOutsideCallersBothComplete) {
  // Two outside threads share one pool: whichever finds the job slot
  // taken runs its loop inline. Iterations sleep briefly so the callers'
  // jobs overlap and woken workers claim chunks; every call must have run
  // each of its iterations exactly once by the time it returns.
  ThreadPool pool(4);
  constexpr std::uint64_t kCalls = 200;
  constexpr std::size_t kRange = 37;
  auto caller = [&pool](std::uint64_t& total, std::size_t& mismatches) {
    std::vector<std::uint64_t> cells(kRange);
    for (std::uint64_t call = 1; call <= kCalls; ++call) {
      pool.parallelFor(0, kRange, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(5));
        cells[i] += i + 1;
      });
      for (std::size_t i = 0; i < kRange; ++i) {
        if (cells[i] != call * (i + 1)) ++mismatches;
      }
    }
    for (const std::uint64_t v : cells) total += v;
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::size_t badA = 0;
  std::size_t badB = 0;
  std::thread ta(caller, std::ref(a), std::ref(badA));
  std::thread tb(caller, std::ref(b), std::ref(badB));
  ta.join();
  tb.join();
  const std::uint64_t expected = kCalls * (kRange * (kRange + 1) / 2);
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
  EXPECT_EQ(badA, 0u);
  EXPECT_EQ(badB, 0u);
}

radar::RadarConfig parallelTestConfig() {
  radar::RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-4;
  return cfg;
}

std::vector<env::PointScatterer> testScatterers(const radar::RadarConfig& cfg) {
  std::vector<env::PointScatterer> scatterers;
  for (int i = 0; i < 5; ++i) {
    env::PointScatterer s;
    s.position = cfg.position + Vec2{-2.0 + i * 1.1, 3.0 + 0.4 * i};
    s.amplitude = 0.5 + 0.25 * i;
    s.radialOffsetM = 0.001 * i;
    scatterers.push_back(s);
  }
  return scatterers;
}

void expectFramesBitIdentical(const radar::Frame& a, const radar::Frame& b) {
  ASSERT_EQ(a.numAntennas(), b.numAntennas());
  ASSERT_EQ(a.samplesPerChirp(), b.samplesPerChirp());
  for (std::size_t k = 0; k < a.numAntennas(); ++k) {
    for (std::size_t n = 0; n < a.samples[k].size(); ++n) {
      EXPECT_EQ(a.samples[k][n].real(), b.samples[k][n].real());
      EXPECT_EQ(a.samples[k][n].imag(), b.samples[k][n].imag());
    }
  }
}

TEST(ParallelDeterminism, FrontendFramesBitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const radar::RadarConfig cfg = parallelTestConfig();
  const radar::Frontend fe(cfg);
  const auto scatterers = testScatterers(cfg);

  ThreadPool::setGlobalThreads(1);
  const radar::Frame serialCounter = fe.synthesize(scatterers, 0.0, 99u, 7u);
  common::Rng serialRng(5);
  const radar::Frame serialSeq = fe.synthesize(scatterers, 0.0, serialRng);

  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool::setGlobalThreads(threads);
    const radar::Frame parCounter = fe.synthesize(scatterers, 0.0, 99u, 7u);
    expectFramesBitIdentical(serialCounter, parCounter);
    common::Rng parRng(5);
    const radar::Frame parSeq = fe.synthesize(scatterers, 0.0, parRng);
    expectFramesBitIdentical(serialSeq, parSeq);
  }
}

TEST(ParallelDeterminism, CounterNoiseIsAFunctionOfSeedChirpAndAntenna) {
  const radar::RadarConfig cfg = parallelTestConfig();
  const radar::Frontend fe(cfg);
  const auto scatterers = testScatterers(cfg);
  const radar::Frame a = fe.synthesize(scatterers, 0.0, 99u, 7u);
  const radar::Frame sameKey = fe.synthesize(scatterers, 0.0, 99u, 7u);
  const radar::Frame otherChirp = fe.synthesize(scatterers, 0.0, 99u, 8u);
  const radar::Frame otherSeed = fe.synthesize(scatterers, 0.0, 100u, 7u);
  expectFramesBitIdentical(a, sameKey);
  EXPECT_NE(a.samples[0][0], otherChirp.samples[0][0]);
  EXPECT_NE(a.samples[0][0], otherSeed.samples[0][0]);
  // Antennas draw from distinct streams: identical geometry, different
  // noise. Compare a pure-noise frame (no scatterers).
  const radar::Frame noiseOnly = fe.synthesize({}, 0.0, 99u, 7u);
  EXPECT_NE(noiseOnly.samples[0][0], noiseOnly.samples[1][0]);
}

TEST(ParallelDeterminism, ProcessorMapsBitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const radar::RadarConfig cfg = parallelTestConfig();
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg);
  const radar::Frame frame = fe.synthesize(testScatterers(cfg), 0.0, 3u, 0u);

  ThreadPool::setGlobalThreads(1);
  const radar::RangeAngleMap serial = proc.process(frame);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool::setGlobalThreads(threads);
    const radar::RangeAngleMap par = proc.process(frame);
    ASSERT_EQ(serial.power.size(), par.power.size());
    for (std::size_t i = 0; i < serial.power.size(); ++i) {
      EXPECT_EQ(serial.power[i], par.power[i]);
    }
  }
}

TEST(ParallelDeterminism, EnvSnapshotBitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  env::Environment environment(env::FloorPlan::office());
  environment.addHuman(env::TimedPath({{2.0, 2.0}, {4.0, 3.0}}, 1.0));
  environment.addHuman(env::TimedPath({{6.0, 5.0}, {5.0, 2.0}}, 1.0));
  environment.addHuman(env::TimedPath::stationary({8.0, 3.0}));
  env::SnapshotOptions opts;
  opts.multipathObserver = Vec2{5.0, 0.05};

  ThreadPool::setGlobalThreads(1);
  common::Rng serialRng(11);
  const auto serial = environment.snapshot(0.7, serialRng, opts);
  for (std::size_t threads : {2u, 4u}) {
    ThreadPool::setGlobalThreads(threads);
    common::Rng parRng(11);
    const auto par = environment.snapshot(0.7, parRng, opts);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].position.x, par[i].position.x);
      EXPECT_EQ(serial[i].position.y, par[i].position.y);
      EXPECT_EQ(serial[i].amplitude, par[i].amplitude);
      EXPECT_EQ(serial[i].radialOffsetM, par[i].radialOffsetM);
      EXPECT_EQ(serial[i].sourceId, par[i].sourceId);
    }
  }
}

TEST(Caches, TwiddleTablesAreSharedPerSizeAndDistinctAcrossSizes) {
  const auto a = signal::twiddlesFor(64);
  const auto b = signal::twiddlesFor(64);
  const auto c = signal::twiddlesFor(128);
  EXPECT_EQ(a.get(), b.get());  // cache hit: one immutable table per size
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->size(), 63u);
  EXPECT_EQ(c->size(), 127u);
  EXPECT_THROW(signal::twiddlesFor(48), std::invalid_argument);
  EXPECT_THROW(signal::twiddlesFor(1), std::invalid_argument);

  // A cached transform still matches the analytic DFT of an impulse.
  std::vector<signal::Complex> impulse(64, signal::Complex{});
  impulse[1] = 1.0;
  const auto spec = signal::fft(impulse);
  for (std::size_t k = 0; k < spec.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 1.0, 1e-12);
  }
}

TEST(Caches, SteeringCacheKeysOnProcessorGeometry) {
  // The steering cache is process-wide, so a repeated run
  // (--gtest_repeat) would find an earlier pass's geometries cached.
  // Each pass moves the array spacing up one ulp: that keys entries no
  // earlier pass made and moves no beam measurably.
  static double spacingWavelengths = parallelTestConfig().spacingWavelengths;
  radar::RadarConfig cfg = parallelTestConfig();
  cfg.spacingWavelengths = spacingWavelengths;
  spacingWavelengths = std::nextafter(spacingWavelengths, 1.0);
  radar::ProcessorOptions narrow;
  narrow.numAngleBins = 61;
  const radar::Processor procA(cfg, narrow);
  const std::size_t after = radar::steeringCacheEntries();
  // Same geometry -> cache hit, no new entry.
  const radar::Processor procB(cfg, narrow);
  EXPECT_EQ(radar::steeringCacheEntries(), after);
  // New angle grid (and new antenna count) -> distinct entries, no stale
  // reuse across configs.
  radar::ProcessorOptions wide;
  wide.numAngleBins = 91;
  const radar::Processor procC(cfg, wide);
  radar::RadarConfig bigger = cfg;
  bigger.numAntennas = 9;
  const radar::Processor procD(bigger, wide);
  EXPECT_GE(radar::steeringCacheEntries(), after + 2);

  // Both grids must localize the same broadside target correctly -- a
  // stale steering matrix would skew one of them.
  const radar::Frontend fe(cfg);
  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.0, 5.0};
  const radar::Frame frame =
      fe.synthesize(std::vector<env::PointScatterer>{s}, 0.0, 1u, 0u);
  for (const radar::Processor* proc : {&procA, &procC}) {
    const auto map = proc->process(frame);
    const auto [ri, ai] = map.argmax();
    EXPECT_NEAR(map.anglesRad[ai], rfp::common::pi() / 2.0, 0.1);
    EXPECT_NEAR(map.rangesM[ri], 5.0, cfg.chirp.rangeResolution());
  }
}

}  // namespace
}  // namespace rfp
