#pragma once

/// \file harness.h
/// Shared plumbing of the repository benchmark: the clock, the in-memory
/// span tracer, percentile helpers, byte digests, process counters, and
/// the result record every workload fills. Nothing here reaches into the
/// library; the workloads call only its public functions.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".";  ///< run-local directory (journal, spans)
};

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Linear-interpolated percentile of \p values (p in [0, 100]); +inf
/// entries stand for failed operations and sort last.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// \p v in %g notation (std::to_string prints fixed six decimals).
inline std::string formatG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

inline double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

/// FNV-1a over 8-byte words (bytes for the tail): the memcmp surface of
/// the identity checks. Equal digests stand for equal bytes.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, b + i, 8);
      h_ = (h_ ^ w) * 0x100000001b3ull;
    }
    for (; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void addValue(const T& v) {
    add(&v, sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One recorded span: a timed call into a library layer.
struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
};

/// In-memory span recorder. Disabled, a Scope reads no clock and records
/// nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<std::int32_t>(tracer_.spans_.size());
      tracer_.spans_.push_back({name, nowNs(), 0, tracer_.open_});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.endNs = nowNs();
      tracer_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Total duration [s] of every span named \p name.
  double totalSeconds(const char* name) const {
    double s = 0.0;
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) == 0) {
        s += static_cast<double>(span.endNs - span.startNs) * 1e-9;
      }
    }
    return s;
  }

  /// Writes every span as "index parent name start_ns end_ns" lines.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# index parent name start_ns end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %d %s %lld %lld\n", i, s.parent, s.name,
                   static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// CPU time and context switches of the whole process (every thread).
struct ProcessCounters {
  double userS = 0.0;
  double sysS = 0.0;
  double ctxSwitches = 0.0;
  double peakRssMb = 0.0;
};
ProcessCounters processCounters();

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports.
struct Result {
  std::vector<Metric> endToEnd;  ///< the contract metrics (--trace 0)
  std::vector<Metric> perLayer;  ///< traced-run layer metrics (--trace 1)
  std::vector<Metric> named;     ///< workload-specific names, printed only
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failedOps = 0;  ///< failed, shed, rejected, lost, duplicated

  void e2e(const std::string& n, double v, const std::string& u) {
    endToEnd.push_back({n, v, u});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    perLayer.push_back({n, v, u});
  }
  void info(const std::string& n, double v, const std::string& u) {
    named.push_back({n, v, u});
  }
  void check(const std::string& n, bool ok, const std::string& detail = "") {
    checks.push_back({n, ok, detail});
  }
};

/// Set-up repetitions per run: enough that the median of millisecond-scale
/// set-ups steadies against scheduler and page-fault noise.
inline constexpr int kSetupReps = 21;

/// Median of \p reps timed calls of \p fn [s]; the set-up metric. The
/// calling thread visits every CPU it may run on in turn, one repetition
/// each: on a host whose cores run at uneven speed (virtual CPUs sharing
/// busy physical cores), a set-up timed only where the thread happened to
/// land reads up to twice as slow from one process to the next. What
/// \p fn returns is destroyed after the clock stops: tearing down (say,
/// joining an engine's watchdog thread) is not set-up.
template <typename Fn>
double medianSetupSeconds(int reps, Fn&& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    const std::int64_t t0 = nowNs();
    const auto built = fn();
    times.push_back(secondsSince(t0));
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  return median(times);
}

/// Mixes the run seed with a stream tag: independent input streams per
/// purpose, all reproducible from --seed.
inline std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Emits the common layer: \p speedup (throughput at the pool's size over
/// one thread, same inputs) and the CPU counters between \p before and
/// \p after.
void reportCommon(const ProcessCounters& before, const ProcessCounters& after,
                  double speedup, Result& result);

// Workload entry points (one translation unit each).
void runFleetHomes(const Args& args, Result& result);
void runFleetStream(const Args& args, Result& result);
void runOfficeFrames(const Args& args, Result& result);
void runGanTrain(const Args& args, Result& result);

}  // namespace perfbench
