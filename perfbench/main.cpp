/// \file main.cpp
/// Entry point of the repository benchmark:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
///
/// Prints provenance, every output check, every metric by name with its
/// unit, and as the last line one JSON object {correct, attempted,
/// failed, metrics}: the end-to-end metrics untraced, the per-layer
/// metrics traced. Exit status: 0 all checks hold, 1 a check failed,
/// 2 bad usage, 3 a Debug or sanitizer build (numbers withheld).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/cpuid.h"
#include "common/thread_pool.h"
#include "harness.h"

namespace perfbench {

ProcessCounters processCounters() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  ProcessCounters c;
  c.userS = static_cast<double>(u.ru_utime.tv_sec) +
            static_cast<double>(u.ru_utime.tv_usec) * 1e-6;
  c.sysS = static_cast<double>(u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_stime.tv_usec) * 1e-6;
  c.ctxSwitches = static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
  c.peakRssMb = static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
  return c;
}

void reportCommon(const ProcessCounters& before, const ProcessCounters& after,
                  double speedup, Result& result) {
  result.layer("pool.speedup", speedup, "ratio");
  result.layer("cpu.user_s", after.userS - before.userS, "s");
  result.layer("cpu.sys_s", after.sysS - before.sysS, "s");
  result.layer("cpu.ctx_switches", after.ctxSwitches - before.ctxSwitches,
               "count");
}

namespace {

struct Workload {
  const char* name;
  void (*run)(const Args&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"fleet_homes", runFleetHomes},
    {"fleet_stream", runFleetStream},
    {"office_frames", runOfficeFrames},
    {"gan_train", runGanTrain},
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// traced run reports all of them; a layer the workload does not
/// exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"pool.speedup", "ratio"},
    {"cpu.user_s", "s"},
    {"cpu.sys_s", "s"},
    {"cpu.ctx_switches", "count"},
    {"service.round_ms", "ms"},
    {"service.round_p99_ms", "ms"},
    {"service.epoch_ms", "ms"},
    {"service.parallel_eff", "ratio"},
    {"service.submit_us", "us"},
    {"service.queue_depth_max", "count"},
    {"service.journal_bytes_per_round", "bytes"},
    {"service.recover_ms", "ms"},
    {"service.recover_replayed", "count"},
    {"service.recover_reexec_epochs", "count"},
    {"client.submit_us", "us"},
    {"client.poll_us", "us"},
    {"transport.attempts", "count"},
    {"transport.retries", "count"},
    {"transport.dropped", "count"},
    {"gen.late_p99_ms", "ms"},
    {"core.frame_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"reflector.inject_us", "us"},
    {"env.scene_us", "us"},
    {"env.scatterers", "count"},
    {"radar.synth_us", "us"},
    {"radar.tone_us", "us"},
    {"radar.cache_hit_ratio", "ratio"},
    {"radar.cache_bytes", "bytes"},
    {"radar.bgsub_us", "us"},
    {"radar.process_us", "us"},
    {"radar.beamform_us", "us"},
    {"radar.beamform_gflops", "GFLOP/s"},
    {"signal.range_fft_us", "us"},
    {"signal.awgn_us", "us"},
    {"tracking.detect_us", "us"},
    {"tracking.track_us", "us"},
    {"tracking.detections", "count"},
    {"gan.step_ms", "ms"},
    {"linalg.gemm_gflops", "GFLOP/s"},
    {"gan.gemm_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_homes|fleet_stream|office_frames|gan_train> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>] [--source-digest <hex>]\n",
               why);
  return 2;
}

std::string jsonNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

const char* envOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        haveTrace = true;
      } else if (key == "--out-dir") {
        args.outDir = value;
      } else if (key == "--commit") {
        commit = value;
      } else if (key == "--source-digest") {
        sourceDigest = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!haveTrace || !(args.seconds > 0.0)) {
    return usage("--trace and a positive --seconds are required");
  }
  std::filesystem::create_directories(args.outDir);

  namespace simd = rfp::common::simd;
  const std::string buildType = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const bool flagged = buildType == "Debug" ||
                       !(sanitize.empty() || sanitize == "OFF");
  std::printf(
      "provenance {\"nproc\": %u, \"RFP_THREADS\": %s, \"pool_threads\": %zu, "
      "\"kernel_level\": %s, \"cpu_features\": %s, \"RFP_CACHE_MB\": %s, "
      "\"build_type\": %s, \"sanitize\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"source_digest\": %s}\n",
      std::thread::hardware_concurrency(),
      jsonString(envOr("RFP_THREADS", "unset")).c_str(),
      rfp::common::ThreadPool::global().size(),
      jsonString(simd::kernelLevelName(simd::activeKernelLevel())).c_str(),
      jsonString(simd::cpuFeatureString()).c_str(),
      jsonString(envOr("RFP_CACHE_MB", "default")).c_str(),
      jsonString(buildType).c_str(), jsonString(sanitize).c_str(),
      jsonString(__VERSION__).c_str(), jsonString(commit).c_str(),
      jsonString(sourceDigest).c_str());
  if (flagged) {
    std::printf("FLAGGED: %s build (sanitize=%s); timings are not reported\n",
                buildType.c_str(), sanitize.c_str());
    return 3;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Result result;
  workload->run(args, result);
  result.e2e("peak_rss_mb", processCounters().peakRssMb, "MiB");

  std::uint64_t failedChecks = 0;
  for (const Check& c : result.checks) {
    std::printf("check %-6s %s%s%s\n", c.ok ? "ok" : "FAILED", c.name.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
    if (!c.ok) ++failedChecks;
  }
  const std::uint64_t attempted =
      std::max<std::uint64_t>(result.attempted, 1) + result.checks.size();
  const std::uint64_t failed = result.failedOps + failedChecks;
  result.info("failed_share",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  for (const auto* list : {&result.named, &result.endToEnd}) {
    for (const Metric& m : *list) {
      std::printf("metric %s = %s %s\n", m.name.c_str(),
                  jsonNumber(m.value).c_str(), m.unit.c_str());
    }
  }

  std::string metrics;
  const auto emit = [&metrics](const std::string& name, double value,
                               const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += jsonString(name) + ": {\"value\": " + jsonNumber(value) +
               ", \"unit\": " + jsonString(unit) + "}";
  };
  if (!args.trace) {
    for (const Metric& m : result.endToEnd) emit(m.name, m.value, m.unit);
  } else {
    for (const Metric& m : result.perLayer) {
      bool known = false;
      for (const LayerMetric& l : kPerLayer) known = known || m.name == l.name;
      if (!known) {
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     m.name.c_str());
        return 2;
      }
    }
    for (const LayerMetric& l : kPerLayer) {
      double value = 0.0;
      for (const Metric& m : result.perLayer) {
        if (m.name == l.name) value = m.value;
      }
      std::printf("layer %s = %s %s\n", l.name, jsonNumber(value).c_str(),
                  l.unit);
      emit(l.name, value, l.unit);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failedChecks == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return failedChecks == 0 ? 0 : 1;
}
