/// \file fleet.cpp
/// The two fleet workloads. fleet_homes is a closed batch: seeded homes
/// submitted at once to an in-memory FleetEngine and stepped until idle.
/// fleet_stream is an open loop: the same home generator submits at a
/// fixed rate through ServiceClient sessions over a lossy link to a
/// durable FleetService, which is killed and recovered mid-run.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/det_hash.h"
#include "common/thread_pool.h"
#include "core/scenario_config.h"
#include "harness.h"
#include "replay.h"
#include "service/fleet_engine.h"
#include "service/protocol.h"
#include "service/scenario_job.h"

namespace perfbench {

namespace svc = rfp::service;

namespace {

/// One generated home: its scenario text and submission seed.
struct Home {
  std::string name;
  std::string text;
  std::uint64_t seed = 0;
};

/// Home \p index of run \p runSeed: a cost-reduced deployment whose room
/// size, static clutter, interior walls and radar size (8 samples x 3
/// antennas or 16 x 4, both near the validation floor) are all drawn
/// from the seed, so homes cost unevenly and stragglers show.
Home makeHome(std::uint64_t runSeed, std::size_t index) {
  std::mt19937_64 gen(streamSeed(runSeed, 0x1000 + index));
  const auto uniform = [&gen](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen);
  };
  const auto count = [&gen](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  };
  const double width = uniform(7.0, 13.0);
  const double height = uniform(5.0, 9.0);
  const bool bigRadar = count(0, 1) == 1;

  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(3);
  s << "room.name = home-" << index << "\n"
    << "room.width = " << width << "\n"
    << "room.height = " << height << "\n"
    << "radar.sample_rate = " << (bigRadar ? 32000 : 16000) << "\n"
    << "radar.antennas = " << (bigRadar ? 4 : 3) << "\n"
    << "panel.count = 4\n";
  for (int c = count(0, 6); c > 0; --c) {
    s << "clutter = " << uniform(0.5, width - 0.5) << " "
      << uniform(1.0, height - 0.5) << " " << uniform(0.3, 1.5) << "\n";
  }
  // Partitions hang from the far wall, clear of radar and panel.
  for (int w = count(0, 2); w > 0; --w) {
    const double x = uniform(0.25 * width, 0.75 * width);
    s << "interior_wall = " << x << " " << height << " " << x << " "
      << height - uniform(1.5, 0.5 * height) << " " << uniform(0.2, 0.6)
      << "\n";
  }
  Home home;
  home.name = "home-" + std::to_string(index);
  home.text = s.str();
  home.seed = streamSeed(runSeed, 0x2000 + index);
  return home;
}

std::vector<Home> makeHomes(std::uint64_t runSeed, std::size_t first,
                            std::size_t n) {
  std::vector<Home> homes;
  homes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    homes.push_back(makeHome(runSeed, first + i));
  }
  return homes;
}

rfp::core::Scenario parseHome(const Home& home) {
  std::istringstream in(home.text);
  return rfp::core::loadScenario(in, home.name);
}

svc::ScenarioSubmission submissionOf(const Home& home) {
  svc::ScenarioSubmission s;
  s.name = home.name;
  s.scenarioText = home.text;
  s.seed = home.seed;
  return s;
}

/// The job seed the engine derives for admission id \p id (FleetEngine
/// mixes its service seed, the id and stream 41, then xors the
/// submission seed), so a solo job can replay an engine scenario.
std::uint64_t jobSeed(const svc::FleetServiceConfig& config, std::uint64_t id,
                      std::uint64_t submissionSeed) {
  return rfp::common::hashBits(config.seed, id, 41) ^ submissionSeed;
}

void digestMetrics(Digest& d, const svc::EpochMetrics& m) {
  d.addValue(m.epoch);
  d.addValue(m.framesSimulated);
  d.addValue(m.framesTotal);
  d.addValue(m.framesDetected);
  d.addValue(m.sumDistanceErrorM);
  d.addValue(m.sumAngleErrorDeg);
}

bool sameMetrics(const svc::EpochMetrics& a, const svc::EpochMetrics& b) {
  Digest da;
  Digest db;
  digestMetrics(da, a);
  digestMetrics(db, b);
  return da.value() == db.value();
}

bool sameSummary(const svc::ScenarioSummary& a, const svc::ScenarioSummary& b) {
  return a.framesTotal == b.framesTotal &&
         a.framesDetected == b.framesDetected &&
         std::memcmp(&a.medianDistanceErrorM, &b.medianDistanceErrorM,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.medianLocationErrorM, &b.medianLocationErrorM,
                     sizeof(double)) == 0;
}

/// Ledger bytes plus every scenario's retained metric stream.
std::uint64_t engineDigest(const svc::FleetEngine& engine,
                           const std::vector<std::uint64_t>& ids) {
  Digest d;
  const std::string ledger = engine.ledger().serialize();
  d.add(ledger.data(), ledger.size());
  for (const std::uint64_t id : ids) {
    for (const svc::EpochMetrics& m : engine.metricsSince(id, 0)) {
      digestMetrics(d, m);
    }
  }
  return d.value();
}

/// One closed batch on a fresh in-memory engine.
struct BatchRun {
  double wallS = 0.0;
  std::vector<double> roundS;
  std::vector<double> submitS;
  std::vector<std::uint64_t> ids;
  std::size_t completed = 0;
  std::size_t queuedMax = 0;
  std::uint64_t digest = 0;
};

BatchRun runBatch(const svc::FleetServiceConfig& config,
                  const std::vector<Home>& homes, Tracer& tracer) {
  svc::FleetEngine engine(config);
  BatchRun run;
  const std::int64_t t0 = nowNs();
  for (const Home& home : homes) {
    Tracer::Scope span(tracer, "service.submit");
    const std::int64_t s0 = nowNs();
    run.ids.push_back(engine.submit(submissionOf(home)).scenarioId);
    run.submitS.push_back(secondsSince(s0));
  }
  run.queuedMax = engine.counters().queued;
  while (!engine.idle()) {
    Tracer::Scope span(tracer, "service.round");
    const std::int64_t r0 = nowNs();
    engine.step();
    run.roundS.push_back(secondsSince(r0));
  }
  run.wallS = secondsSince(t0);
  run.completed = engine.counters().completed;
  run.digest = engineDigest(engine, run.ids);
  return run;
}

svc::FleetServiceConfig homesConfig(std::size_t homes) {
  svc::FleetServiceConfig config;  // library defaults
  config.queueCapacity = homes;    // a closed batch: nothing sheds
  return config;
}

/// Mean wall time [s] of one epoch when the batch's scenarios run as solo
/// jobs, one after another on the calling thread.
double serialEpochSeconds(const svc::FleetServiceConfig& config,
                          const std::vector<Home>& homes,
                          const std::vector<std::uint64_t>& ids,
                          double& totalS) {
  SerialPool serial;
  std::size_t epochs = 0;
  totalS = 0.0;
  for (std::size_t i = 0; i < homes.size(); ++i) {
    auto job = svc::makeSpoofScenarioJob(homes[i].text, homes[i].name,
                                         jobSeed(config, ids[i], homes[i].seed),
                                         config.epochFrames);
    while (!job->done()) {
      svc::EpochContext ctx(config.epochWorkBudget);
      const std::int64_t t0 = nowNs();
      job->runEpoch(ctx);
      totalS += secondsSince(t0);
      ++epochs;
    }
  }
  return epochs > 0 ? totalS / static_cast<double>(epochs) : 0.0;
}

constexpr std::size_t kBatchHomes = 96;

}  // namespace

void runFleetHomes(const Args& args, Result& result) {
  const svc::FleetServiceConfig config = homesConfig(kBatchHomes);
  const double setupS = medianSetupSeconds(kSetupReps, [&] {
    const std::vector<Home> homes = makeHomes(args.seed, 0, kBatchHomes);
    for (const Home& home : homes) parseHome(home);
    return std::make_unique<svc::FleetEngine>(config);
  });

  // Same-seed reference of the first batch on a single-thread pool.
  Tracer off(false);
  const std::vector<Home> first = makeHomes(args.seed, 0, kBatchHomes);
  BatchRun reference;
  {
    SerialPool serial;
    reference = runBatch(config, first, off);
  }

  Tracer tracer(args.trace);
  const ProcessCounters before = processCounters();
  std::vector<double> roundS;
  std::vector<double> submitS;
  std::vector<double> batchRates;
  std::size_t homes = 0;
  std::size_t completed = 0;
  std::size_t queuedMax = 0;
  double busyS = 0.0;
  BatchRun firstRun;
  bool digestOk = true;
  bool allCompleted = true;
  for (std::size_t b = 0; b == 0 || busyS < args.seconds; ++b) {
    const std::vector<Home> batch =
        b == 0 ? first : makeHomes(args.seed, b * kBatchHomes, kBatchHomes);
    BatchRun run = runBatch(config, batch, tracer);
    busyS += run.wallS;
    batchRates.push_back(static_cast<double>(run.completed) / run.wallS);
    homes += batch.size();
    completed += run.completed;
    allCompleted = allCompleted && run.completed == batch.size();
    queuedMax = std::max(queuedMax, run.queuedMax);
    roundS.insert(roundS.end(), run.roundS.begin(), run.roundS.end());
    submitS.insert(submitS.end(), run.submitS.begin(), run.submitS.end());
    if (b == 0) {
      digestOk = run.digest == reference.digest;
      firstRun = std::move(run);
    }
  }
  const ProcessCounters after = processCounters();

  result.attempted = homes;
  result.failedOps = homes - completed;
  result.check("every home completes", allCompleted,
               std::to_string(completed) + " of " + std::to_string(homes));
  result.check("ledger + metric digest == same-seed 1-thread reference",
               digestOk);

  // Median over batches: one slow batch (a stolen core) moves it less
  // than the pooled mean, which is printed beside it.
  const double scenariosPerS = median(batchRates);
  const double p50 = percentile(roundS, 50.0) * 1e3;
  const double p99 = percentile(roundS, 99.0) * 1e3;
  result.e2e("setup_s", setupS, "s");
  result.e2e("throughput_per_s", scenariosPerS, "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.info("scenarios_per_s", scenariosPerS, "1/s");
  result.info("round_p50_ms", p50, "ms");
  result.info("round_p99_ms", p99, "ms");
  result.info("scenarios_per_s_pooled", static_cast<double>(completed) / busyS,
              "1/s");
  result.info("batches", static_cast<double>(batchRates.size()), "count");
  result.info("round_samples", static_cast<double>(roundS.size()), "count");

  if (!args.trace) return;
  const double threads =
      static_cast<double>(rfp::common::ThreadPool::global().size());
  double epochTotalS = 0.0;
  const double epochS =
      serialEpochSeconds(config, first, firstRun.ids, epochTotalS);
  reportCommon(before, after, reference.wallS / firstRun.wallS, result);
  result.layer("service.round_ms", p50, "ms");
  result.layer("service.round_p99_ms", p99, "ms");
  result.layer("service.epoch_ms", epochS * 1e3, "ms");
  result.layer("service.parallel_eff",
               epochTotalS / (threads * sum(firstRun.roundS)), "ratio");
  result.layer("service.submit_us", median(submitS) * 1e6, "us");
  result.layer("service.queue_depth_max", static_cast<double>(queuedMax),
               "count");

  LayerSample sample;
  for (std::size_t i = 0; i < 3; ++i) {
    sample.add(parseHome(first[i]),
               jobSeed(config, firstRun.ids[i], first[i].seed), tracer,
               result);
  }
  sample.report(tracer, 0.15, result);
  tracer.write(args.outDir + "/spans.txt");
}

namespace {

/// Open-loop offered load [homes/s]: about half the closed-batch capacity
/// of the default engine (about 145 homes/s on a 4-core host), so a host
/// slowdown does not tip the loop into an unbounded backlog, and high
/// enough that a 15 s run yields over a thousand results.
constexpr double kStreamRate = 70.0;

/// Per-message retry budget handed to each ServiceClient [s]: room for
/// all the link's retries, so a report is lost only when every attempt is
/// (about 1e-9 per message at the loss rates below).
constexpr double kLinkBudgetS = 0.2;

/// A mildly lossy service link: retries hide almost every loss.
rfp::transport::ChannelCondition streamChannel() {
  rfp::transport::ChannelCondition c;
  c.lossProb = 0.05;
  c.corruptProb = 0.01;
  c.duplicateProb = 0.01;
  return c;
}

/// One open-loop submission and what became of it.
struct StreamSub {
  Home home;
  double dueS = 0.0;
  std::size_t client = 0;
  std::uint64_t id = 0;
  bool admitted = false;
  int terminals = 0;
  double doneS = std::numeric_limits<double>::infinity();
  bool completed = false;
  svc::ScenarioSummary summary{};
  std::vector<svc::EpochMetrics> epochs;  ///< kept for sampled ids only
  bool sampled = false;
};

std::uintmax_t directoryBytes(const std::string& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace

void runFleetStream(const Args& args, Result& result) {
  svc::FleetServiceConfig config;  // library defaults, plus durability
  config.queueCapacity = 4096;
  config.durability.dir = args.outDir + "/durability";
  rfp::transport::TransportConfig transport;
  transport.enabled = true;
  const rfp::transport::ChannelCondition channel = streamChannel();
  const std::size_t clientsN = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), 4));

  // The durable shard and its sessions, declared in build order so they
  // are torn down clients first.
  struct Shard {
    std::unique_ptr<svc::FleetEngine> engine;
    std::unique_ptr<svc::FleetService> service;
    std::vector<std::unique_ptr<svc::ServiceClient>> clients;
  };
  const auto buildShard = [&] {
    Shard shard;
    shard.engine = std::make_unique<svc::FleetEngine>(config);
    shard.service = std::make_unique<svc::FleetService>(*shard.engine);
    for (std::size_t c = 0; c < clientsN; ++c) {
      shard.clients.push_back(std::make_unique<svc::ServiceClient>(
          *shard.service, transport, streamSeed(args.seed, 0x3000 + c),
          kLinkBudgetS));
    }
    return shard;
  };
  const double setupS = medianSetupSeconds(kSetupReps, [&] {
    const std::vector<Home> homes = makeHomes(args.seed, 0, 64);
    for (const Home& home : homes) parseHome(home);
    return buildShard();
  });

  // Pool speed-up on a closed slice of the same home generator.
  double speedup = 0.0;
  if (args.trace) {
    Tracer off(false);
    const std::vector<Home> slice = makeHomes(args.seed, 1u << 20, 32);
    double serialS = 0.0;
    {
      SerialPool serial;
      serialS = runBatch(homesConfig(slice.size()), slice, off).wallS;
    }
    speedup = serialS / runBatch(homesConfig(slice.size()), slice, off).wallS;
  }

  Tracer tracer(args.trace);
  Shard shard = buildShard();
  std::unique_ptr<svc::FleetEngine>& engine = shard.engine;
  std::unique_ptr<svc::FleetService>& service = shard.service;
  std::vector<std::unique_ptr<svc::ServiceClient>>& clients = shard.clients;

  std::vector<StreamSub> subs;
  std::vector<double> lateS;
  std::vector<double> roundS;
  std::vector<double> clientSubmitS;
  std::vector<double> clientPollS;
  std::vector<std::size_t> live;  ///< indices of admitted, unfinished subs
  std::size_t duplicates = 0;
  std::size_t queuedMax = 0;
  double journalGrowth = 0.0;
  std::uintmax_t lastBytes = directoryBytes(config.durability.dir);
  svc::RecoveryReport recovery;
  double recoverS = 0.0;
  bool killed = false;
  std::mt19937_64 pick(streamSeed(args.seed, 0x4000));

  const auto deliver = [&](StreamSub& sub,
                           std::vector<svc::EpochReport>& reports,
                           double nowS) {
    for (const svc::EpochReport& r : reports) {
      if (!r.terminal) {
        if (sub.sampled) sub.epochs.push_back(r.metrics);
        continue;
      }
      if (++sub.terminals > 1) {
        ++duplicates;
        continue;
      }
      sub.doneS = nowS;
      sub.completed = r.finalState == svc::ScenarioState::kCompleted;
      sub.summary = r.summary;
    }
    reports.clear();
  };
  const auto pollLive = [&](double nowS) {
    std::vector<svc::EpochReport> reports;
    std::size_t kept = 0;
    for (const std::size_t i : live) {
      StreamSub& sub = subs[i];
      {
        Tracer::Scope span(tracer, "client.poll");
        const std::int64_t p0 = nowNs();
        clients[sub.client]->poll(sub.id, channel, reports);
        clientPollS.push_back(secondsSince(p0));
      }
      deliver(sub, reports, nowS);
      if (sub.terminals == 0) live[kept++] = i;
    }
    live.resize(kept);
  };
  const auto stepOnce = [&] {
    Tracer::Scope span(tracer, "service.round");
    const std::int64_t r0 = nowNs();
    engine->step();
    roundS.push_back(secondsSince(r0));
    queuedMax = std::max(queuedMax, engine->counters().queued);
    if (tracer.enabled()) {
      const std::uintmax_t bytes = directoryBytes(config.durability.dir);
      if (bytes > lastBytes) {
        journalGrowth += static_cast<double>(bytes - lastBytes);
      }
      lastBytes = bytes;
    }
  };

  const ProcessCounters before = processCounters();
  const std::int64_t t0 = nowNs();
  std::size_t next = 0;
  for (;;) {
    const double nowS = secondsSince(t0);
    if (nowS >= args.seconds) break;
    if (!killed && nowS >= 0.5 * args.seconds) {
      // Kill the shard mid-run, rebuild it from its durability directory,
      // and let every session rebind and resume its scenarios.
      killed = true;
      service.reset();
      engine.reset();
      Tracer::Scope span(tracer, "service.recover");
      const std::int64_t k0 = nowNs();
      engine = svc::FleetEngine::recover(config);
      recoverS = secondsSince(k0);
      recovery = engine->recoveryReport();
      service = std::make_unique<svc::FleetService>(*engine);
      std::vector<svc::EpochReport> reports;
      for (auto& client : clients) client->rebind(*service);
      for (const std::size_t i : live) {
        StreamSub& sub = subs[i];
        clients[sub.client]->resume(sub.id, channel, reports);
        deliver(sub, reports, secondsSince(t0));
      }
      continue;
    }
    while (static_cast<double>(next) / kStreamRate <= nowS) {
      StreamSub sub;
      sub.home = makeHome(args.seed, next);
      sub.dueS = static_cast<double>(next) / kStreamRate;
      sub.client = next % clients.size();
      sub.sampled = std::uniform_int_distribution<int>(0, 63)(pick) == 0;
      ++next;
      svc::ServiceClient& client = *clients[sub.client];
      std::optional<svc::SubmitOutcome> outcome;
      {
        Tracer::Scope span(tracer, "client.submit");
        const std::int64_t s0 = nowNs();
        lateS.push_back(secondsSince(t0) - sub.dueS);
        outcome = client.submit(submissionOf(sub.home), channel);
        clientSubmitS.push_back(secondsSince(s0));
      }
      if (outcome.has_value()) {
        sub.id = outcome->scenarioId;
        sub.admitted = outcome->tier != svc::AdmissionTier::kRejectNew;
      } else if (client.scenarioIfUnacked() != 0) {
        sub.id = client.scenarioIfUnacked();
        sub.admitted = true;
      }
      if (sub.admitted) live.push_back(subs.size());
      subs.push_back(std::move(sub));
    }
    if (!engine->idle()) {
      stepOnce();
    } else {
      const double wait = static_cast<double>(next) / kStreamRate - nowS;
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait, args.seconds - nowS)));
      }
    }
    pollLive(secondsSince(t0));
  }
  const double offeredS = secondsSince(t0);
  // Drain: no new submissions; finish and deliver everything admitted.
  while (!engine->idle()) {
    stepOnce();
    pollLive(secondsSince(t0));
  }
  pollLive(secondsSince(t0));
  for (const std::size_t i : std::vector<std::size_t>(live)) {
    StreamSub& sub = subs[i];
    std::vector<svc::EpochReport> reports;
    clients[sub.client]->resume(sub.id, channel, reports);
    deliver(sub, reports, secondsSince(t0));
  }
  const ProcessCounters after = processCounters();

  std::vector<double> latencyS;
  std::size_t delivered = 0;
  std::size_t failed = 0;
  std::size_t missing = 0;
  for (const StreamSub& sub : subs) {
    const bool ok = sub.admitted && sub.completed && sub.terminals >= 1;
    if (sub.terminals == 0) ++missing;
    if (sub.terminals >= 1) ++delivered;
    if (!ok) ++failed;
    latencyS.push_back(ok ? sub.doneS - sub.dueS
                          : std::numeric_limits<double>::infinity());
  }

  // Sampled streams against solo same-seed jobs.
  std::size_t comparedEpochs = 0;
  bool streamsOk = true;
  for (const StreamSub& sub : subs) {
    if (!sub.sampled || !sub.completed) continue;
    auto job = svc::makeSpoofScenarioJob(sub.home.text, sub.home.name,
                                         jobSeed(config, sub.id, sub.home.seed),
                                         config.epochFrames);
    std::vector<svc::EpochMetrics> solo;
    while (!job->done()) {
      svc::EpochContext ctx(config.epochWorkBudget);
      solo.push_back(job->runEpoch(ctx));
    }
    for (const svc::EpochMetrics& m : sub.epochs) {
      streamsOk = streamsOk && m.epoch < solo.size() &&
                  sameMetrics(m, solo[m.epoch]);
      ++comparedEpochs;
    }
    streamsOk = streamsOk && sameSummary(sub.summary, job->summary());
  }

  result.attempted = subs.size();
  result.failedOps = failed + duplicates;
  result.check("every submission gets exactly one terminal report",
               missing == 0 && duplicates == 0,
               std::to_string(missing) + " missing, " +
                   std::to_string(duplicates) + " duplicated");
  result.check("recover() reports no loss", killed && !recovery.lossDetected,
               recovery.detail);
  result.check("sampled metric streams == solo same-seed jobs (memcmp)",
               streamsOk && comparedEpochs > 0,
               std::to_string(comparedEpochs) + " epochs compared");

  const double p50 = percentile(latencyS, 50.0) * 1e3;
  const double p99 = percentile(latencyS, 99.0) * 1e3;
  const double throughput = static_cast<double>(delivered) / offeredS;
  result.e2e("setup_s", setupS, "s");
  result.e2e("throughput_per_s", throughput, "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.info("offered_rate_per_s", kStreamRate, "1/s");
  result.info("delivered_per_s", throughput, "1/s");
  result.info("result_latency_p50_ms", p50, "ms");
  result.info("result_latency_p99_ms", p99, "ms");
  result.info("result_samples", static_cast<double>(latencyS.size()), "count");
  result.info("round_p50_ms", percentile(roundS, 50.0) * 1e3, "ms");
  result.info("round_p99_ms", percentile(roundS, 99.0) * 1e3, "ms");
  result.info("recover_ms", recoverS * 1e3, "ms");

  if (!args.trace) return;
  rfp::transport::LinkStats link;
  for (const auto& client : clients) {
    link.accumulate(client->uplinkStats());
    link.accumulate(client->downlinkStats());
  }
  reportCommon(before, after, speedup, result);
  result.layer("service.round_ms", percentile(roundS, 50.0) * 1e3, "ms");
  result.layer("service.round_p99_ms", percentile(roundS, 99.0) * 1e3, "ms");
  result.layer("service.queue_depth_max", static_cast<double>(queuedMax),
               "count");
  result.layer("service.journal_bytes_per_round",
               journalGrowth / static_cast<double>(std::max<std::size_t>(
                                   roundS.size(), 1)),
               "bytes");
  result.layer("service.recover_ms", recoverS * 1e3, "ms");
  result.layer("service.recover_replayed",
               static_cast<double>(recovery.replayedRecords), "count");
  result.layer("service.recover_reexec_epochs",
               static_cast<double>(recovery.reExecutedEpochs), "count");
  result.layer("client.submit_us", median(clientSubmitS) * 1e6, "us");
  result.layer("client.poll_us", median(clientPollS) * 1e6, "us");
  result.layer("transport.attempts", static_cast<double>(link.attempts),
               "count");
  result.layer("transport.retries", static_cast<double>(link.retransmissions),
               "count");
  result.layer("transport.dropped", static_cast<double>(link.framesMissed),
               "count");
  result.layer("gen.late_p99_ms", percentile(lateS, 99.0) * 1e3, "ms");
  tracer.write(args.outDir + "/spans.txt");
}

}  // namespace perfbench
