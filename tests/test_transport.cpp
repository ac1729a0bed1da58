/// \file test_transport.cpp
/// The resilient link transport: the frame and schedule codecs (CRC
/// rejection of every single-bit flip, strict schedule lengths), the
/// heartbeat watchdog state machine, the deterministic lossy channel with
/// its seeded draw sequences pinned as golden constants, and the
/// end-to-end guarantees -- a zero-impairment transport is bit-identical
/// to the direct actuation path, and under heavy loss it both tracks
/// better and fingerprints less than the naive single-attempt link.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/det_hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "privacy/continuity_fingerprint.h"
#include "trajectory/human_walk.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "golden_hash.h"

namespace rfp::transport {
namespace {

reflector::ControlCommand sampleCommand(double salt) {
  reflector::ControlCommand cmd;
  cmd.antennaIndex = 3;
  cmd.fSwitchHz = 52341.5 + salt;
  cmd.gain = 0.8125 + salt * 1e-3;
  cmd.phaseOffsetRad = -1.25 + salt * 1e-2;
  cmd.intendedWorld = {2.5 + salt, -3.75};
  cmd.intendedRangeM = 4.5 + salt;
  cmd.intendedAngleRad = 0.33;
  cmd.spoofedRangeM = 6.0;
  cmd.decision = reflector::HealthDecision::kNominal;
  return cmd;
}

Schedule sampleSchedule(std::size_t commands = 3) {
  Schedule schedule;
  schedule.ghostId = 1007;
  for (std::size_t i = 0; i < commands; ++i) {
    schedule.commands.push_back(sampleCommand(0.1 * static_cast<double>(i)));
  }
  return schedule;
}

Frame sampleFrame(std::size_t commands = 3) {
  return encodeSchedule(0x1122334455ull, sampleSchedule(commands));
}

TEST(Framing, RoundTripIsBitExact) {
  const Schedule schedule = sampleSchedule();
  const Frame frame = encodeSchedule(0x1122334455ull, schedule);
  const std::string bytes = encodeFrame(frame);
  const auto decodedFrame = decodeFrame(bytes);
  ASSERT_TRUE(decodedFrame.has_value());
  const auto decoded = decodeSchedule(*decodedFrame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decodedFrame->seq, frame.seq);
  EXPECT_EQ(decoded->ghostId, schedule.ghostId);
  ASSERT_EQ(decoded->commands.size(), schedule.commands.size());
  for (std::size_t i = 0; i < schedule.commands.size(); ++i) {
    const auto& a = schedule.commands[i];
    const auto& b = decoded->commands[i];
    EXPECT_EQ(a.antennaIndex, b.antennaIndex);
    EXPECT_EQ(a.decision, b.decision);
    // Doubles must survive the wire bit-exactly, not just approximately.
    EXPECT_EQ(a.fSwitchHz, b.fSwitchHz);
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.phaseOffsetRad, b.phaseOffsetRad);
    EXPECT_EQ(a.intendedWorld.x, b.intendedWorld.x);
    EXPECT_EQ(a.intendedWorld.y, b.intendedWorld.y);
    EXPECT_EQ(a.intendedRangeM, b.intendedRangeM);
    EXPECT_EQ(a.intendedAngleRad, b.intendedAngleRad);
    EXPECT_EQ(a.spoofedRangeM, b.spoofedRangeM);
  }
}

TEST(Framing, EverySingleBitFlipIsRejected) {
  const std::string bytes = encodeFrame(sampleFrame(2));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string corrupted = bytes;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_FALSE(decodeFrame(corrupted).has_value())
        << "bit " << bit << " flip went undetected";
  }
}

TEST(Framing, TruncationIsRejectedWithReason) {
  const std::string bytes = encodeFrame(sampleFrame());
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::string error;
    EXPECT_FALSE(decodeFrame(bytes.substr(0, len), &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(Framing, EmptyScheduleRoundTrips) {
  Schedule schedule;
  schedule.ghostId = 1;
  const auto decodedFrame =
      decodeFrame(encodeFrame(encodeSchedule(7, schedule)));
  ASSERT_TRUE(decodedFrame.has_value());
  const auto decoded = decodeSchedule(*decodedFrame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->commands.empty());
}

TEST(Framing, MalformedSchedulesInCrcCleanFramesAreRejected) {
  // The schedule decoder runs after the frame's CRC, so a CRC-clean frame
  // whose payload is not exactly one well-formed schedule must be
  // rejected there -- never actuated.
  const Frame good = sampleFrame(3);
  const auto viaWire = [&](std::string payload,
                           std::uint16_t type = kScheduleFrame) {
    const auto frame =
        decodeFrame(encodeFrame(Frame{good.seq, type, std::move(payload)}));
    EXPECT_TRUE(frame.has_value());  // the integrity layer accepts it...
    return frame.has_value() ? decodeSchedule(*frame) : std::nullopt;
  };
  ASSERT_TRUE(viaWire(good.payload).has_value());

  // Every truncation, down to the empty payload.
  for (std::size_t len = 0; len < good.payload.size(); ++len) {
    EXPECT_FALSE(viaWire(good.payload.substr(0, len)).has_value())
        << "prefix of length " << len;
  }
  // Every extension up to one command and a byte past the last command.
  const std::size_t commandBytes = (good.payload.size() - 6) / 3;
  for (std::size_t extra = 1; extra <= commandBytes + 1; ++extra) {
    const std::string extended = good.payload + std::string(extra, '\x5a');
    EXPECT_FALSE(viaWire(extended).has_value()) << "extended by " << extra;
  }
  // Every command count but the true one (the u16 after the i32 ghostId).
  for (std::uint32_t count = 0; count <= 0xffffu; ++count) {
    if (count == 3) continue;
    std::string payload = good.payload;
    const auto wire = static_cast<std::uint16_t>(count);
    std::memcpy(&payload[4], &wire, sizeof(wire));
    EXPECT_FALSE(viaWire(payload).has_value()) << "count " << count;
  }
  // A well-formed schedule under any other type tag -- the service
  // protocol's 1..5 included -- is not a schedule.
  for (std::uint16_t type : {0, 1, 2, 3, 4, 5, 0x0101, 0xffff}) {
    EXPECT_FALSE(viaWire(good.payload, type).has_value()) << "type " << type;
  }

  // Seeded garbage and stomped payloads: the decoder may only say no, or
  // hand back a schedule that re-encodes to exactly the bytes it read.
  rfp::common::Rng rng(0x5c4edu);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    if (trial % 2 == 0) {
      payload.resize(static_cast<std::size_t>(rng.uniformInt(0, 240)));
      for (auto& c : payload) c = static_cast<char>(rng.uniformInt(0, 255));
    } else {
      payload = good.payload;
      const int stomps = rng.uniformInt(1, 8);
      for (int s = 0; s < stomps; ++s) {
        const auto pos = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(payload.size()) - 1));
        payload[pos] = static_cast<char>(rng.uniformInt(0, 255));
      }
    }
    const auto decoded = viaWire(payload);
    if (decoded.has_value()) {
      EXPECT_EQ(encodeSchedule(good.seq, *decoded).payload, payload);
    }
  }
}

TEST(Watchdog, DegradesThenParksThenReacquires) {
  TransportConfig config;
  config.parkAfterMisses = 3;
  LinkWatchdog dog(config);
  EXPECT_EQ(dog.state(), LinkState::kLinked);

  dog.onMiss(10);
  EXPECT_EQ(dog.state(), LinkState::kDegraded);
  dog.onMiss(11);
  EXPECT_EQ(dog.state(), LinkState::kDegraded);
  dog.onMiss(12);  // third consecutive miss: park
  EXPECT_EQ(dog.state(), LinkState::kParked);

  EXPECT_TRUE(dog.onDelivery(20));  // re-acquisition
  EXPECT_EQ(dog.state(), LinkState::kLinked);
  EXPECT_EQ(dog.missStreak(), 0);
  EXPECT_FALSE(dog.onDelivery(21));  // nominal delivery: not a re-acquire
}

TEST(Watchdog, ParkedReacquisitionBacksOffExponentially) {
  TransportConfig config;
  config.parkAfterMisses = 1;
  config.reacquireBackoffMaxFrames = 8;
  LinkWatchdog dog(config);

  dog.onMiss(0);
  ASSERT_EQ(dog.state(), LinkState::kParked);
  // While parked, attempts are gated; each failed attempt doubles the wait.
  std::vector<std::uint64_t> attemptFrames;
  for (std::uint64_t frame = 1; frame < 64; ++frame) {
    if (!dog.shouldAttempt(frame)) continue;
    attemptFrames.push_back(frame);
    dog.onMiss(frame);
  }
  ASSERT_GE(attemptFrames.size(), 3u);
  std::uint64_t prevGap = 0;
  for (std::size_t i = 1; i < attemptFrames.size(); ++i) {
    const std::uint64_t gap = attemptFrames[i] - attemptFrames[i - 1];
    EXPECT_GE(gap, prevGap);  // non-decreasing
    EXPECT_LE(gap, static_cast<std::uint64_t>(
                       config.reacquireBackoffMaxFrames));
    prevGap = gap;
  }
  EXPECT_EQ(prevGap,
            static_cast<std::uint64_t>(config.reacquireBackoffMaxFrames));
}

TEST(ControlLink, CleanChannelDeliversFirstAttempt) {
  Link link(TransportConfig{}, 0xabcdef, kControlStreamBase);
  const ChannelCondition clean;
  for (std::uint64_t f = 0; f < 50; ++f) {
    Frame frame = sampleFrame(1);
    frame.seq = f;
    const long before = link.stats().attempts;
    const auto delivered = link.transfer(frame, clean, 0.05);
    ASSERT_TRUE(delivered.has_value());
    EXPECT_EQ(link.stats().attempts - before, 1L);
    EXPECT_EQ(delivered->seq, f);
  }
  EXPECT_EQ(link.stats().retransmissions, 0);
  EXPECT_EQ(link.stats().framesMissed, 0);
  EXPECT_EQ(link.stats().framesDelivered, 50);
}

TEST(ControlLink, LossyChannelIsDeterministicAndRecovers) {
  const TransportConfig config;
  ChannelCondition lossy;
  lossy.lossProb = 0.4;
  lossy.corruptProb = 0.1;
  lossy.duplicateProb = 0.1;

  const auto run = [&](std::uint64_t seed) {
    Link link(config, seed, kControlStreamBase);
    std::vector<long> attempts;
    for (std::uint64_t f = 0; f < 200; ++f) {
      Frame frame = sampleFrame(1);
      frame.seq = f;
      const long before = link.stats().attempts;
      link.transfer(frame, lossy, 0.05);
      attempts.push_back(link.stats().attempts - before);
    }
    return std::make_pair(attempts, link.stats());
  };

  const auto [attemptsA, statsA] = run(0x5eed);
  const auto [attemptsB, statsB] = run(0x5eed);
  EXPECT_EQ(attemptsA, attemptsB);  // pure hash channel: reproducible
  EXPECT_EQ(statsA.framesDelivered, statsB.framesDelivered);

  // Retransmission converts most per-attempt loss into delivery.
  EXPECT_GT(statsA.retransmissions, 0L);
  EXPECT_GT(statsA.corruptedDetected, 0L);
  EXPECT_GT(statsA.framesDelivered, 180L);

  const auto [attemptsC, statsC] = run(0x07e4);
  (void)attemptsC;
  EXPECT_NE(statsA.attempts, statsC.attempts);  // seeds decorrelate
}

TEST(ControlLink, DeadChannelParksThenReacquiresWhenRestored) {
  // Drive link + watchdog the way the actuator does: transfer, then report
  // the outcome to the watchdog; respect its backoff gate while parked.
  TransportConfig config;
  config.parkAfterMisses = 2;
  Link link(config, 0xdead, kControlStreamBase);
  LinkWatchdog watchdog(config);
  ChannelCondition dead;
  dead.lossProb = 1.0;

  std::uint64_t f = 0;
  for (; f < 20; ++f) {
    if (!watchdog.shouldAttempt(f)) continue;
    Frame frame = sampleFrame(1);
    frame.seq = f;
    ASSERT_FALSE(link.transfer(frame, dead, 0.05).has_value());
    watchdog.onMiss(f);
  }
  EXPECT_EQ(watchdog.state(), LinkState::kParked);
  EXPECT_GT(link.stats().timeouts, 0L);

  // Channel heals: the next allowed attempt re-acquires.
  const ChannelCondition clean;
  bool reacquired = false;
  for (; f < 200 && !reacquired; ++f) {
    if (!watchdog.shouldAttempt(f)) continue;
    Frame frame = sampleFrame(1);
    frame.seq = f;
    if (link.transfer(frame, clean, 0.05).has_value()) {
      reacquired = watchdog.onDelivery(f);
    } else {
      watchdog.onMiss(f);
    }
  }
  EXPECT_TRUE(reacquired);
  EXPECT_EQ(watchdog.state(), LinkState::kLinked);
}

// ---------------------------------------------------------------------------
// End-to-end integration through the spoofing harness.
// ---------------------------------------------------------------------------

trajectory::Trace compactTrace(std::uint64_t seed) {
  rfp::common::Rng rng(seed);
  trajectory::HumanWalkModel model;
  trajectory::Trace trace;
  do {
    trace = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(trace) > 3.5);
  return trace;
}

fault::FaultConfig linkOnlyFaults(double lossProb) {
  fault::FaultConfig fc;
  fc.intensity = 1.0;
  fc.deadAntennaProb = 0.0;
  fc.stuckSwitchRatePerS = 0.0;
  fc.switchJitterRel = 0.0;
  fc.switchSettleRel = 0.0;
  fc.gainDriftLogSigma = 0.0;
  fc.lnaSaturationRatePerS = 0.0;
  fc.phaseShifterBits = 0;
  fc.phaseStuckBitRatePerS = 0.0;
  fc.radarDropProb = 0.0;
  fc.adcSaturationRatePerS = 0.0;
  fc.controlDropProb = lossProb;
  fc.controlCorruptProb = lossProb / 3.0;
  fc.controlReorderProb = 0.05;
  fc.controlDuplicateProb = 0.05;
  fc.linkBurstRatePerS = 0.05;
  fc.linkBurstMeanDurS = 1.0;
  fc.linkBurstLossProb = 0.85;
  return fc;
}

/// Extends PR 1's intensity-0 guarantee to the transport: with zero channel
/// impairment the transport-mediated actuation path must be bit-identical
/// to the direct one (encode/decode round-trips commands exactly, no
/// retransmits fire, the watchdog never leaves LINKED).
TEST(TransportIntegration, ZeroImpairmentBitIdenticalToDirectPath) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(7);

  rfp::common::Rng rngA(21);
  core::FaultRunOptions direct;  // intensity 0, transport off
  const auto base =
      core::runFaultedSpoofingExperiment(scenario, trace, direct, rngA);

  rfp::common::Rng rngB(21);
  core::FaultRunOptions viaLink;  // intensity 0, transport on
  viaLink.transport.enabled = true;
  const auto linked =
      core::runFaultedSpoofingExperiment(scenario, trace, viaLink, rngB);

  // The link did real work (every frame crossed the wire)...
  EXPECT_GT(linked.linkStats.framesDelivered, 0L);
  EXPECT_EQ(linked.linkStats.framesMissed, 0L);
  EXPECT_EQ(linked.linkStats.retransmissions, 0L);
  EXPECT_EQ(base.linkStats.framesDelivered, 0L);  // direct path: no link

  // ...and changed nothing, bit for bit.
  EXPECT_EQ(base.framesTotal, linked.framesTotal);
  EXPECT_EQ(base.framesDetected, linked.framesDetected);
  ASSERT_EQ(base.measured.size(), linked.measured.size());
  for (std::size_t i = 0; i < base.measured.size(); ++i) {
    EXPECT_EQ(base.measured[i].x, linked.measured[i].x);
    EXPECT_EQ(base.measured[i].y, linked.measured[i].y);
  }
  ASSERT_EQ(base.locationErrorsM.size(), linked.locationErrorsM.size());
  for (std::size_t i = 0; i < base.locationErrorsM.size(); ++i) {
    EXPECT_EQ(base.locationErrorsM[i], linked.locationErrorsM[i]);
  }
  ASSERT_EQ(base.ledgerApparent.size(), linked.ledgerApparent.size());
  for (std::size_t i = 0; i < base.ledgerApparent.size(); ++i) {
    EXPECT_EQ(base.ledgerApparent[i].x, linked.ledgerApparent[i].x);
    EXPECT_EQ(base.ledgerApparent[i].y, linked.ledgerApparent[i].y);
    EXPECT_EQ(base.ledgerEmitted[i], 1);
    EXPECT_EQ(linked.ledgerEmitted[i], 1);
  }
}

TEST(TransportIntegration, TransportBeatsNaiveReplayOnLossyLink) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(7);
  const double loss = 0.3;

  core::FaultRunOptions naive;
  naive.faults = linkOnlyFaults(loss);
  rfp::common::Rng rngNaive(21);
  const auto naiveRun =
      core::runFaultedSpoofingExperiment(scenario, trace, naive, rngNaive);

  core::FaultRunOptions resilient;
  resilient.faults = linkOnlyFaults(loss);
  resilient.transport.enabled = true;
  rfp::common::Rng rngLink(21);
  const auto linkRun = core::runFaultedSpoofingExperiment(
      scenario, trace, resilient, rngLink);

  // The channel actually bit: the naive link stalled or went dark.
  EXPECT_GT(naiveRun.decisionsStaleReplay + naiveRun.decisionsPaused, 0u);
  // The transport spent retransmissions to deliver frames instead.
  EXPECT_GT(linkRun.linkStats.retransmissions, 0L);
  EXPECT_GT(linkRun.linkStats.framesDelivered,
            static_cast<long>(linkRun.framesTotal) / 2);

  ASSERT_FALSE(naiveRun.locationErrorsM.empty());
  ASSERT_FALSE(linkRun.locationErrorsM.empty());
  const double naiveMedian = rfp::common::median(naiveRun.locationErrorsM);
  const double linkMedian = rfp::common::median(linkRun.locationErrorsM);
  EXPECT_LE(linkMedian, naiveMedian + 0.01);

  // Detectability: the transport's actuated track must fingerprint no more
  // than the naive link's.
  privacy::FingerprintConfig fp;
  fp.frameDtS = 1.0 / scenario.sensing.radar.frameRateHz;
  const auto naiveFp = privacy::fingerprintTrack(
      naiveRun.ledgerIntended, naiveRun.ledgerApparent,
      naiveRun.ledgerEmitted, fp);
  const auto linkFp = privacy::fingerprintTrack(
      linkRun.ledgerIntended, linkRun.ledgerApparent, linkRun.ledgerEmitted,
      fp);
  EXPECT_LE(linkFp.fingerprintRate, naiveFp.fingerprintRate);
}

// ---------------------------------------------------------------------------
// Golden pins: the seeded channel draw sequences, as constants. Two runs of
// one build always agree with each other; these catch a shifted stream id,
// a reordered draw or a changed retry/backoff rule across builds.
// ---------------------------------------------------------------------------

using rfp::testing::GoldenHash;

ChannelCondition goldenChannel() {
  ChannelCondition c;
  c.lossProb = 0.3;
  c.corruptProb = 0.15;
  c.reorderProb = 0.1;
  c.duplicateProb = 0.1;
  return c;
}

TEST(GoldenPin, ControlStreamLinkDrawSequence) {
  Link link(TransportConfig{}, 0x90a1d5eedull, kControlStreamBase);
  GoldenHash hash;
  for (std::uint64_t f = 0; f < 200; ++f) {
    Frame frame = sampleFrame(2);
    frame.seq = f;
    const long before = link.stats().attempts;
    const bool delivered =
        link.transfer(frame, goldenChannel(), 0.05).has_value();
    hash.add(static_cast<std::uint64_t>(delivered));
    hash.add(static_cast<std::uint64_t>(link.stats().attempts - before));
  }
  hash.add(link.stats());
  EXPECT_GT(link.stats().corruptedDetected, 0L);
  EXPECT_GT(link.stats().reordersRejected, 0L);
  EXPECT_GT(link.stats().duplicatesRejected, 0L);
  EXPECT_EQ(hash.h, 0x0305a1ea80c7b393ull);
}

TEST(GoldenPin, ServiceStreamLinkDrawSequence) {
  Link link(TransportConfig{}, 0x5e41ce5eedull, kServiceStreamBase);
  GoldenHash hash;
  for (std::uint64_t m = 1; m <= 200; ++m) {
    Frame frame;
    frame.seq = m;
    frame.type = 3;
    frame.payload = "epoch report " + std::to_string(m);
    const long before = link.stats().attempts;
    const bool delivered =
        link.transfer(frame, goldenChannel(), 0.05).has_value();
    hash.add(static_cast<std::uint64_t>(delivered));
    hash.add(static_cast<std::uint64_t>(link.stats().attempts - before));
  }
  hash.add(link.stats());
  EXPECT_GT(link.stats().corruptedDetected, 0L);
  EXPECT_GT(link.stats().reordersRejected, 0L);
  EXPECT_GT(link.stats().duplicatesRejected, 0L);
  EXPECT_EQ(hash.h, 0x14d539c457d5d7b1ull);
}

TEST(GoldenPin, LossyRunGhostLedger) {
  const core::Scenario scenario = core::makeHomeScenario();
  core::FaultRunOptions options;
  options.faults = linkOnlyFaults(0.3);
  options.transport.enabled = true;
  rfp::common::Rng rng(21);
  const auto run = core::runFaultedSpoofingExperiment(
      scenario, compactTrace(7), options, rng);
  ASSERT_GT(run.linkStats.retransmissions, 0L);
  ASSERT_GT(run.linkStats.coastFrames + run.linkStats.parkedFrames, 0L);

  GoldenHash hash;
  ASSERT_EQ(run.ledgerApparent.size(), run.ledgerEmitted.size());
  for (std::size_t i = 0; i < run.ledgerApparent.size(); ++i) {
    hash.add(run.ledgerApparent[i].x);
    hash.add(run.ledgerApparent[i].y);
    hash.add(static_cast<std::uint64_t>(run.ledgerEmitted[i]));
  }
  hash.add(run.linkStats);
  EXPECT_EQ(hash.h, 0xc6c55c2ac6c754c8ull);
}

TEST(TransportConfigValidation, RejectsBadKnobs) {
  TransportConfig config;
  config.maxRetries = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.timeoutBudgetFrac = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.scheduleDepth = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.fadeFrames = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace rfp::transport
