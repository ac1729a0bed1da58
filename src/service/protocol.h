#pragma once

/// \file protocol.h
/// Request/response protocol of the fleet scenario service over the
/// CRC-framed transport (transport/frame.h, transport/link.h): a client
/// submits a scenario and then polls a stream of per-epoch privacy
/// metrics until a terminal report arrives. Payloads use the shared byte
/// codec (common/wire_codec.h: host-native memcpy fields; the link is
/// simulated in-process), and every message rides a transport::Frame
/// whose CRC rejects corruption before any field is read.
///
/// Loss semantics: requests and acks retry/backoff inside
/// transport::Link::transfer on the service hash streams; a request whose budget runs out is simply never
/// seen by the service, and an epoch report that cannot be delivered is
/// dropped (at-most-once streaming). A lossy client link therefore
/// degrades that client's stream -- gaps in the epochs it sees -- while
/// the service and every other scenario keep running undisturbed.
///
/// Session resume (protocol v2): after a disconnect -- or a service
/// crash + recover() -- a client presents (session id, scenario id, last
/// acked epoch) in a kResume request. The service replays the retained
/// metric history from that epoch (the engine keeps the last
/// durability.retainMetricsEpochs epochs per scenario), turning the
/// crash-window redelivery into at-least-once with client-side epoch
/// dedup. A reconnect further back than the retention cap is answered
/// kGap with the exact missing epoch range -- the gap is explicit, never
/// silent. Unknown scenario ids and future protocol versions get their
/// own explicit statuses instead of a misparse.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/fleet_engine.h"
#include "transport/link.h"

namespace rfp::service {

/// transport::Frame type tags. Values are wire-stable: new messages append,
/// existing tags never renumber (a v1 peer ignores tags it does not
/// know; a v2 server answers a bad version with kVersionMismatch).
enum class MessageType : std::uint16_t {
  kSubmit = 1,       ///< client -> service: ScenarioSubmission
  kSubmitAck = 2,    ///< service -> client: SubmitOutcome
  kEpochReport = 3,  ///< service -> client: one epoch's metrics
  kResume = 4,       ///< client -> service: ResumeRequest (protocol v2)
  kResumeAck = 5,    ///< service -> client: ResumeAck (protocol v2)
};

/// Highest protocol version this build speaks. v1 = submit/ack/report;
/// v2 adds session resume.
constexpr std::uint32_t kProtocolVersion = 2;

/// One streamed report: a per-epoch metrics sample, or (when terminal)
/// the scenario's final state + summary.
struct EpochReport {
  std::uint64_t scenarioId = 0;
  EpochMetrics metrics{};
  bool terminal = false;
  ScenarioState finalState = ScenarioState::kActive;  ///< valid if terminal
  std::string finalReason;                            ///< valid if terminal
  ScenarioSummary summary{};  ///< valid if terminal && kCompleted
};

/// A reconnecting client's claim about where its stream stood.
struct ResumeRequest {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t sessionId = 0;   ///< client-chosen; echoed for correlation
  std::uint64_t scenarioId = 0;
  /// Highest epoch the client saw before the disconnect; meaningful only
  /// when hasAcked (a client that never saw an epoch resumes from 0).
  std::uint64_t lastAckedEpoch = 0;
  bool hasAcked = false;
};

/// How the service answered a resume.
enum class ResumeStatus : std::uint8_t {
  kResumed = 0,          ///< full replay from lastAcked+1 (or epoch 0)
  kGap = 1,              ///< retention cap passed; [gapFrom, gapTo] lost
  kUnknownScenario = 2,  ///< id never existed on this shard
  kVersionMismatch = 3,  ///< client version unsupported; nothing replayed
};

struct ResumeAck {
  std::uint64_t sessionId = 0;  ///< echoed from the request
  std::uint64_t scenarioId = 0;
  ResumeStatus status = ResumeStatus::kResumed;
  std::uint64_t replayedEpochs = 0;    ///< reports that follow this ack
  std::uint64_t firstEpochReplayed = 0;  ///< valid when replayedEpochs > 0
  std::uint64_t gapFrom = 0;  ///< valid when status == kGap (inclusive)
  std::uint64_t gapTo = 0;    ///< valid when status == kGap (inclusive)
};

/// Payload codecs (the transport::Frame carries the bytes; its CRC guards
/// them). Decoders return std::nullopt on malformed payloads.
std::string encodeSubmission(const ScenarioSubmission& submission);
std::optional<ScenarioSubmission> decodeSubmission(std::string_view bytes);
std::string encodeOutcome(const SubmitOutcome& outcome);
std::optional<SubmitOutcome> decodeOutcome(std::string_view bytes);
std::string encodeReport(const EpochReport& report);
std::optional<EpochReport> decodeReport(std::string_view bytes);
std::string encodeResume(const ResumeRequest& request);
std::optional<ResumeRequest> decodeResume(std::string_view bytes);
std::string encodeResumeAck(const ResumeAck& ack);
std::optional<ResumeAck> decodeResumeAck(std::string_view bytes);

/// Server side: owns the engine binding, turns delivered submissions into
/// admissions and drains per-scenario metric streams into reports.
class FleetService {
 public:
  explicit FleetService(FleetEngine& engine) : engine_(engine) {}

  FleetEngine& engine() { return engine_; }

  /// Admission of one delivered submission.
  SubmitOutcome handleSubmit(ScenarioSubmission submission) {
    return engine_.submit(std::move(submission));
  }

  /// Drains \p scenarioId's pending epoch metrics into reports, appending
  /// a terminal report once the scenario reached a terminal state that
  /// has not been reported yet (tracked via \p reportedTerminal, owned by
  /// the caller's session).
  std::vector<EpochReport> collectReports(std::uint64_t scenarioId,
                                          bool& reportedTerminal);

  /// Answers one resume: fills \p replay with the retained epochs the
  /// client is owed (from lastAcked+1, oldest first, terminal report
  /// appended when the scenario already ended) and returns the ack that
  /// precedes them on the wire. Never throws: unknown ids and version
  /// mismatches come back as explicit statuses with an empty replay.
  ResumeAck handleResume(const ResumeRequest& request,
                         std::vector<EpochReport>& replay);

 private:
  FleetEngine& engine_;
};

/// Client session: one submitting client behind a (possibly lossy)
/// service link pair. Deterministic per (seed, message index).
class ServiceClient {
 public:
  /// \p budgetDtS is the per-message retry budget handed to the link
  /// (plays the actuation frame period's role).
  ServiceClient(FleetService& service,
                const transport::TransportConfig& transport,
                std::uint64_t seed, double budgetDtS = 0.05);

  /// Submits over the lossy uplink and waits for the ack on the downlink.
  /// std::nullopt when either direction's retry budget ran out -- the
  /// submission may still have been admitted (at-most-once visibility);
  /// scenarioIfUnacked() then reports the last unconfirmed admission.
  std::optional<SubmitOutcome> submit(
      const ScenarioSubmission& submission,
      const transport::ChannelCondition& condition);

  /// Polls the service for \p scenarioId's stream: every pending report
  /// is sent over the downlink once; undeliverable reports are dropped
  /// (gaps in the stream). Delivered reports append to \p out; returns
  /// the number dropped.
  std::size_t poll(std::uint64_t scenarioId,
                   const transport::ChannelCondition& condition,
                   std::vector<EpochReport>& out);

  /// Session resume after a disconnect or a service crash: sends a
  /// kResume carrying this client's last-acked epoch for \p scenarioId
  /// (tracked across poll()/resume() calls) and appends the replayed
  /// reports to \p out, deduplicating epochs the client already holds --
  /// redelivery is at-least-once, what lands in \p out is exactly-once.
  /// std::nullopt when either direction's retry budget ran out; the
  /// session state is unchanged and resume can simply be retried.
  std::optional<ResumeAck> resume(
      std::uint64_t scenarioId, const transport::ChannelCondition& condition,
      std::vector<EpochReport>& out);

  /// Highest epoch this session has received for \p scenarioId (nullopt
  /// until the first report lands).
  std::optional<std::uint64_t> lastAckedEpoch(std::uint64_t scenarioId) const;

  /// Reconnects this session to a (possibly recovered) service instance.
  /// Session state -- last-acked cursors, terminal flags, sequence
  /// numbers -- carries over; follow with resume() per scenario to close
  /// the crash window.
  void rebind(FleetService& service) { service_ = &service; }

  /// Scenario id admitted by the service on the last submit whose ack
  /// never arrived (0 = none).
  std::uint64_t scenarioIfUnacked() const { return unackedScenario_; }

  const transport::LinkStats& uplinkStats() const { return uplink_.stats(); }
  const transport::LinkStats& downlinkStats() const {
    return downlink_.stats();
  }

 private:
  void noteDelivered(const EpochReport& report);

  FleetService* service_;
  transport::Link uplink_;
  transport::Link downlink_;
  double budgetDtS_;
  std::uint64_t nextUplinkSeq_ = 1;
  std::uint64_t nextDownlinkSeq_ = 1;
  std::uint64_t sessionId_ = 0;
  std::uint64_t unackedScenario_ = 0;
  std::map<std::uint64_t, bool> reportedTerminal_;  ///< per scenario id
  std::map<std::uint64_t, std::uint64_t> lastAcked_;  ///< id -> last epoch
};

}  // namespace rfp::service
