#include "service/protocol.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/wire_codec.h"
#include "service/journal.h"

namespace rfp::service {

namespace {

namespace wc = rfp::common::codec;

transport::Frame message(std::uint64_t seq, MessageType type,
                         std::string payload) {
  return {seq, static_cast<std::uint16_t>(type), std::move(payload)};
}

}  // namespace

std::string encodeSubmission(const ScenarioSubmission& submission) {
  std::string out;
  wc::putString(out, submission.name);
  wc::putString(out, submission.scenarioText);
  wc::put<std::int32_t>(out, submission.priority);
  wc::put<std::uint64_t>(out, submission.seed);
  const auto& events = submission.chaos.events();
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(events.size()));
  for (const fault::ScenarioFaultEvent& e : events) {
    wc::put<std::uint64_t>(out, e.epoch);
    wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  }
  return out;
}

std::optional<ScenarioSubmission> decodeSubmission(std::string_view bytes) {
  ScenarioSubmission s;
  std::size_t offset = 0;
  std::int32_t priority = 0;
  std::uint32_t eventCount = 0;
  if (!wc::getString(bytes, offset, &s.name) ||
      !wc::getString(bytes, offset, &s.scenarioText) ||
      !wc::get(bytes, offset, &priority) || !wc::get(bytes, offset, &s.seed) ||
      !wc::get(bytes, offset, &eventCount)) {
    return std::nullopt;
  }
  s.priority = priority;
  for (std::uint32_t i = 0; i < eventCount; ++i) {
    fault::ScenarioFaultEvent e;
    std::uint8_t kind = 0;
    if (!wc::get(bytes, offset, &e.epoch) || !wc::get(bytes, offset, &kind)) {
      return std::nullopt;
    }
    if (kind > static_cast<std::uint8_t>(
                   fault::ScenarioFaultKind::kAllocFailure)) {
      return std::nullopt;
    }
    e.kind = static_cast<fault::ScenarioFaultKind>(kind);
    s.chaos.addEvent(e);
  }
  if (offset != bytes.size()) return std::nullopt;
  return s;
}

std::string encodeOutcome(const SubmitOutcome& outcome) {
  std::string out;
  wc::put<std::uint64_t>(out, outcome.scenarioId);
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(outcome.tier));
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(outcome.state));
  wc::putString(out, outcome.reason);
  return out;
}

std::optional<SubmitOutcome> decodeOutcome(std::string_view bytes) {
  SubmitOutcome o;
  std::size_t offset = 0;
  std::uint8_t tier = 0, state = 0;
  if (!wc::get(bytes, offset, &o.scenarioId) ||
      !wc::get(bytes, offset, &tier) || !wc::get(bytes, offset, &state) ||
      !wc::getString(bytes, offset, &o.reason)) {
    return std::nullopt;
  }
  if (tier > static_cast<std::uint8_t>(AdmissionTier::kRejectNew) ||
      state > static_cast<std::uint8_t>(ScenarioState::kCancelled)) {
    return std::nullopt;
  }
  o.tier = static_cast<AdmissionTier>(tier);
  o.state = static_cast<ScenarioState>(state);
  if (offset != bytes.size()) return std::nullopt;
  return o;
}

std::string encodeReport(const EpochReport& report) {
  std::string out;
  wc::put<std::uint64_t>(out, report.scenarioId);
  putEpochMetrics(out, report.metrics);
  wc::put<std::uint8_t>(out, report.terminal ? 1 : 0);
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(report.finalState));
  wc::putString(out, report.finalReason);
  wc::put<std::uint64_t>(out,
                         static_cast<std::uint64_t>(report.summary.framesTotal));
  wc::put<std::uint64_t>(
      out, static_cast<std::uint64_t>(report.summary.framesDetected));
  wc::put<double>(out, report.summary.medianDistanceErrorM);
  wc::put<double>(out, report.summary.medianLocationErrorM);
  return out;
}

std::optional<EpochReport> decodeReport(std::string_view bytes) {
  EpochReport r;
  std::size_t offset = 0;
  std::uint8_t terminal = 0, state = 0;
  std::uint64_t framesTotal = 0, framesDetected = 0;
  if (!wc::get(bytes, offset, &r.scenarioId) ||
      !getEpochMetrics(bytes, offset, &r.metrics) ||
      !wc::get(bytes, offset, &terminal) || !wc::get(bytes, offset, &state) ||
      !wc::getString(bytes, offset, &r.finalReason) ||
      !wc::get(bytes, offset, &framesTotal) ||
      !wc::get(bytes, offset, &framesDetected) ||
      !wc::get(bytes, offset, &r.summary.medianDistanceErrorM) ||
      !wc::get(bytes, offset, &r.summary.medianLocationErrorM)) {
    return std::nullopt;
  }
  if (state > static_cast<std::uint8_t>(ScenarioState::kCancelled)) {
    return std::nullopt;
  }
  r.terminal = terminal != 0;
  r.finalState = static_cast<ScenarioState>(state);
  r.summary.framesTotal = static_cast<std::size_t>(framesTotal);
  r.summary.framesDetected = static_cast<std::size_t>(framesDetected);
  if (offset != bytes.size()) return std::nullopt;
  return r;
}

std::string encodeResume(const ResumeRequest& request) {
  std::string out;
  wc::put<std::uint32_t>(out, request.version);
  wc::put<std::uint64_t>(out, request.sessionId);
  wc::put<std::uint64_t>(out, request.scenarioId);
  wc::put<std::uint64_t>(out, request.lastAckedEpoch);
  wc::put<std::uint8_t>(out, request.hasAcked ? 1 : 0);
  return out;
}

std::optional<ResumeRequest> decodeResume(std::string_view bytes) {
  ResumeRequest r;
  std::size_t offset = 0;
  std::uint8_t hasAcked = 0;
  if (!wc::get(bytes, offset, &r.version) ||
      !wc::get(bytes, offset, &r.sessionId) ||
      !wc::get(bytes, offset, &r.scenarioId) ||
      !wc::get(bytes, offset, &r.lastAckedEpoch) ||
      !wc::get(bytes, offset, &hasAcked)) {
    return std::nullopt;
  }
  r.hasAcked = hasAcked != 0;
  if (offset != bytes.size()) return std::nullopt;
  return r;
}

std::string encodeResumeAck(const ResumeAck& ack) {
  std::string out;
  wc::put<std::uint64_t>(out, ack.sessionId);
  wc::put<std::uint64_t>(out, ack.scenarioId);
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(ack.status));
  wc::put<std::uint64_t>(out, ack.replayedEpochs);
  wc::put<std::uint64_t>(out, ack.firstEpochReplayed);
  wc::put<std::uint64_t>(out, ack.gapFrom);
  wc::put<std::uint64_t>(out, ack.gapTo);
  return out;
}

std::optional<ResumeAck> decodeResumeAck(std::string_view bytes) {
  ResumeAck a;
  std::size_t offset = 0;
  std::uint8_t status = 0;
  if (!wc::get(bytes, offset, &a.sessionId) ||
      !wc::get(bytes, offset, &a.scenarioId) ||
      !wc::get(bytes, offset, &status) ||
      !wc::get(bytes, offset, &a.replayedEpochs) ||
      !wc::get(bytes, offset, &a.firstEpochReplayed) ||
      !wc::get(bytes, offset, &a.gapFrom) || !wc::get(bytes, offset, &a.gapTo)) {
    return std::nullopt;
  }
  if (status > static_cast<std::uint8_t>(ResumeStatus::kVersionMismatch)) {
    return std::nullopt;
  }
  a.status = static_cast<ResumeStatus>(status);
  if (offset != bytes.size()) return std::nullopt;
  return a;
}

std::vector<EpochReport> FleetService::collectReports(
    std::uint64_t scenarioId, bool& reportedTerminal) {
  std::vector<EpochReport> reports;
  for (EpochMetrics& m : engine_.drainMetrics(scenarioId)) {
    EpochReport r;
    r.scenarioId = scenarioId;
    r.metrics = m;
    reports.push_back(std::move(r));
  }
  if (!reportedTerminal) {
    const ScenarioStatus st = engine_.status(scenarioId);
    if (isTerminal(st.state)) {
      EpochReport r;
      r.scenarioId = scenarioId;
      r.terminal = true;
      r.finalState = st.state;
      r.finalReason = st.reason;
      r.summary = st.summary;
      reports.push_back(std::move(r));
      reportedTerminal = true;
    }
  }
  return reports;
}

ResumeAck FleetService::handleResume(const ResumeRequest& request,
                                     std::vector<EpochReport>& replay) {
  ResumeAck ack;
  ack.sessionId = request.sessionId;
  ack.scenarioId = request.scenarioId;
  if (request.version == 0 || request.version > kProtocolVersion) {
    ack.status = ResumeStatus::kVersionMismatch;
    return ack;
  }
  ScenarioStatus st;
  try {
    st = engine_.status(request.scenarioId);
  } catch (const std::out_of_range&) {
    ack.status = ResumeStatus::kUnknownScenario;
    return ack;
  }
  const std::uint64_t fromEpoch =
      request.hasAcked ? request.lastAckedEpoch + 1 : 0;
  const std::vector<EpochMetrics> history =
      engine_.metricsSince(request.scenarioId, fromEpoch);
  if (!history.empty() && history.front().epoch > fromEpoch) {
    // Retention cap passed while the client was away: the epochs between
    // its last ack and the oldest retained sample are gone. The range is
    // named exactly -- an explicit gap, never a silently shortened stream.
    ack.status = ResumeStatus::kGap;
    ack.gapFrom = fromEpoch;
    ack.gapTo = history.front().epoch - 1;
  }
  for (const EpochMetrics& m : history) {
    EpochReport r;
    r.scenarioId = request.scenarioId;
    r.metrics = m;
    replay.push_back(std::move(r));
  }
  ack.replayedEpochs = history.size();
  if (!history.empty()) ack.firstEpochReplayed = history.front().epoch;
  if (isTerminal(st.state)) {
    EpochReport r;
    r.scenarioId = request.scenarioId;
    r.terminal = true;
    r.finalState = st.state;
    r.finalReason = st.reason;
    r.summary = st.summary;
    replay.push_back(std::move(r));
  }
  return ack;
}

ServiceClient::ServiceClient(FleetService& service,
                             const transport::TransportConfig& transport,
                             std::uint64_t seed, double budgetDtS)
    : service_(&service),
      uplink_(transport, seed, transport::kServiceStreamBase),
      downlink_(transport, seed ^ 0x9e3779b97f4a7c15ull,
                transport::kServiceStreamBase),
      budgetDtS_(budgetDtS),
      sessionId_(seed) {}

void ServiceClient::noteDelivered(const EpochReport& report) {
  if (report.terminal) return;
  auto [it, inserted] =
      lastAcked_.try_emplace(report.scenarioId, report.metrics.epoch);
  if (!inserted) it->second = std::max(it->second, report.metrics.epoch);
}

std::optional<std::uint64_t> ServiceClient::lastAckedEpoch(
    std::uint64_t scenarioId) const {
  const auto it = lastAcked_.find(scenarioId);
  if (it == lastAcked_.end()) return std::nullopt;
  return it->second;
}

std::optional<SubmitOutcome> ServiceClient::submit(
    const ScenarioSubmission& submission,
    const transport::ChannelCondition& condition) {
  const auto sent = uplink_.transfer(
      message(nextUplinkSeq_++, MessageType::kSubmit,
              encodeSubmission(submission)),
      condition, budgetDtS_);
  if (!sent) return std::nullopt;  // service never saw it

  auto delivered = decodeSubmission(sent->payload);
  if (!delivered.has_value()) return std::nullopt;  // defensive; CRC-clean
  const SubmitOutcome outcome = service_->handleSubmit(std::move(*delivered));

  const auto acked = downlink_.transfer(
      message(nextDownlinkSeq_++, MessageType::kSubmitAck,
              encodeOutcome(outcome)),
      condition, budgetDtS_);
  if (!acked) {
    // Admitted but unconfirmed: the scenario runs, the client just does
    // not know its id yet (at-most-once visibility).
    unackedScenario_ = outcome.scenarioId;
    return std::nullopt;
  }
  unackedScenario_ = 0;
  return decodeOutcome(acked->payload);
}

std::size_t ServiceClient::poll(std::uint64_t scenarioId,
                                const transport::ChannelCondition& condition,
                                std::vector<EpochReport>& out) {
  std::vector<EpochReport> reports =
      service_->collectReports(scenarioId, reportedTerminal_[scenarioId]);
  std::size_t dropped = 0;
  for (EpochReport& report : reports) {
    const auto result = downlink_.transfer(
        message(nextDownlinkSeq_++, MessageType::kEpochReport,
                encodeReport(report)),
        condition, budgetDtS_);
    if (!result) {
      ++dropped;  // gap in the stream; the service moved on regardless
      continue;
    }
    auto decoded = decodeReport(result->payload);
    if (decoded.has_value()) {
      noteDelivered(*decoded);
      out.push_back(std::move(*decoded));
    } else {
      ++dropped;
    }
  }
  return dropped;
}

std::optional<ResumeAck> ServiceClient::resume(
    std::uint64_t scenarioId, const transport::ChannelCondition& condition,
    std::vector<EpochReport>& out) {
  ResumeRequest req;
  req.sessionId = sessionId_;
  req.scenarioId = scenarioId;
  const auto acked = lastAckedEpoch(scenarioId);
  req.hasAcked = acked.has_value();
  req.lastAckedEpoch = acked.value_or(0);

  const auto sent = uplink_.transfer(
      message(nextUplinkSeq_++, MessageType::kResume, encodeResume(req)),
      condition, budgetDtS_);
  if (!sent) return std::nullopt;
  auto delivered = decodeResume(sent->payload);
  if (!delivered.has_value()) return std::nullopt;  // defensive; CRC-clean

  std::vector<EpochReport> replay;
  const ResumeAck serverAck = service_->handleResume(*delivered, replay);

  const auto ackResult = downlink_.transfer(
      message(nextDownlinkSeq_++, MessageType::kResumeAck,
              encodeResumeAck(serverAck)),
      condition, budgetDtS_);
  if (!ackResult) return std::nullopt;
  auto ack = decodeResumeAck(ackResult->payload);
  if (!ack.has_value()) return std::nullopt;

  // Redelivery after a service recovery is at-least-once (the engine
  // replays its full retained history); the session's last-acked cursor
  // dedups, so what reaches the caller is exactly-once per epoch.
  for (EpochReport& report : replay) {
    const auto result = downlink_.transfer(
        message(nextDownlinkSeq_++, MessageType::kEpochReport,
                encodeReport(report)),
        condition, budgetDtS_);
    if (!result) continue;  // gap; a later resume retries
    auto decoded = decodeReport(result->payload);
    if (!decoded.has_value()) continue;
    if (!decoded->terminal && acked.has_value() &&
        decoded->metrics.epoch <= *acked) {
      continue;  // duplicate of an epoch this session already delivered
    }
    if (decoded->terminal) {
      if (reportedTerminal_[scenarioId]) continue;
      reportedTerminal_[scenarioId] = true;
    }
    noteDelivered(*decoded);
    out.push_back(std::move(*decoded));
  }
  return ack;
}

}  // namespace rfp::service
