#include "service/snapshot.h"

#include <filesystem>
#include <stdexcept>

#include "common/atomic_io.h"
#include "common/wire_codec.h"
#include "service/journal.h"

namespace rfp::service {

namespace {

namespace wc = rfp::common::codec;

constexpr std::uint32_t kSnapshotMagic = 0x534e5352;  // "RSNS"
constexpr std::uint32_t kSnapshotVersion = 1;

/// Structural caps: a verified-CRC snapshot can still disagree with its
/// own encoding (a bug, or a collision); never let a count field drive
/// an absurd allocation.
constexpr std::uint32_t kMaxSnapshotItems = 1u << 22;

[[noreturn]] void snapFail(const std::string& why) {
  throw std::runtime_error("decodeSnapshot: " + why);
}

void putSlot(std::string& out, const SlotSnapshot& slot) {
  wc::put<std::uint64_t>(out, slot.id);
  wc::putString(out, slot.name);
  wc::put<std::int32_t>(out, static_cast<std::int32_t>(slot.priority));
  wc::put<std::uint64_t>(out, slot.jobSeed);
  wc::putString(out, slot.scenarioText);
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(slot.chaos.size()));
  for (const fault::ScenarioFaultEvent& e : slot.chaos) {
    wc::put<std::uint64_t>(out, e.epoch);
    wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  }
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(slot.state));
  wc::putString(out, slot.reason);
  wc::put<std::uint64_t>(out, slot.epochsDone);
  wc::put<std::uint8_t>(out, slot.hasSummary ? 1 : 0);
  if (slot.hasSummary) {
    wc::put<std::uint64_t>(out,
                           static_cast<std::uint64_t>(slot.summary.framesTotal));
    wc::put<std::uint64_t>(
        out, static_cast<std::uint64_t>(slot.summary.framesDetected));
    wc::put<double>(out, slot.summary.medianDistanceErrorM);
    wc::put<double>(out, slot.summary.medianLocationErrorM);
  }
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(slot.history.size()));
  for (const EpochMetrics& m : slot.history) putEpochMetrics(out, m);
}

SlotSnapshot getSlot(std::string_view bytes, std::size_t& offset) {
  SlotSnapshot slot;
  std::int32_t priority = 0;
  std::uint32_t nChaos = 0;
  if (!wc::get(bytes, offset, &slot.id) ||
      !wc::getString(bytes, offset, &slot.name) ||
      !wc::get(bytes, offset, &priority) ||
      !wc::get(bytes, offset, &slot.jobSeed) ||
      !wc::getString(bytes, offset, &slot.scenarioText) ||
      !wc::get(bytes, offset, &nChaos)) {
    snapFail("truncated slot header");
  }
  if (nChaos > kMaxSnapshotItems) snapFail("implausible chaos count");
  slot.priority = priority;
  slot.chaos.reserve(nChaos);
  for (std::uint32_t i = 0; i < nChaos; ++i) {
    fault::ScenarioFaultEvent e;
    std::uint8_t kind = 0;
    if (!wc::get(bytes, offset, &e.epoch) || !wc::get(bytes, offset, &kind)) {
      snapFail("truncated chaos event");
    }
    if (kind >
        static_cast<std::uint8_t>(fault::ScenarioFaultKind::kAllocFailure)) {
      snapFail("unknown chaos kind");
    }
    e.kind = static_cast<fault::ScenarioFaultKind>(kind);
    slot.chaos.push_back(e);
  }
  std::uint8_t state = 0;
  std::uint8_t hasSummary = 0;
  if (!wc::get(bytes, offset, &state) ||
      !wc::getString(bytes, offset, &slot.reason) ||
      !wc::get(bytes, offset, &slot.epochsDone) ||
      !wc::get(bytes, offset, &hasSummary)) {
    snapFail("truncated slot state");
  }
  if (state > static_cast<std::uint8_t>(ScenarioState::kCancelled)) {
    snapFail("unknown scenario state");
  }
  slot.state = static_cast<ScenarioState>(state);
  slot.hasSummary = hasSummary != 0;
  if (slot.hasSummary) {
    std::uint64_t framesTotal = 0;
    std::uint64_t framesDetected = 0;
    if (!wc::get(bytes, offset, &framesTotal) ||
        !wc::get(bytes, offset, &framesDetected) ||
        !wc::get(bytes, offset, &slot.summary.medianDistanceErrorM) ||
        !wc::get(bytes, offset, &slot.summary.medianLocationErrorM)) {
      snapFail("truncated slot summary");
    }
    slot.summary.framesTotal = static_cast<std::size_t>(framesTotal);
    slot.summary.framesDetected = static_cast<std::size_t>(framesDetected);
  }
  std::uint32_t nHistory = 0;
  if (!wc::get(bytes, offset, &nHistory)) snapFail("truncated history count");
  if (nHistory > kMaxSnapshotItems) snapFail("implausible history count");
  slot.history.reserve(nHistory);
  for (std::uint32_t i = 0; i < nHistory; ++i) {
    EpochMetrics m;
    if (!getEpochMetrics(bytes, offset, &m)) snapFail("truncated history");
    slot.history.push_back(m);
  }
  return slot;
}

void putSlots(std::string& out, const std::vector<SlotSnapshot>& slots) {
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(slots.size()));
  for (const SlotSnapshot& s : slots) putSlot(out, s);
}

std::vector<SlotSnapshot> getSlots(std::string_view bytes,
                                   std::size_t& offset) {
  std::uint32_t n = 0;
  if (!wc::get(bytes, offset, &n)) snapFail("truncated slot count");
  if (n > kMaxSnapshotItems) snapFail("implausible slot count");
  std::vector<SlotSnapshot> slots;
  slots.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) slots.push_back(getSlot(bytes, offset));
  return slots;
}

}  // namespace

std::string encodeSnapshot(const EngineSnapshot& snapshot) {
  std::string out;
  wc::put<std::uint32_t>(out, kSnapshotMagic);
  wc::put<std::uint32_t>(out, kSnapshotVersion);
  wc::put<std::uint64_t>(out, snapshot.generation);
  wc::put<std::uint64_t>(out, snapshot.round);
  wc::put<std::uint64_t>(out, snapshot.nextId);
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(snapshot.lastTier));
  wc::put<std::uint64_t>(out, snapshot.epochsRun);
  wc::put<std::uint64_t>(out, snapshot.completed);
  wc::put<std::uint64_t>(out, snapshot.failed);
  wc::put<std::uint64_t>(out, snapshot.shed);
  wc::put<std::uint64_t>(out, snapshot.rejected);
  wc::put<std::uint64_t>(out, snapshot.cancelled);
  wc::put<std::uint32_t>(out,
                         static_cast<std::uint32_t>(snapshot.ledger.size()));
  for (const ServiceLedgerRecord& r : snapshot.ledger) putLedgerRecord(out, r);
  putSlots(out, snapshot.active);
  putSlots(out, snapshot.queue);
  putSlots(out, snapshot.archive);
  return out;
}

EngineSnapshot decodeSnapshot(const std::string& body) {
  std::size_t offset = 0;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!wc::get<std::uint32_t>(body, offset, &magic) ||
      !wc::get<std::uint32_t>(body, offset, &version)) {
    snapFail("truncated header");
  }
  if (magic != kSnapshotMagic) snapFail("bad magic");
  if (version != kSnapshotVersion) {
    snapFail("unsupported version " + std::to_string(version));
  }
  EngineSnapshot snap;
  std::uint8_t tier = 0;
  std::uint32_t nLedger = 0;
  if (!wc::get(body, offset, &snap.generation) ||
      !wc::get(body, offset, &snap.round) ||
      !wc::get(body, offset, &snap.nextId) ||
      !wc::get(body, offset, &tier) ||
      !wc::get(body, offset, &snap.epochsRun) ||
      !wc::get(body, offset, &snap.completed) ||
      !wc::get(body, offset, &snap.failed) ||
      !wc::get(body, offset, &snap.shed) ||
      !wc::get(body, offset, &snap.rejected) ||
      !wc::get(body, offset, &snap.cancelled) ||
      !wc::get(body, offset, &nLedger)) {
    snapFail("truncated counters");
  }
  if (tier > static_cast<std::uint8_t>(AdmissionTier::kRejectNew)) {
    snapFail("unknown admission tier");
  }
  if (nLedger > kMaxSnapshotItems) snapFail("implausible ledger count");
  snap.lastTier = static_cast<AdmissionTier>(tier);
  snap.ledger.reserve(nLedger);
  for (std::uint32_t i = 0; i < nLedger; ++i) {
    ServiceLedgerRecord r;
    if (!getLedgerRecord(body, offset, &r)) snapFail("truncated ledger");
    snap.ledger.push_back(std::move(r));
  }
  snap.active = getSlots(body, offset);
  snap.queue = getSlots(body, offset);
  snap.archive = getSlots(body, offset);
  if (offset != body.size()) snapFail("trailing bytes");
  return snap;
}

std::string snapshotPath(const std::string& dir) {
  return dir + "/snapshot.rfps";
}

void saveSnapshot(const std::string& dir, const EngineSnapshot& snapshot,
                  fault::StorageFaultInjector* injector) {
  const std::string path = snapshotPath(dir);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Rotate the previous generation to .bak and make the rotation
    // durable before the new primary exists (atomic_io's own contract,
    // reproduced here through injectable ops).
    storage::renameFile(path, path + ".bak", injector);
    storage::syncParentDir(path, injector);
  }
  storage::writeFileCheckedInjected(path, encodeSnapshot(snapshot), injector);
}

SnapshotLoadResult loadSnapshot(const std::string& dir) {
  const std::string path = snapshotPath(dir);
  bool usedBackup = false;
  std::optional<std::string> body =
      rfp::common::readFileRotating(path, &usedBackup);
  if (!body.has_value()) {
    throw std::runtime_error("loadSnapshot: no snapshot generation in " + dir);
  }
  SnapshotLoadResult result;
  result.snapshot = decodeSnapshot(*body);
  result.usedBackup = usedBackup;
  result.detail = usedBackup
                      ? "primary snapshot unusable; restored generation " +
                            std::to_string(result.snapshot.generation) +
                            " from .bak"
                      : "loaded snapshot generation " +
                            std::to_string(result.snapshot.generation);
  return result;
}

}  // namespace rfp::service
