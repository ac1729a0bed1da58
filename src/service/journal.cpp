#include "service/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/atomic_io.h"
#include "common/crc32.h"
#include "common/wire_codec.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RFP_HAVE_FSYNC 1
#endif

namespace rfp::service {

namespace storage {

namespace {

using fault::StorageError;
using fault::StorageFaultInjector;
using fault::StorageFaultKind;
using fault::StorageOp;

std::string errnoText() {
  return errno != 0 ? std::string(": ") + std::strerror(errno)
                    : std::string();
}

/// Flips the injector-seeded bit of the byte range [start, start+len) of
/// \p path in place -- the silent on-medium corruption of kBitFlip.
void flipBitInFile(const std::string& path, std::size_t start,
                   std::size_t len, const StorageFaultInjector& injector) {
  if (len == 0) return;
  const std::size_t bit = injector.flipBitIndex(len);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return;  // corruption that failed to land is just no corruption
  f.seekg(static_cast<std::streamoff>(start + bit / 8));
  char byte = 0;
  if (!f.get(byte)) return;
  byte = static_cast<char>(byte ^ (1u << (bit % 8)));
  f.seekp(static_cast<std::streamoff>(start + bit / 8));
  f.put(byte);
}

/// Appends exactly \p bytes (possibly a torn prefix) to \p path, creating
/// it if missing. Returns the offset the write started at.
std::size_t rawAppend(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw StorageError(StorageOp::kAppend,
                       "cannot open " + path + errnoText());
  }
  const auto start = static_cast<std::size_t>(out.tellp());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    throw StorageError(StorageOp::kAppend,
                       "write failed " + path + errnoText());
  }
  return start;
}

}  // namespace

void appendBytes(const std::string& path, std::string_view bytes,
                 StorageFaultInjector* injector) {
  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kAppend);
  if (fault == StorageFaultKind::kEnospc) {
    throw StorageError(StorageOp::kAppend,
                       "no space left on device (injected): " + path);
  }
  if (fault == StorageFaultKind::kTornWrite) {
    const std::size_t torn = injector->tornLength(bytes.size());
    rawAppend(path, bytes.substr(0, torn));
    throw StorageError(StorageOp::kAppend,
                       "torn write (injected): " + std::to_string(torn) +
                           " of " + std::to_string(bytes.size()) +
                           " bytes persisted: " + path);
  }
  const std::size_t start = rawAppend(path, bytes);
  if (fault == StorageFaultKind::kBitFlip) {
    flipBitInFile(path, start, bytes.size(), *injector);
  }
  // kFsyncFail is a sync-op fault; on an append it has nothing to fail.
}

void syncFile(const std::string& path, StorageFaultInjector* injector) {
  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kSync);
  if (fault == StorageFaultKind::kFsyncFail ||
      fault == StorageFaultKind::kEnospc) {
    throw StorageError(StorageOp::kSync,
                       std::string(storageFaultName(*fault)) +
                           " (injected): " + path);
  }
#ifdef RFP_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw StorageError(StorageOp::kSync, "cannot open " + path + errnoText());
  }
  if (::fsync(fd) != 0) {
    const int savedErrno = errno;
    ::close(fd);
    errno = savedErrno;
    throw StorageError(StorageOp::kSync, "fsync failed " + path + errnoText());
  }
  ::close(fd);
#endif
}

void syncParentDir(const std::string& path, StorageFaultInjector* injector) {
  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kDirSync);
  if (fault == StorageFaultKind::kFsyncFail ||
      fault == StorageFaultKind::kEnospc) {
    throw StorageError(StorageOp::kDirSync,
                       std::string(storageFaultName(*fault)) +
                           " (injected): " + path);
  }
#ifdef RFP_HAVE_FSYNC
  const std::filesystem::path p(path);
  const std::filesystem::path dir =
      p.has_parent_path() ? p.parent_path() : std::filesystem::path(".");
  const int fd = ::open(dir.string().c_str(), O_RDONLY);
  if (fd >= 0) {
    if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
      const int savedErrno = errno;
      ::close(fd);
      errno = savedErrno;
      throw StorageError(StorageOp::kDirSync,
                         "fsync failed " + dir.string() + errnoText());
    }
    ::close(fd);
  }
#endif
}

void renameFile(const std::string& from, const std::string& to,
                StorageFaultInjector* injector) {
  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kRename);
  if (fault.has_value()) {
    throw StorageError(StorageOp::kRename,
                       std::string(storageFaultName(*fault)) +
                           " (injected): " + from + " -> " + to);
  }
  errno = 0;
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    throw StorageError(StorageOp::kRename,
                       from + " -> " + to + errnoText());
  }
}

void createFile(const std::string& path, StorageFaultInjector* injector) {
  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kTempWrite);
  if (fault == StorageFaultKind::kEnospc) {
    throw StorageError(StorageOp::kTempWrite,
                       "no space left on device (injected): " + path);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StorageError(StorageOp::kTempWrite,
                         "cannot create " + path + errnoText());
    }
  }
  syncParentDir(path, injector);
}

void writeFileCheckedInjected(const std::string& path, std::string_view body,
                              StorageFaultInjector* injector) {
  using rfp::common::withIntegrityTrailer;
  const std::string framed = withIntegrityTrailer(body);
  const std::string tmp = path + ".tmp";

  std::optional<StorageFaultKind> fault;
  if (injector != nullptr) fault = injector->next(StorageOp::kTempWrite);
  if (fault == StorageFaultKind::kEnospc) {
    throw StorageError(StorageOp::kTempWrite,
                       "no space left on device (injected): " + tmp);
  }
  std::string_view persisted = framed;
  if (fault == StorageFaultKind::kTornWrite) {
    persisted = framed.substr(0, injector->tornLength(framed.size()));
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StorageError(StorageOp::kTempWrite,
                         "cannot open " + tmp + errnoText());
    }
    out.write(persisted.data(),
              static_cast<std::streamsize>(persisted.size()));
    out.flush();
    if (!out) {
      throw StorageError(StorageOp::kTempWrite,
                         "write failed " + tmp + errnoText());
    }
  }
  if (fault == StorageFaultKind::kTornWrite) {
    throw StorageError(StorageOp::kTempWrite,
                       "torn write (injected): " +
                           std::to_string(persisted.size()) + " of " +
                           std::to_string(framed.size()) +
                           " bytes persisted: " + tmp);
  }
  if (fault == StorageFaultKind::kBitFlip) {
    flipBitInFile(tmp, 0, framed.size(), *injector);
  }
  syncFile(tmp, injector);
  renameFile(tmp, path, injector);
  syncParentDir(path, injector);
}

}  // namespace storage

namespace {

namespace wc = rfp::common::codec;

/// Complete records larger than this are treated as corruption, not
/// allocation requests: a flipped bit in a length prefix must not make
/// the reader try to slurp gigabytes.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

void putChaos(std::string& out,
              const std::vector<fault::ScenarioFaultEvent>& chaos) {
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(chaos.size()));
  for (const fault::ScenarioFaultEvent& e : chaos) {
    wc::put<std::uint64_t>(out, e.epoch);
    wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  }
}

bool getChaos(std::string_view bytes, std::size_t& offset,
              std::vector<fault::ScenarioFaultEvent>* chaos) {
  std::uint32_t n = 0;
  if (!wc::get(bytes, offset, &n)) return false;
  chaos->clear();
  chaos->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    fault::ScenarioFaultEvent e;
    std::uint8_t kind = 0;
    if (!wc::get(bytes, offset, &e.epoch)) return false;
    if (!wc::get(bytes, offset, &kind)) return false;
    if (kind > static_cast<std::uint8_t>(
                   fault::ScenarioFaultKind::kAllocFailure)) {
      return false;
    }
    e.kind = static_cast<fault::ScenarioFaultKind>(kind);
    chaos->push_back(e);
  }
  return true;
}

void putSummary(std::string& out, const ScenarioSummary& s) {
  wc::put<std::uint64_t>(out, static_cast<std::uint64_t>(s.framesTotal));
  wc::put<std::uint64_t>(out, static_cast<std::uint64_t>(s.framesDetected));
  wc::put<double>(out, s.medianDistanceErrorM);
  wc::put<double>(out, s.medianLocationErrorM);
}

bool getSummary(std::string_view bytes, std::size_t& offset,
                ScenarioSummary* s) {
  std::uint64_t framesTotal = 0;
  std::uint64_t framesDetected = 0;
  if (!wc::get(bytes, offset, &framesTotal)) return false;
  if (!wc::get(bytes, offset, &framesDetected)) return false;
  if (!wc::get(bytes, offset, &s->medianDistanceErrorM)) return false;
  if (!wc::get(bytes, offset, &s->medianLocationErrorM)) return false;
  s->framesTotal = static_cast<std::size_t>(framesTotal);
  s->framesDetected = static_cast<std::size_t>(framesDetected);
  return true;
}

}  // namespace

void putLedgerRecord(std::string& out, const ServiceLedgerRecord& record) {
  wc::put<std::uint64_t>(out, record.round);
  wc::put<std::uint64_t>(out, record.scenarioId);
  wc::put<std::int32_t>(out, record.priority);
  wc::put<std::uint8_t>(out, record.isTierRecord ? 1 : 0);
  wc::put<std::uint8_t>(out, record.isRecoveryRecord ? 1 : 0);
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(record.state));
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(record.tier));
  wc::put<std::uint64_t>(out, record.recoveredFromRound);
  wc::putString(out, record.reason);
}

bool getLedgerRecord(std::string_view bytes, std::size_t& offset,
                     ServiceLedgerRecord* record) {
  std::int32_t priority = 0;
  std::uint8_t isTier = 0;
  std::uint8_t isRecovery = 0;
  std::uint8_t state = 0;
  std::uint8_t tier = 0;
  if (!wc::get(bytes, offset, &record->round)) return false;
  if (!wc::get(bytes, offset, &record->scenarioId)) return false;
  if (!wc::get(bytes, offset, &priority)) return false;
  if (!wc::get(bytes, offset, &isTier)) return false;
  if (!wc::get(bytes, offset, &isRecovery)) return false;
  if (!wc::get(bytes, offset, &state)) return false;
  if (!wc::get(bytes, offset, &tier)) return false;
  if (!wc::get(bytes, offset, &record->recoveredFromRound)) return false;
  if (!wc::getString(bytes, offset, &record->reason)) return false;
  if (state > static_cast<std::uint8_t>(ScenarioState::kCancelled)) {
    return false;
  }
  if (tier > static_cast<std::uint8_t>(AdmissionTier::kRejectNew)) {
    return false;
  }
  record->priority = priority;
  record->isTierRecord = isTier != 0;
  record->isRecoveryRecord = isRecovery != 0;
  record->state = static_cast<ScenarioState>(state);
  record->tier = static_cast<AdmissionTier>(tier);
  return true;
}

void putEpochMetrics(std::string& out, const EpochMetrics& m) {
  wc::put<std::uint64_t>(out, m.epoch);
  wc::put<std::uint64_t>(out, static_cast<std::uint64_t>(m.framesSimulated));
  wc::put<std::uint64_t>(out, static_cast<std::uint64_t>(m.framesTotal));
  wc::put<std::uint64_t>(out, static_cast<std::uint64_t>(m.framesDetected));
  wc::put<double>(out, m.sumDistanceErrorM);
  wc::put<double>(out, m.sumAngleErrorDeg);
}

bool getEpochMetrics(std::string_view bytes, std::size_t& offset,
                     EpochMetrics* m) {
  std::uint64_t framesSimulated = 0;
  std::uint64_t framesTotal = 0;
  std::uint64_t framesDetected = 0;
  if (!wc::get(bytes, offset, &m->epoch)) return false;
  if (!wc::get(bytes, offset, &framesSimulated)) return false;
  if (!wc::get(bytes, offset, &framesTotal)) return false;
  if (!wc::get(bytes, offset, &framesDetected)) return false;
  if (!wc::get(bytes, offset, &m->sumDistanceErrorM)) return false;
  if (!wc::get(bytes, offset, &m->sumAngleErrorDeg)) return false;
  m->framesSimulated = static_cast<std::size_t>(framesSimulated);
  m->framesTotal = static_cast<std::size_t>(framesTotal);
  m->framesDetected = static_cast<std::size_t>(framesDetected);
  return true;
}

namespace {

void putLedgerEntries(std::string& out,
                      const std::vector<JournalLedgerEntry>& entries) {
  wc::put<std::uint32_t>(out, static_cast<std::uint32_t>(entries.size()));
  for (const JournalLedgerEntry& e : entries) {
    putLedgerRecord(out, e.record);
    wc::put<std::uint8_t>(out, e.hasSummary ? 1 : 0);
    if (e.hasSummary) putSummary(out, e.summary);
  }
}

bool getLedgerEntries(std::string_view bytes, std::size_t& offset,
                      std::vector<JournalLedgerEntry>* entries) {
  std::uint32_t n = 0;
  if (!wc::get(bytes, offset, &n)) return false;
  entries->clear();
  entries->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    JournalLedgerEntry e;
    std::uint8_t hasSummary = 0;
    if (!getLedgerRecord(bytes, offset, &e.record) ||
        !wc::get(bytes, offset, &hasSummary)) {
      return false;
    }
    e.hasSummary = hasSummary != 0;
    if (e.hasSummary && !getSummary(bytes, offset, &e.summary)) return false;
    entries->push_back(std::move(e));
  }
  return true;
}

}  // namespace

std::string encodeJournalRecord(const JournalRecord& record) {
  std::string out;
  wc::put<std::uint8_t>(out, static_cast<std::uint8_t>(record.kind));
  switch (record.kind) {
    case JournalRecordKind::kSubmit: {
      wc::put<std::uint64_t>(out, record.submit.scenarioId);
      wc::putString(out, record.submit.name);
      wc::put<std::int32_t>(out,
                            static_cast<std::int32_t>(record.submit.priority));
      wc::put<std::uint64_t>(out, record.submit.jobSeed);
      wc::putString(out, record.submit.scenarioText);
      putChaos(out, record.submit.chaos);
      break;
    }
    case JournalRecordKind::kRound: {
      wc::put<std::uint64_t>(out, record.round);
      wc::put<std::uint32_t>(
          out, static_cast<std::uint32_t>(record.participants.size()));
      for (const RoundParticipant& p : record.participants) {
        wc::put<std::uint64_t>(out, p.scenarioId);
        wc::put<std::uint64_t>(out, p.epochsDone);
      }
      break;
    }
  }
  putLedgerEntries(out, record.ledger);
  return out;
}

std::optional<JournalRecord> decodeJournalRecord(std::string_view bytes) {
  std::size_t offset = 0;
  std::uint8_t kind = 0;
  if (!wc::get(bytes, offset, &kind)) return std::nullopt;
  JournalRecord record;
  switch (kind) {
    case static_cast<std::uint8_t>(JournalRecordKind::kSubmit): {
      record.kind = JournalRecordKind::kSubmit;
      std::int32_t priority = 0;
      if (!wc::get(bytes, offset, &record.submit.scenarioId) ||
          !wc::getString(bytes, offset, &record.submit.name) ||
          !wc::get(bytes, offset, &priority) ||
          !wc::get(bytes, offset, &record.submit.jobSeed) ||
          !wc::getString(bytes, offset, &record.submit.scenarioText) ||
          !getChaos(bytes, offset, &record.submit.chaos)) {
        return std::nullopt;
      }
      record.submit.priority = priority;
      break;
    }
    case static_cast<std::uint8_t>(JournalRecordKind::kRound): {
      record.kind = JournalRecordKind::kRound;
      std::uint32_t n = 0;
      if (!wc::get(bytes, offset, &record.round) ||
          !wc::get(bytes, offset, &n)) {
        return std::nullopt;
      }
      record.participants.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        RoundParticipant p;
        if (!wc::get(bytes, offset, &p.scenarioId) ||
            !wc::get(bytes, offset, &p.epochsDone)) {
          return std::nullopt;
        }
        record.participants.push_back(p);
      }
      break;
    }
    default:
      return std::nullopt;
  }
  if (!getLedgerEntries(bytes, offset, &record.ledger)) return std::nullopt;
  // Trailing bytes mean the payload disagrees with its own encoding --
  // corruption the CRC happened not to catch is still corruption.
  if (offset != bytes.size()) return std::nullopt;
  return record;
}

std::string journalPath(const std::string& dir, std::uint64_t generation) {
  return dir + "/journal-" + std::to_string(generation) + ".wal";
}

JournalWriter::JournalWriter(const std::string& dir, std::uint64_t generation,
                             bool truncate,
                             fault::StorageFaultInjector* injector)
    : path_(journalPath(dir, generation)),
      generation_(generation),
      injector_(injector) {
  std::error_code ec;
  if (truncate || !std::filesystem::exists(path_, ec)) {
    storage::createFile(path_, injector_);
  }
}

void JournalWriter::append(const JournalRecord& record) {
  const std::string payload = encodeJournalRecord(record);
  std::string framed;
  framed.reserve(payload.size() + 8);
  wc::put<std::uint32_t>(framed, static_cast<std::uint32_t>(payload.size()));
  wc::put<std::uint32_t>(framed, rfp::common::crc32(payload));
  framed += payload;
  storage::appendBytes(path_, framed, injector_);
}

void JournalWriter::sync() { storage::syncFile(path_, injector_); }

JournalReadResult readJournal(const std::string& path) {
  JournalReadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    result.detail = "missing (reads as empty)";
    return result;
  }
  const std::string bytes = rfp::common::readFileBytes(path);
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::string_view rest(bytes.data() + offset, bytes.size() - offset);
    if (rest.size() < 8) {
      result.tornTail = true;
      result.detail = "torn tail: " + std::to_string(rest.size()) +
                      " trailing bytes (partial header) at offset " +
                      std::to_string(offset);
      break;
    }
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::size_t header = 0;
    wc::get(rest, header, &len);
    wc::get(rest, header, &crc);
    if (len > kMaxRecordBytes) {
      result.corrupt = true;
      result.detail = "corrupt: implausible record length " +
                      std::to_string(len) + " at offset " +
                      std::to_string(offset);
      break;
    }
    if (rest.size() - 8 < len) {
      result.tornTail = true;
      result.detail = "torn tail: record of " + std::to_string(len) +
                      " bytes cut at " + std::to_string(rest.size() - 8) +
                      " at offset " + std::to_string(offset);
      break;
    }
    const std::string_view payload = rest.substr(8, len);
    if (rfp::common::crc32(payload) != crc) {
      result.corrupt = true;
      result.detail = "corrupt: CRC mismatch on complete record at offset " +
                      std::to_string(offset);
      break;
    }
    std::optional<JournalRecord> record = decodeJournalRecord(payload);
    if (!record.has_value()) {
      result.corrupt = true;
      result.detail = "corrupt: undecodable record at offset " +
                      std::to_string(offset);
      break;
    }
    result.records.push_back(std::move(*record));
    offset += 8 + len;
    result.frontierOffset = offset;
  }
  if (result.detail.empty()) result.detail = "clean";
  return result;
}

}  // namespace rfp::service
