#pragma once

/// \file wire_codec.h
/// The repository's one byte codec: host-native memcpy fields with
/// length-prefixed strings. It encodes the transport frame and control
/// schedule (transport/frame.h), the service protocol payloads
/// (service/protocol.cpp), the write-ahead journal records
/// (service/journal.cpp), and the engine snapshots (service/snapshot.cpp).
/// Every reader is bounds-checked and returns false instead of
/// over-reading, so a truncated or garbage-length buffer is rejected,
/// never misparsed -- integrity (CRC) lives one layer down, in the
/// frame/record/file framing.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rfp::common::codec {

template <typename T>
inline void put(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

inline void putString(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Reads a T at \p offset, advancing it. Returns false on truncation.
template <typename T>
inline bool get(std::string_view bytes, std::size_t& offset, T* value) {
  if (offset > bytes.size() || bytes.size() - offset < sizeof(T)) {
    return false;
  }
  std::memcpy(value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

inline bool getString(std::string_view bytes, std::size_t& offset,
                      std::string* s) {
  std::uint32_t len = 0;
  if (!get(bytes, offset, &len)) return false;
  if (bytes.size() - offset < len) return false;
  s->assign(bytes.data() + offset, len);
  offset += len;
  return true;
}

}  // namespace rfp::common::codec
