//===- serve/Protocol.h - hma indexd wire protocol --------------------------===//
///
/// \file
/// The length-prefixed binary protocol `hma indexd` speaks over its
/// Unix-domain socket. Both endpoints of the
/// connection -- the serving daemon (serve/Server.h) and the client
/// (serve/Client.h) -- encode and decode through this header only, so
/// the wire format cannot drift between them.
///
/// Frame layout (all integers little-endian):
///
///   length    u32   payload bytes that follow (not counting itself)
///   version   u8    protocol schema version (currently 1); a responder
///                   rejects versions it does not speak, so the byte is
///                   the evolution point for future schema changes
///   kind      u8    request: an \ref Op; response: a \ref Status
///   body      ...   op/status-specific, possibly empty
///
/// Request bodies:
///
///   Ping         (empty)
///   Lookup       the query expression, `ast/Serialize` bytes
///   LookupBatch  u32 count, then count x { u32 len, blob }
///   Stats        u8 format (0 text, 1 json, 2 prom)
///   Reload       u32 len, path bytes (len 0: reload the current file)
///   Shutdown     (empty)
///
/// Response bodies (status == Ok):
///
///   Ping         (empty)
///   Lookup       one encoded \ref WireLookup
///   LookupBatch  u32 count, then count x WireLookup
///   Stats        the report text
///   Reload       a one-line human confirmation
///   Shutdown     (empty)
///
/// Any other status carries a human-readable diagnostic as its body and
/// -- for frame-level offences (malformed, oversized, bad version) -- is
/// followed by the server closing the connection. Hostile inputs are the
/// expected case, not the exception: every decoder here is bounds-checked
/// against the declared frame length, a declared length above
/// \ref DefaultMaxFrameBytes is rejected from the 4 header bytes alone,
/// and a frame that never completes is the *transport's* problem (the
/// server kills it on a deadline; see serve/Server.h).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SERVE_PROTOCOL_H
#define HMA_SERVE_PROTOCOL_H

#include "index/IndexIO.h"
#include "support/HashCode.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hma::serve {

/// Protocol schema version spoken by this build (frame `version` byte).
constexpr uint8_t ProtocolVersion = 1;

/// Bytes of the frame length prefix.
constexpr size_t FrameHeaderBytes = 4;

/// Cap on one frame's payload, both directions. Generous for batches,
/// small enough that a hostile "length = 4 GiB" header never turns into
/// an allocation.
constexpr size_t DefaultMaxFrameBytes = size_t(16) << 20;

/// Request opcodes.
enum class Op : uint8_t {
  Ping = 0,
  Lookup = 1,
  LookupBatch = 2,
  Stats = 3,
  Reload = 4,
  Shutdown = 5,
};

/// Response status codes. Stable wire values: append, never renumber.
enum class Status : uint8_t {
  Ok = 0,
  Malformed = 1,      ///< Body does not decode under the declared op.
  TooLarge = 2,       ///< Declared frame length exceeds the cap.
  BadVersion = 3,     ///< Version byte this endpoint does not speak.
  BadOp = 4,          ///< Unknown opcode.
  Timeout = 5,        ///< Request deadline exceeded (slow or stuck peer).
  ShuttingDown = 6,   ///< Server is draining; no new work accepted.
  ReloadRejected = 7, ///< Candidate index failed the admission gate.
  Internal = 8,       ///< Anything else; body has the diagnostic.
};

inline const char *statusName(Status S) {
  switch (S) {
  case Status::Ok: return "ok";
  case Status::Malformed: return "malformed";
  case Status::TooLarge: return "too-large";
  case Status::BadVersion: return "bad-version";
  case Status::BadOp: return "bad-op";
  case Status::Timeout: return "timeout";
  case Status::ShuttingDown: return "shutting-down";
  case Status::ReloadRejected: return "reload-rejected";
  case Status::Internal: return "internal";
  }
  return "unknown";
}

/// `Stats` request format byte values.
enum class StatsFormat : uint8_t { Text = 0, Json = 1, Prom = 2 };

/// One lookup answer on the wire. Unlike the in-process
/// \ref LookupResult this *owns* its canonical bytes: the reply is
/// serialised while the serving generation is pinned, and nothing on the
/// wire may view a mapping whose generation can be swapped out.
struct WireLookup {
  bool Present = false;
  Hash128 Hash{};
  uint64_t Count = 0;
  std::string CanonicalBytes;
};

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

/// Frame up \p Body under \p Kind (an Op for requests, a Status for
/// responses): length prefix, version byte, kind byte, body.
inline std::string encodeFrame(uint8_t Kind, std::string_view Body) {
  std::string Out;
  Out.reserve(FrameHeaderBytes + 2 + Body.size());
  iio::putWordLE(Out, 2 + Body.size(), 4);
  Out.push_back(static_cast<char>(ProtocolVersion));
  Out.push_back(static_cast<char>(Kind));
  Out.append(Body);
  return Out;
}

inline std::string encodeRequest(Op O, std::string_view Body = {}) {
  return encodeFrame(static_cast<uint8_t>(O), Body);
}

inline std::string encodeResponse(Status S, std::string_view Body = {}) {
  return encodeFrame(static_cast<uint8_t>(S), Body);
}

inline void appendBlob(std::string &Out, std::string_view Blob) {
  iio::putWordLE(Out, Blob.size(), 4);
  Out.append(Blob);
}

/// Body of a LookupBatch request.
inline std::string encodeBatchRequest(const std::vector<std::string> &Blobs) {
  std::string Body;
  size_t Total = 4;
  for (const std::string &B : Blobs)
    Total += 4 + B.size();
  Body.reserve(Total);
  iio::putWordLE(Body, Blobs.size(), 4);
  for (const std::string &B : Blobs)
    appendBlob(Body, B);
  return Body;
}

/// Body of a Reload request (empty path: reload the current file).
inline std::string encodeReloadRequest(std::string_view Path) {
  std::string Body;
  appendBlob(Body, Path);
  return Body;
}

inline void appendWireLookup(std::string &Out, const WireLookup &R) {
  Out.push_back(R.Present ? 1 : 0);
  if (!R.Present)
    return;
  iio::putHashLE(Out, R.Hash);
  iio::putWordLE(Out, R.Count, 8);
  appendBlob(Out, R.CanonicalBytes);
}

//===----------------------------------------------------------------------===//
// Decoding (every reader is bounds-checked; false means malformed)
//===----------------------------------------------------------------------===//

/// Consume a u32 length-prefixed blob from the front of \p In.
inline bool takeBlob(std::string_view &In, std::string_view &Blob) {
  if (In.size() < 4)
    return false;
  uint64_t Len = iio::getWordLE(In.data(), 4);
  if (Len > In.size() - 4)
    return false;
  Blob = In.substr(4, static_cast<size_t>(Len));
  In.remove_prefix(4 + static_cast<size_t>(Len));
  return true;
}

/// Decode a LookupBatch request body into blob views (into \p Body).
/// Rejects trailing bytes: a frame is exactly its declared content.
inline bool parseBatchRequest(std::string_view Body,
                              std::vector<std::string_view> &Blobs) {
  if (Body.size() < 4)
    return false;
  uint64_t Count = iio::getWordLE(Body.data(), 4);
  Body.remove_prefix(4);
  // Each entry costs >= 4 bytes, so an absurd declared count fails fast
  // instead of sizing a vector from hostile input.
  if (Count > Body.size() / 4 + 1)
    return false;
  Blobs.clear();
  Blobs.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; I != Count; ++I) {
    std::string_view Blob;
    if (!takeBlob(Body, Blob))
      return false;
    Blobs.push_back(Blob);
  }
  return Body.empty();
}

/// Consume one encoded \ref WireLookup from the front of \p In.
inline bool takeWireLookup(std::string_view &In, WireLookup &R) {
  if (In.empty())
    return false;
  R.Present = In[0] != 0;
  In.remove_prefix(1);
  if (!R.Present) {
    R.Hash = Hash128();
    R.Count = 0;
    R.CanonicalBytes.clear();
    return true;
  }
  constexpr size_t HashBytes = 16;
  if (In.size() < HashBytes + 8)
    return false;
  iio::getHashLE(In.data(), R.Hash);
  R.Count = iio::getWordLE(In.data() + HashBytes, 8);
  In.remove_prefix(HashBytes + 8);
  std::string_view Blob;
  if (!takeBlob(In, Blob))
    return false;
  R.CanonicalBytes.assign(Blob);
  return true;
}

/// Decode a LookupBatch response body.
inline bool parseBatchResponse(std::string_view Body,
                               std::vector<WireLookup> &Out) {
  if (Body.size() < 4)
    return false;
  uint64_t Count = iio::getWordLE(Body.data(), 4);
  Body.remove_prefix(4);
  if (Count > Body.size() + 1) // each entry costs >= 1 byte
    return false;
  Out.clear();
  Out.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; I != Count; ++I) {
    WireLookup R;
    if (!takeWireLookup(Body, R))
      return false;
    Out.push_back(std::move(R));
  }
  return Body.empty();
}

} // namespace hma::serve

#endif // HMA_SERVE_PROTOCOL_H
