//===- index/IndexIO.h - HMAI on-disk index format --------------------------===//
///
/// \file
/// A persistent, mmap-friendly on-disk format for \ref AlphaHashIndex.
///
/// The hash-then-verify design makes an index fully determined by its
/// class table -- (alpha-hash, canonical `ast/Serialize` bytes, member
/// count) -- which is exactly what \ref ShardStore retains in memory.
/// `HMAI` is that table laid out for reopening *without re-hashing
/// anything* and for a future reader to serve lookups straight from an
/// mmap without materializing classes:
///
///   header    80 bytes (v1) / 96 bytes (v2), fixed-width little-endian:
///               magic       "HMAI"
///               version     u32 (1 or 2)
///               seed        u64 hash-schema seed
///               hash bits   u32 (16 / 32 / 64 / 128)
///               shards      u32 (power of two)
///               classes     u64 total class count
///               stats       6 x u64 (IndexStats, field order)
///             v2 appends two fields describing the probe sidecar:
///               sidecar offset  u64 absolute file offset
///               sidecar length  u64 (== file size - sidecar offset)
///   directory shards x { u64 table offset, u64 class count }
///   tables    per shard: classes x fixed-width records, sorted by
///             (hash, canonical bytes):
///               hash        bits/8 bytes, little-endian words (lo first)
///               offset      u64 absolute file offset of the blob
///               length      u64 blob length in bytes
///               count       u64 member count
///   bytes     the canonical blobs, back to back
///   sidecar   (v2 only) per shard, in shard order:
///               eytz hashes classes x bits/8 bytes -- the shard's sorted
///                           hashes rewritten in Eytzinger (BFS) order:
///                           slot k (1-indexed, stored at byte (k-1) *
///                           bits/8) holds the hash whose sorted rank is
///                           the in-order position of node k in a
///                           complete binary tree rooted at slot 1
///               eytz ranks  classes x u32 -- slot k's sorted rank, so a
///                           branchless BFS descent lands back on the
///                           record table without an arithmetic decode
///
/// Every record is fixed-width and every shard table is sorted, so a
/// reader that mmaps the file can binary-search a shard's table by hash
/// and follow (offset, length) to the candidate bytes -- verified in
/// place by the exact-verify fallback, nothing else touched. Offsets are
/// absolute, so a table entry is meaningful without any rebasing.
///
/// The v2 sidecar is derived data: it is a pure function of the shard
/// tables (so a deterministic save stays deterministic) and exists only
/// to let \ref MappedIndex probe a shard with the branchless Eytzinger
/// engine instead of a scalar binary search. Readers that ignore it lose
/// nothing but speed; \ref MappedIndex::verify checks it against the
/// tables all the same.
///
/// Validation: this header owns the format's layout and the O(shards)
/// envelope check (\ref probeIndexBytes). The per-record checks -- sort
/// order, blob ranges, sidecar content -- live in one place, \ref
/// MappedIndex::verify, and every file open goes through it: a caller
/// that wants a live \ref AlphaHashIndex opens and verifies the file,
/// then rebuilds from the verified reader with \ref
/// AlphaHashIndex::restore.
///
/// Versioning: the magic and the version field are stable forever; all
/// layout after them is owned by the version. Readers must reject
/// versions (and hash widths) they do not understand; this reader speaks
/// v1 and v2, and \ref MappedIndex falls back to the scalar probe on v1
/// files (no sidecar). The seed and bit width identify the hash function
/// family: two files are hash-compatible iff both match (surface-checked
/// by `hma index stats` / `hma index open`).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_INDEXIO_H
#define HMA_INDEX_INDEXIO_H

#include "index/AlphaHashIndex.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/HashCode.h"
#include "support/IoEnv.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hma {

/// Decoded `HMAI` header: everything needed to check compatibility or
/// report on a file without loading its classes.
struct IndexFileInfo {
  uint32_t Version = 0;
  uint64_t Seed = 0;
  unsigned HashBits = 0;
  unsigned Shards = 0;
  uint64_t NumClasses = 0;
  IndexStats Stats;
  uint64_t SidecarOffset = 0; ///< v2: absolute offset of the probe sidecar.
  uint64_t SidecarLength = 0; ///< v2: sidecar bytes (to end of file).

  /// True if the image carries the Eytzinger probe sidecar.
  bool hasSidecar() const { return Version >= 2; }
};

/// True if \p Bytes starts with the index magic "HMAI".
bool isIndexFile(std::string_view Bytes);

/// Decode and validate the header only (magic, version, widths, and that
/// the directory/tables/bytes regions lie within the file). On failure
/// returns false with \p Error / \p ErrorPos set (if non-null).
bool probeIndexBytes(std::string_view Bytes, IndexFileInfo &Info,
                     std::string *Error = nullptr, size_t *ErrorPos = nullptr);

/// Read a whole file (binary) into \p Out. All I/O runs through \p Env
/// (the production passthrough by default).
bool readFileBytes(const std::string &Path, std::string &Out,
                   std::string *Error, IoEnv &Env = IoEnv::system());

/// Write \p Bytes to \p Path atomically-ish: a sibling `.tmp` file is
/// written, fsynced and renamed over \p Path (parent directory synced
/// after), so a crash mid-write never leaves a torn file behind the
/// original name. On *any* failure the partial `.tmp` is unlinked and
/// \p Error carries the errno text. All I/O runs through \p Env, which
/// is how the crash matrix injects ENOSPC/EIO/power-cut at every call.
bool writeFileReplacing(const std::string &Path, std::string_view Bytes,
                        std::string *Error, IoEnv &Env = IoEnv::system());

namespace iio {

constexpr char Magic[4] = {'H', 'M', 'A', 'I'};
constexpr uint32_t MinVersion = 1; ///< Oldest version this reader accepts.
constexpr uint32_t Version = 2;    ///< Version the writer emits by default.
constexpr size_t HeaderSize = 80;   ///< v1 header; also the v2 header prefix.
constexpr size_t HeaderSizeV2 = 96; ///< v1 header + sidecar offset/length.
constexpr size_t DirEntrySize = 16;
constexpr size_t RankEntrySize = 4; ///< Sidecar rank width (u32).

/// Directory start for a given header version.
constexpr size_t headerSize(uint32_t V) {
  return V >= 2 ? HeaderSizeV2 : HeaderSize;
}

/// Bytes one class contributes to the sidecar (BFS hash + sorted rank).
constexpr size_t sidecarEntrySize(unsigned HashBits) {
  return HashBits / 8 + RankEntrySize;
}

void putWordLE(std::string &Out, uint64_t V, unsigned NumBytes);
uint64_t getWordLE(const char *P, unsigned NumBytes);

inline void putHashLE(std::string &Out, Hash16 V) { putWordLE(Out, V.V, 2); }
inline void putHashLE(std::string &Out, Hash32 V) { putWordLE(Out, V.V, 4); }
inline void putHashLE(std::string &Out, Hash64 V) { putWordLE(Out, V.V, 8); }
inline void putHashLE(std::string &Out, Hash128 V) {
  putWordLE(Out, V.Lo, 8);
  putWordLE(Out, V.Hi, 8);
}
inline void getHashLE(const char *P, Hash16 &V) {
  V = Hash16(static_cast<uint16_t>(getWordLE(P, 2)));
}
inline void getHashLE(const char *P, Hash32 &V) {
  V = Hash32(static_cast<uint32_t>(getWordLE(P, 4)));
}
inline void getHashLE(const char *P, Hash64 &V) { V = Hash64(getWordLE(P, 8)); }
inline void getHashLE(const char *P, Hash128 &V) {
  V = Hash128(getWordLE(P + 8, 8), getWordLE(P, 8));
}

std::string encodeHeader(const IndexFileInfo &Info);

template <typename H> constexpr size_t recordSize() {
  return HashWidth<H>::Bits / 8 + 24; // hash + offset + length + count
}

/// One decoded shard-table record.
template <typename H> struct Record {
  H Hash{};
  uint64_t Offset = 0; ///< Absolute file offset of the blob.
  uint64_t Length = 0; ///< Blob length in bytes.
  uint64_t Count = 0;  ///< Class member count.
};

template <typename H> Record<H> readRecord(const char *Rec) {
  constexpr unsigned HashBytes = HashWidth<H>::Bits / 8;
  Record<H> R;
  getHashLE(Rec, R.Hash);
  R.Offset = getWordLE(Rec + HashBytes, 8);
  R.Length = getWordLE(Rec + HashBytes + 8, 8);
  R.Count = getWordLE(Rec + HashBytes + 16, 8);
  return R;
}

/// The non-hash fields of a record. The duplicate-hash scan compares
/// hashes first (via the mapped hash column) and only then needs the
/// blob range and count; decoding them separately means each field is
/// read exactly once per candidate instead of re-decoding the whole
/// record.
struct RecordTail {
  uint64_t Offset = 0;
  uint64_t Length = 0;
  uint64_t Count = 0;
};

template <typename H> RecordTail readRecordTail(const char *Rec) {
  constexpr unsigned HashBytes = HashWidth<H>::Bits / 8;
  RecordTail T;
  T.Offset = getWordLE(Rec + HashBytes, 8);
  T.Length = getWordLE(Rec + HashBytes + 8, 8);
  T.Count = getWordLE(Rec + HashBytes + 16, 8);
  return T;
}

/// Sorted rank of every Eytzinger slot for a table of \p Count records:
/// element k-1 is the in-order position of node k in the complete binary
/// tree rooted at slot 1 (the order a branchless BFS descent compares
/// against). Pure layout function -- the writer emits it, \ref
/// MappedIndex::verify recomputes it.
std::vector<uint32_t> eytzingerRanks(uint64_t Count);

} // namespace iio

/// Serialise \p Index to the `HMAI` byte format. The result is a
/// deterministic function of the index's class table, stats, shard count
/// and \p FormatVersion (canonical tie-breaks aside, the same corpus
/// yields the same file regardless of ingest thread count). The default
/// version writes the v2 probe sidecar; pass 1 for a sidecar-free image
/// older readers accept.
///
/// The index must be quiescent (no concurrent ingest) for the duration
/// of the call: the class table and the stats are read under separate
/// per-shard locks, so a save racing an insertBatch yields a readable
/// image whose stats may not correspond to exactly the captured class
/// set.
///
/// \p StatsOverride, if non-null, is stamped into the header in place of
/// \ref AlphaHashIndex::stats. Segmented-index writers need this: a
/// delta segment's header must record the delta's contribution *to the
/// union* (reconciled against older segments -- see
/// index/SegmentCompactor.h), not the raw counters of the scratch index
/// the delta was staged in.
template <typename H>
std::string saveIndexBytes(const AlphaHashIndex<H> &Index,
                           uint32_t FormatVersion = iio::Version,
                           const IndexStats *StatsOverride = nullptr) {
  static const obs::Histogram SaveNs = obs::Histogram::get(
      "hma_index_save_ns", "Latency of serialising an index to HMAI, ns");
  static const obs::Counter SavedBytes = obs::Counter::get(
      "hma_index_saved_bytes_total", "HMAI image bytes produced by saves");
  obs::ScopedTrace Span("index_save", "io");
  obs::ScopedTimer Timer(SaveNs);
  using Summary = typename AlphaHashIndex<H>::ClassSummary;
  std::vector<Summary> Classes = Index.snapshot(); // sorted (hash, bytes)
  const unsigned Shards = Index.numShards();

  // Group into per-shard tables exactly as the live index stripes them;
  // the global sort order is preserved within each group.
  std::vector<std::vector<const Summary *>> PerShard(Shards);
  size_t TotalBlobBytes = 0;
  for (const Summary &C : Classes) {
    PerShard[Index.shardIndexFor(C.Hash)].push_back(&C);
    TotalBlobBytes += C.CanonicalBytes.size();
  }

  assert((FormatVersion == 1 || FormatVersion == 2) &&
         "writer speaks HMAI v1 and v2");
  IndexFileInfo Info;
  Info.Version = FormatVersion;
  Info.Seed = Index.schema().seed();
  Info.HashBits = HashWidth<H>::Bits;
  Info.Shards = Shards;
  Info.NumClasses = Classes.size();
  Info.Stats = StatsOverride ? *StatsOverride : Index.stats();

  const size_t RecSize = iio::recordSize<H>();
  const size_t DirStart = iio::headerSize(FormatVersion);
  const size_t TablesStart = DirStart + size_t(Shards) * iio::DirEntrySize;
  const size_t BytesStart = TablesStart + Classes.size() * RecSize;
  const size_t SidecarLength =
      Info.hasSidecar()
          ? Classes.size() * iio::sidecarEntrySize(HashWidth<H>::Bits)
          : 0;
  if (Info.hasSidecar()) {
    Info.SidecarOffset = BytesStart + TotalBlobBytes;
    Info.SidecarLength = SidecarLength;
  }

  std::string Out = iio::encodeHeader(Info);
  // The whole image, one allocation.
  Out.reserve(BytesStart + TotalBlobBytes + SidecarLength);

  // Directory.
  size_t TableOffset = TablesStart;
  for (unsigned S = 0; S != Shards; ++S) {
    iio::putWordLE(Out, TableOffset, 8);
    iio::putWordLE(Out, PerShard[S].size(), 8);
    TableOffset += PerShard[S].size() * RecSize;
  }

  // Tables (blob offsets assigned in table order).
  uint64_t BlobOffset = BytesStart;
  for (unsigned S = 0; S != Shards; ++S) {
    for (const Summary *C : PerShard[S]) {
      iio::putHashLE(Out, C->Hash);
      iio::putWordLE(Out, BlobOffset, 8);
      iio::putWordLE(Out, C->CanonicalBytes.size(), 8);
      iio::putWordLE(Out, C->Count, 8);
      BlobOffset += C->CanonicalBytes.size();
    }
  }

  // Bytes region.
  for (unsigned S = 0; S != Shards; ++S)
    for (const Summary *C : PerShard[S])
      Out += C->CanonicalBytes;

  // Probe sidecar (v2): per shard, the hashes rewritten in Eytzinger
  // (BFS) order followed by each slot's sorted rank. Derived purely from
  // the (already deterministic) shard tables.
  if (Info.hasSidecar()) {
    for (unsigned S = 0; S != Shards; ++S) {
      const std::vector<uint32_t> Ranks =
          iio::eytzingerRanks(PerShard[S].size());
      for (uint32_t Rank : Ranks)
        iio::putHashLE(Out, PerShard[S][Rank]->Hash);
      for (uint32_t Rank : Ranks)
        iio::putWordLE(Out, Rank, iio::RankEntrySize);
    }
    assert(Out.size() == Info.SidecarOffset + Info.SidecarLength &&
           "sidecar layout drifted");
  }
  SavedBytes.add(Out.size());
  return Out;
}

/// Write \p Index to \p Path (via a sibling temporary file renamed into
/// place, so a crash mid-write never leaves a torn index). Returns false
/// with \p Error set (errno text included) on I/O failure; the partial
/// `.tmp` never survives a failure.
template <typename H>
bool saveIndexFile(const AlphaHashIndex<H> &Index, const std::string &Path,
                   std::string *Error = nullptr,
                   IoEnv &Env = IoEnv::system()) {
  return writeFileReplacing(Path, saveIndexBytes(Index), Error, Env);
}

} // namespace hma

#endif // HMA_INDEX_INDEXIO_H
