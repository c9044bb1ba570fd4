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
///   header    96 bytes, fixed-width little-endian:
///               magic       "HMAI"
///               version     u32 (2)
///               seed        u64 hash-schema seed
///               hash bits   u32 (16 / 32 / 64 / 128)
///               shards      u32 (power of two)
///               classes     u64 total class count
///               stats       6 x u64 (IndexStats, field order)
///               sidecar offset  u64 absolute file offset of the sidecar
///               sidecar length  u64 (== file size - sidecar offset)
///   directory shards x { u64 table offset, u64 class count }
///   tables    per shard: classes x fixed-width records, sorted by
///             (hash, canonical bytes):
///               hash        bits/8 bytes, little-endian words (lo first)
///               offset      u64 absolute file offset of the blob
///               length      u64 blob length in bytes
///               count       u64 member count
///   bytes     the canonical blobs, back to back
///   sidecar   per shard, in shard order:
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
/// The sidecar is derived data: it is a pure function of the shard
/// tables (so a deterministic save stays deterministic) and exists only
/// to let \ref MappedIndex probe a shard with the branchless Eytzinger
/// descent; \ref MappedIndex::verify checks it against the tables.
///
/// Writing: one function, \ref writeIndexImage, lays out every image from
/// a sorted list of class views (\ref ClassRef) -- a live index's shard
/// stores for a save, the mapped segments for a compaction -- so there
/// is one writer as there is one validator. It emits the image in file
/// order through a staging buffer of \ref iio::WriteBufferBytes, handing
/// each full buffer to a \ref ByteSink: a file write (\ref
/// writeIndexFile, through the one durable-write routine \ref
/// writeFileReplacing) or a string (\ref saveIndexBytes). No write path
/// holds a whole image in memory.
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
/// versions (and hash widths) they do not understand; this reader and
/// writer speak v2 only (the sidecar-free v1 layout is retired -- `hma
/// index open F --out F` with an older build upgrades a stray v1 file).
/// The seed and bit width identify the hash function family: two files
/// are hash-compatible iff both match (surface-checked by `hma index
/// stats` / `hma index open`).
///
/// A single file is a read-only build output: nothing updates it in
/// place. An index that has to grow is a segment directory
/// (index/SegmentCompactor.h), whose segments are files of this format.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_INDEXIO_H
#define HMA_INDEX_INDEXIO_H

#include "index/AlphaHashIndex.h"
#include "support/HashCode.h"
#include "support/IoEnv.h"

#include <cassert>
#include <cstdint>
#include <functional>
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
  uint64_t SidecarOffset = 0; ///< Absolute offset of the probe sidecar.
  uint64_t SidecarLength = 0; ///< Sidecar bytes (to end of file).
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

/// Where produced bytes go, in order: a chunk per call. Returns false once
/// the destination cannot take more; the producer then stops, and the
/// sink's owner keeps the reason.
using ByteSink = std::function<bool(std::string_view Chunk)>;

/// Writes a file's bytes, in order, into the sink it is handed. Returns
/// false as soon as the sink refuses a chunk.
using ByteProducer = std::function<bool(const ByteSink &Sink)>;

/// Write the bytes \p Produce emits to \p Path atomically-ish: a sibling
/// `.tmp` file is written chunk by chunk as they are produced, fsynced
/// and renamed over \p Path (parent directory synced after), so a crash
/// mid-write never leaves a torn file behind the original name. On *any*
/// failure the partial `.tmp` is unlinked and \p Error carries the errno
/// text. All I/O runs through \p Env, which is how the crash matrix
/// injects ENOSPC/EIO/power-cut at every call. The one durable-write
/// routine: every file the index commits comes through here.
bool writeFileReplacing(const std::string &Path, const ByteProducer &Produce,
                        std::string *Error, IoEnv &Env = IoEnv::system());

/// \ref writeFileReplacing of bytes already in memory, as one chunk.
bool writeFileReplacing(const std::string &Path, std::string_view Bytes,
                        std::string *Error, IoEnv &Env = IoEnv::system());

namespace iio {

constexpr char Magic[4] = {'H', 'M', 'A', 'I'};
constexpr uint32_t Version = 2;   ///< The one version read and written.
constexpr size_t HeaderSize = 96; ///< Directory start.
constexpr size_t DirEntrySize = 16;
constexpr size_t RankEntrySize = 4; ///< Sidecar rank width (u32).
/// The image writer's staging buffer: every chunk it hands a sink but
/// the last is exactly this long, and it is all the memory a write path
/// spends on the image beyond the class views.
constexpr size_t WriteBufferBytes = size_t(1) << 20;

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

/// The image size a header declares: the end of its sidecar, the file's
/// final region. \p Header starts with a whole header.
inline uint64_t declaredImageBytes(std::string_view Header) {
  assert(Header.size() >= HeaderSize && "not a whole header");
  return getWordLE(Header.data() + 80, 8) + getWordLE(Header.data() + 88, 8);
}

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

/// Lay out the `HMAI` image of a class table: \p Classes, sorted by
/// (hash, bytes) and holding no two alpha-equivalent classes, striped
/// over \p Shards (a power of two) by \ref detail::shardIndexForHash
/// with the global order kept inside each shard, with \p Seed and
/// \p Stats stamped into the header. The image goes to \p Sink in file
/// order (header, directory, tables, bytes region, sidecar), in chunks of
/// \ref iio::WriteBufferBytes but the last; the first chunk holds at
/// least the whole header. Returns the image's byte count, or 0 when the
/// sink refused a chunk (no image is shorter than its header). The one
/// writer of the format: saves, segment appends and compactions
/// (index/SegmentCompactor.h, straight from the mapped segments) all come
/// through here. The image is a pure function of its arguments.
template <typename H>
uint64_t writeIndexImage(const std::vector<ClassRef<H>> &Classes,
                         unsigned Shards, uint64_t Seed,
                         const IndexStats &Stats, const ByteSink &Sink);

/// Stream the image \ref writeIndexImage lays out into \p Path through
/// \ref writeFileReplacing. Returns the file's byte count (what a
/// manifest records), or 0 with \p Error set (errno text included); the
/// partial `.tmp` never survives a failure.
template <typename H>
uint64_t writeIndexFile(const std::string &Path,
                        const std::vector<ClassRef<H>> &Classes,
                        unsigned Shards, uint64_t Seed,
                        const IndexStats &Stats, std::string *Error,
                        IoEnv &Env = IoEnv::system()) {
  uint64_t Bytes = 0;
  auto Produce = [&](const ByteSink &Sink) {
    Bytes = writeIndexImage(Classes, Shards, Seed, Stats, Sink);
    return Bytes != 0;
  };
  return writeFileReplacing(Path, Produce, Error, Env) ? Bytes : 0;
}

/// Serialise \p Index to the `HMAI` byte format: \ref writeIndexImage
/// over the index's sorted class views (\ref AlphaHashIndex::classRefs)
/// with its shard count and schema seed, into a string. The result is a
/// deterministic function of the index's class table, stats and shard
/// count (canonical tie-breaks aside, the same corpus yields the same
/// file regardless of ingest thread count). The same bytes \ref
/// saveIndexFile streams to disk.
///
/// The index must be quiescent (no concurrent ingest) for the duration
/// of the call: the class table and the stats are read under separate
/// per-shard locks, so a save racing an insertBatch yields a readable
/// image whose stats may not correspond to exactly the captured class
/// set.
template <typename H>
std::string saveIndexBytes(const AlphaHashIndex<H> &Index) {
  std::string Out;
  writeIndexImage(Index.classRefs(), Index.numShards(), Index.schema().seed(),
                  Index.stats(), [&Out](std::string_view Chunk) {
                    // Reserve the declared size once: a growing string
                    // would hold up to twice the image.
                    if (Out.empty())
                      Out.reserve(iio::declaredImageBytes(Chunk));
                    Out.append(Chunk);
                    return true;
                  });
  return Out;
}

/// Stream \p Index's image (\ref saveIndexBytes' bytes) to \p Path via
/// \ref writeIndexFile, so a crash mid-write never leaves a torn index
/// and no copy of the image is held in memory. Returns the file's byte
/// count, or 0 with \p Error set (errno text included) on I/O failure;
/// the partial `.tmp` never survives a failure.
template <typename H>
uint64_t saveIndexFile(const AlphaHashIndex<H> &Index, const std::string &Path,
                       std::string *Error = nullptr,
                       IoEnv &Env = IoEnv::system()) {
  return writeIndexFile(Path, Index.classRefs(), Index.numShards(),
                        Index.schema().seed(), Index.stats(), Error, Env);
}

} // namespace hma

#endif // HMA_INDEX_INDEXIO_H
