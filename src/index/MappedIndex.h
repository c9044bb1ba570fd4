//===- index/MappedIndex.h - Zero-copy mmap'd HMAI reader -------------------===//
///
/// \file
/// A read-only \ref IndexReader over an mmap'd `HMAI` file: the
/// zero-copy serving path the on-disk format was laid out for.
///
/// `HMAI` (index/IndexIO.h) stores each shard's classes as a *sorted*
/// fixed-width (hash, blob offset, blob length, count) table with
/// absolute offsets into a trailing bytes region. \ref MappedIndex
/// therefore never materializes anything:
///
///  - **open is O(shards), not O(classes)**: decode the fixed header,
///    walk the directory, done -- open time is independent of index
///    size. A caller that needs a live \ref AlphaHashIndex (to ingest
///    into it, or to re-stripe it) rebuilds one from the verified reader
///    with \ref AlphaHashIndex::restore.
///  - **find is a lower-bound probe on the file**: hash the query, pick
///    the shard (\ref detail::shardIndexForHash -- the same pure
///    function of the hash the writer grouped by), lower-bound its
///    table, and for each record under the hash run the exact
///    \ref verifyCandidateBytes walk over the candidate blob in place,
///    with a caller-owned \ref DecodeScratch. Nothing is decoded, no
///    class vectors, no byte copies: the returned \ref LookupResult
///    views the mapping itself.
///  - **the lower bound is an Eytzinger descent**: every file carries the
///    probe sidecar, so the probe is a branchless descent of the
///    sidecar's BFS-ordered hash array -- one cache line covers ~4 tree
///    levels near the leaves, a per-shard resident fence array (the
///    sorted top \ref FenceSlots sidecar slots) skips the top \ref
///    FenceLevels levels outright, and software prefetch runs two levels
///    ahead of the compare. The rank array maps the descent back to the
///    sorted record table, where the candidate scan runs.
///  - **reads are defensively bounds-checked**: every record-designated
///    blob range is validated against the mapping before any byte is
///    touched, so a corrupt (unverified) file can mis-answer but never
///    read out of bounds. \ref verify runs the full O(classes) integrity
///    check (sort order, blob ranges, sidecar content) on demand for
///    untrusted files. It is the format's only deep validator: `hma
///    index open`, segment opens, fsck's deep check and the daemon's
///    reload gate all run `open` + `verify` (the adversarial sweep in
///    tests/index_io_test.cpp pins what it rejects).
///
/// Concurrency: the mapping is immutable, so any number of threads may
/// query one MappedIndex concurrently -- no locks anywhere on the read
/// path. Each thread supplies (or a batch worker owns) its own
/// \ref DecodeScratch; the only shared mutable state is the pair of
/// relaxed atomic fallback counters folded into \ref stats.
///
/// Lifetime: lookup results view the mapping. The MappedIndex (and, for
/// \ref openBytes, the caller's buffer) must outlive every outstanding
/// \ref LookupResult, including whole `lookupBatch` result vectors.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_MAPPEDINDEX_H
#define HMA_INDEX_MAPPEDINDEX_H

#include "ast/Serialize.h"
#include "core/AlphaHasher.h"
#include "index/IndexIO.h"
#include "index/IndexReader.h"
#include "index/ShardStore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/HashCode.h"
#include "support/HashSchema.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// Portable wrapper over the builtin prefetch hint (a no-op where the
/// compiler has none); the Eytzinger probe below issues it two tree levels
/// ahead of the compare so the line is in flight while the branchless
/// descent works through the levels in between.
#if defined(__GNUC__) || defined(__clang__)
#define HMA_PREFETCH(Addr) __builtin_prefetch(Addr)
#else
#define HMA_PREFETCH(Addr) ((void)(Addr))
#endif

namespace hma {

/// RAII owner of an `HMAI` file's read-only mapping.
class MappedBytes {
public:
  /// Map \p Path read-only. Returns nullptr with \p Error set when the
  /// file cannot be opened, is empty or not a regular file, or cannot be
  /// mapped; the diagnostic names the reason or the errno.
  static std::unique_ptr<MappedBytes> openFile(const std::string &Path,
                                               std::string *Error);

  MappedBytes(const MappedBytes &) = delete;
  MappedBytes &operator=(const MappedBytes &) = delete;
  ~MappedBytes();

  std::string_view bytes() const {
    return std::string_view(static_cast<const char *>(Map), MapLen);
  }

private:
  MappedBytes(void *Map, size_t MapLen) : Map(Map), MapLen(MapLen) {}

  void *Map;
  size_t MapLen;
};

/// Read-only, zero-copy index reader over an `HMAI` image.
template <typename H = Hash128> class MappedIndex : public IndexReader<H> {
public:
  using LookupResult = hma::LookupResult<H>;
  using ClassSummary = hma::ClassSummary<H>;

  /// Outcome of opening an image: the reader or a diagnostic.
  struct OpenResult {
    std::unique_ptr<MappedIndex> Reader;
    std::string Error;   ///< Empty on success.
    size_t ErrorPos = 0; ///< Byte offset of the failure.

    bool ok() const { return Reader != nullptr; }
  };

  /// Open \p Path over a read-only mmap. O(shards): no per-class work,
  /// no blob reads.
  static OpenResult open(const std::string &Path) {
    static const obs::Histogram OpenNs = obs::Histogram::get(
        "hma_mapped_open_ns",
        "Latency of opening an HMAI file for mapped reads (O(shards)), ns");
    obs::ScopedTrace Span("mapped_open", "io");
    obs::ScopedTimer Timer(OpenNs);
    std::string Error;
    std::unique_ptr<MappedBytes> Storage =
        MappedBytes::openFile(Path, &Error);
    if (!Storage) {
      OpenResult R;
      R.Error = std::move(Error);
      return R;
    }
    std::string_view Bytes = Storage->bytes();
    return fromView(Bytes, std::move(Storage));
  }

  /// Open over caller-owned bytes (which must outlive the reader).
  static OpenResult openBytes(std::string_view Bytes) {
    return fromView(Bytes, nullptr);
  }

  /// The raw image this reader serves from (tests assert lookup results
  /// view into it).
  std::string_view imageBytes() const { return Bytes; }

  //===--------------------------------------------------------------------===//
  // Probe layout
  //===--------------------------------------------------------------------===//

  /// Eytzinger levels the per-shard fence array skips (the top
  /// FenceLevels levels never touch the sidecar: their sorted values
  /// live in a resident, always-hot array computed at open time).
  static constexpr unsigned FenceLevels = 5;
  /// Slots in those levels (= fence array length per shard).
  static constexpr uint64_t FenceSlots = (uint64_t(1) << FenceLevels) - 1;
  /// Smallest shard the fence skip applies to: every slot of the first
  /// FenceLevels+1 levels must exist for "start at depth FenceLevels" to
  /// be a pure re-encoding of the skipped comparisons.
  static constexpr uint64_t FenceMinCount =
      (uint64_t(1) << (FenceLevels + 1)) - 1;

  /// Deep integrity check, O(classes): per-shard sort order, every blob
  /// range, and the probe sidecar -- each shard's BFS hash array and
  /// rank array must be exactly the Eytzinger re-encoding of its record
  /// table, so a verified file's branchless descents land where a binary
  /// search of the table would. \ref open is O(shards) by design, so
  /// table-level corruption in an untrusted file is caught either here
  /// or -- harmlessly, as a miss/refutation -- by the bounds-checked
  /// read path. On failure \p Error names the shard and record (or
  /// sidecar slot) and \p ErrorPos is its byte offset.
  bool verify(std::string *Error = nullptr, size_t *ErrorPos = nullptr) const {
    static const obs::Histogram VerifyNs = obs::Histogram::get(
        "hma_mapped_verify_ns",
        "Latency of the deep O(classes) integrity check on a mapped "
        "image, ns");
    obs::ScopedTrace Span("mapped_verify", "io",
                          static_cast<int64_t>(Info.NumClasses));
    obs::ScopedTimer Timer(VerifyNs);
    auto Fail = [&](std::string Message, uint64_t Pos) {
      if (Error)
        *Error = std::move(Message);
      if (ErrorPos)
        *ErrorPos = static_cast<size_t>(Pos);
      return false;
    };
    constexpr unsigned HashBytes = HashWidth<H>::Bits / 8;
    const size_t RecSize = iio::recordSize<H>();
    for (size_t S = 0; S != Tables.size(); ++S) {
      const ShardTable &T = Tables[S];
      // Diagnostics are spelled only on failure: this loop is the
      // O(classes) part of every verified open.
      auto At = [S](const char *What, uint64_t I) {
        return "shard " + std::to_string(S) + What + std::to_string(I);
      };
      H Prev{};
      for (uint64_t I = 0; I != T.Count; ++I) {
        // A blob must lie inside the bytes region: an offset below
        // BytesStart aliases the header/directory/tables, one ending past
        // BytesEnd runs into the sidecar; both are in-file but never
        // something the writer emits.
        const size_t RecPos = static_cast<size_t>(T.Offset) + I * RecSize;
        iio::Record<H> Rec = iio::readRecord<H>(Bytes.data() + RecPos);
        if (Rec.Offset > BytesEnd || Rec.Length > BytesEnd - Rec.Offset)
          return Fail(At(" record ", I) + ": blob overruns the bytes region",
                      RecPos);
        if (Rec.Offset < BytesStart)
          return Fail(At(" record ", I) +
                          ": blob offset points outside the bytes region",
                      RecPos);
        if (I != 0 && Rec.Hash < Prev)
          return Fail("shard " + std::to_string(S) +
                          " table is not sorted by hash",
                      RecPos);
        Prev = Rec.Hash;
      }
      // Slot k's rank must be the Eytzinger in-order position and slot
      // k's hash must equal the table hash at that rank.
      const std::vector<uint32_t> Want = iio::eytzingerRanks(T.Count);
      const char *Eytz = Bytes.data() + T.EytzOffset;
      const char *Ranks = Bytes.data() + T.RankOffset;
      for (uint64_t K = 0; K != T.Count; ++K) {
        const uint64_t Rank =
            iio::getWordLE(Ranks + K * iio::RankEntrySize, iio::RankEntrySize);
        if (Rank != Want[K])
          return Fail(At(" sidecar slot ", K + 1) + ": rank " +
                          std::to_string(Rank) +
                          " is not the Eytzinger in-order position " +
                          std::to_string(Want[K]),
                      T.EytzOffset);
        H Got{};
        iio::getHashLE(Eytz + K * HashBytes, Got);
        if (!(Got == hashAt(T, Rank)))
          return Fail(At(" sidecar slot ", K + 1) +
                          ": hash does not match table rank " +
                          std::to_string(Rank),
                      T.EytzOffset);
      }
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // IndexReader surface
  //===--------------------------------------------------------------------===//

  const char *backendName() const override { return "mapped"; }
  const HashSchema &schema() const override { return Schema; }
  unsigned numShards() const override { return Info.Shards; }
  size_t numClasses() const override {
    return static_cast<size_t>(Info.NumClasses);
  }

  /// Header stats plus the fallback checks this reader has run -- the
  /// same aggregation a live index reports, so differential tests can
  /// compare stats across backends after identical query streams.
  IndexStats stats() const override {
    IndexStats S = Info.Stats;
    S.FallbackChecks += ReadFallbackChecks.load(std::memory_order_relaxed);
    S.VerifiedCollisions +=
        ReadVerifiedCollisions.load(std::memory_order_relaxed);
    return S;
  }

  std::vector<size_t> shardLoads() const override {
    std::vector<size_t> Loads;
    Loads.reserve(Tables.size());
    for (const ShardTable &T : Tables)
      Loads.push_back(static_cast<size_t>(T.Count));
    return Loads;
  }

  /// Canonical-blob bytes per shard, summed from each shard's record
  /// lengths (for a well-formed image, sums to \ref retainedBytes).
  std::vector<size_t> shardBytes() const override {
    std::vector<size_t> Out;
    Out.reserve(Tables.size());
    for (const ShardTable &T : Tables) {
      size_t N = 0;
      for (uint64_t I = 0; I != T.Count; ++I)
        N += static_cast<size_t>(record(T, I).Length);
      Out.push_back(N);
    }
    return Out;
  }

  /// Size of the mapped bytes region (blobs only -- the probe sidecar is
  /// excluded): for a well-formed image, exactly the canonical-blob
  /// bytes a live index would retain on heap.
  size_t retainedBytes() const override {
    return BytesEnd > BytesStart ? BytesEnd - BytesStart : 0;
  }

  /// Owning export of every class, sorted by (hash, bytes) -- the one
  /// deliberately materializing operation (snapshots outlive backends).
  std::vector<ClassSummary> snapshot() const override {
    std::vector<ClassSummary> Out;
    Out.reserve(numClasses());
    for (const ShardTable &T : Tables) {
      for (uint64_t I = 0; I != T.Count; ++I) {
        iio::Record<H> R = record(T, I);
        std::string_view Blob = blobRange(R.Offset, R.Length);
        Out.push_back(ClassSummary{
            R.Hash, R.Count,
            std::string(Blob.data() ? Blob : std::string_view())});
      }
    }
    std::sort(Out.begin(), Out.end(), detail::lessByHashThenBytes<H>);
    return Out;
  }

  std::vector<ClassSummary> largestClasses(size_t N) const override {
    std::vector<ClassSummary> Top;
    if (N == 0)
      return Top;
    for (const ShardTable &T : Tables) {
      for (uint64_t I = 0; I != T.Count; ++I) {
        iio::Record<H> R = record(T, I);
        std::string_view Blob = blobRange(R.Offset, R.Length);
        detail::considerLargest<H>(Top, N, R.Hash, R.Count,
                                   Blob.data() ? Blob : std::string_view());
      }
    }
    return Top;
  }

  using IndexReader<H>::lookup;

  /// \ref lookup with a caller-owned hasher and verify scratch: an
  /// adapter that serializes the term and takes the byte path.
  std::optional<LookupResult> lookup(const ExprContext &Ctx, const Expr *Root,
                                     AlphaHasher<H> &Hasher,
                                     DecodeScratch &Scratch) const {
    return this->lookupSerialized(serializeExpr(Ctx, Root), Hasher, Scratch);
  }

  /// Probe this image for an already-hashed, proven query blob: the
  /// per-segment entry point of \ref SegmentedIndex, which hashes a
  /// query once and then probes every segment of a segmented index with
  /// the same (query, hash) pair.
  std::optional<LookupResult>
  lookupHashed(std::string_view Query, H Hash,
               DecodeScratch &Scratch) const override {
    return findHashed(Query, Hash, Scratch);
  }

  /// \ref lookupHashed for an already-uniquified query tree: an adapter
  /// that serializes it (a proven blob) and takes the byte path.
  std::optional<LookupResult> lookupHashed(const ExprContext &Ctx,
                                           const Expr *Root, H Hash,
                                           DecodeScratch &Scratch) const {
    return findHashed(serializeExpr(Ctx, Root), Hash, Scratch);
  }

  /// Bulk hash-only probe: Out[i] = number of classes stored under
  /// exactly Hashes[i] (0 = definite miss; >0 = the candidate count the
  /// exact-verify fallback would inspect). No blob is read and no
  /// verification runs -- this is the raw probe, the per-layer
  /// measurement point of the benchmark and a cheap pre-filter for
  /// callers that already hold alpha-hashes.
  void probeHashCounts(const std::vector<H> &Hashes,
                       std::vector<uint32_t> &Out) const {
    Out.assign(Hashes.size(), 0);
    for (size_t I = 0; I != Hashes.size(); ++I) {
      const ShardTable &T =
          Tables[detail::shardIndexForHash(Hashes[I], ShardMask)];
      Out[I] = countAtRank(T, Hashes[I], eytzLowerBound(T, Hashes[I]));
    }
  }

private:
  struct ShardTable {
    uint64_t Offset = 0; ///< Absolute file offset of the shard's table.
    uint64_t Count = 0;  ///< Records in the table.
    uint64_t EytzOffset = 0; ///< Offset of the BFS hash array.
    uint64_t RankOffset = 0; ///< Offset of the slot->rank array.
    bool UseFences = false;  ///< Count >= FenceMinCount (skip top levels).
    /// Sorted copy of the top FenceLevels sidecar levels (slots
    /// 1..FenceSlots). Resident and tiny, so the first FenceLevels
    /// decisions of every descent are compares against always-hot
    /// memory instead of sidecar touches.
    std::array<H, FenceSlots> Fences{};
  };

  MappedIndex(std::string_view Bytes, const IndexFileInfo &Info,
              std::unique_ptr<MappedBytes> Storage)
      : Storage(std::move(Storage)), Bytes(Bytes), Info(Info),
        Schema(Info.Seed), ShardMask(Info.Shards - 1) {
    const size_t RecSize = iio::recordSize<H>();
    // Canonical start of the bytes region; every blob range is checked
    // against it (an offset below aliases the header/directory/tables).
    BytesStart = iio::HeaderSize + size_t(Info.Shards) * iio::DirEntrySize +
                 static_cast<size_t>(Info.NumClasses) * RecSize;
    // ... and its end: the probe sidecar is not blob space.
    BytesEnd = static_cast<size_t>(Info.SidecarOffset);
    Tables.reserve(Info.Shards);
    uint64_t SidecarPos = Info.SidecarOffset;
    for (unsigned S = 0; S != Info.Shards; ++S) {
      const char *Dir = Bytes.data() + iio::HeaderSize + S * iio::DirEntrySize;
      ShardTable T;
      T.Offset = iio::getWordLE(Dir, 8);
      T.Count = iio::getWordLE(Dir + 8, 8);
      T.EytzOffset = SidecarPos;
      T.RankOffset = SidecarPos + T.Count * (HashWidth<H>::Bits / 8);
      SidecarPos += T.Count * iio::sidecarEntrySize(HashWidth<H>::Bits);
      if (T.Count >= FenceMinCount) {
        for (uint64_t F = 0; F != FenceSlots; ++F)
          iio::getHashLE(Bytes.data() + T.EytzOffset +
                             F * (HashWidth<H>::Bits / 8),
                         T.Fences[F]);
        std::sort(T.Fences.begin(), T.Fences.end());
        T.UseFences = true;
      }
      Tables.push_back(T);
    }
  }

  static OpenResult fromView(std::string_view Bytes,
                             std::unique_ptr<MappedBytes> Storage) {
    OpenResult R;
    IndexFileInfo Info;
    if (!probeIndexBytes(Bytes, Info, &R.Error, &R.ErrorPos))
      return R;
    if (Info.HashBits != HashWidth<H>::Bits) {
      R.Error = "index file is b=" + std::to_string(Info.HashBits) +
                " but the reader is instantiated at b=" +
                std::to_string(HashWidth<H>::Bits);
      R.ErrorPos = 16; // the header's hash-bits field
      return R;
    }
    R.Reader.reset(new MappedIndex(Bytes, Info, std::move(Storage)));
    return R;
  }

  iio::Record<H> record(const ShardTable &T, uint64_t I) const {
    return iio::readRecord<H>(Bytes.data() + T.Offset +
                              I * iio::recordSize<H>());
  }

  /// Just the hash field of record \p I -- what the lower-bound probe
  /// compares; decoding the other 24 bytes per probe step would be
  /// wasted work on the hot path.
  H hashAt(const ShardTable &T, uint64_t I) const {
    H V;
    iio::getHashLE(Bytes.data() + T.Offset + I * iio::recordSize<H>(), V);
    return V;
  }

  /// The non-hash fields of record \p I -- what the candidate scan needs
  /// after \ref hashAt already matched (each field read once; see the
  /// iio::RecordTail rationale).
  iio::RecordTail recordTail(const ShardTable &T, uint64_t I) const {
    return iio::readRecordTail<H>(Bytes.data() + T.Offset +
                                  I * iio::recordSize<H>());
  }

  /// The record's blob as a view into the image, or a null view when the
  /// designated range is out of bounds (corrupt unverified file) -- the
  /// caller treats that as an undecodable candidate, never as bytes.
  std::string_view blobRange(uint64_t Offset, uint64_t Length) const {
    if (Offset < BytesStart || Offset > BytesEnd || Length > BytesEnd - Offset)
      return std::string_view();
    return Bytes.substr(static_cast<size_t>(Offset),
                        static_cast<size_t>(Length));
  }

  //===--------------------------------------------------------------------===//
  // Lower bound by hash: the Eytzinger descent over the sidecar
  //===--------------------------------------------------------------------===//

  H eytzHashAt(const ShardTable &T, uint64_t K) const {
    H V;
    iio::getHashLE(Bytes.data() + T.EytzOffset +
                       (K - 1) * (HashWidth<H>::Bits / 8),
                   V);
    return V;
  }

  void prefetchEytz(const ShardTable &T, uint64_t K) const {
    HMA_PREFETCH(Bytes.data() + T.EytzOffset +
                 (K - 1) * (HashWidth<H>::Bits / 8));
  }

  /// First sidecar slot a descent for \p Hash visits: the root, or --
  /// when the shard is big enough for the fence skip -- the depth-
  /// FenceLevels slot the skipped comparisons would have reached. The
  /// fence array is the *sorted* top levels, and in a BST descent the
  /// path bits after t levels are exactly "how many of the top t levels'
  /// values are < Hash", so `FenceSlots + 1 + count` re-encodes them
  /// without touching the sidecar.
  uint64_t probeStart(const ShardTable &T, H Hash) const {
    if (!T.UseFences)
      return 1;
    uint64_t Below = 0;
    for (uint64_t F = 0; F != FenceSlots; ++F)
      Below += T.Fences[F] < Hash ? 1 : 0;
    return FenceSlots + 1 + Below;
  }

  /// Map a finished descent position back to a sorted rank: strip the
  /// trailing right-turns (the classic `k >>= ffs(~k)` restore), then
  /// read the slot's precomputed rank from the sidecar. K == 0 after the
  /// restore means every compare went right: Hash is greater than the
  /// whole table, rank == Count. The rank is clamped defensively -- a
  /// corrupt unverified sidecar may mis-answer but must never push the
  /// candidate scan out of the table.
  uint64_t restoreRank(const ShardTable &T, uint64_t K) const {
    K >>= __builtin_ctzll(~K) + 1;
    if (K == 0)
      return T.Count;
    const uint64_t Rank =
        iio::getWordLE(Bytes.data() + T.RankOffset +
                           (K - 1) * iio::RankEntrySize,
                       iio::RankEntrySize);
    return Rank < T.Count ? Rank : T.Count;
  }

  /// Eytzinger probe: branchless descent of the shard's BFS hash
  /// array. Each level's next slot is `2K + (hash < Hash)` -- no
  /// mispredictable branch -- and the grandchildren's cache line is
  /// prefetched two levels ahead so it is in flight while this level
  /// and the next compare.
  uint64_t eytzLowerBound(const ShardTable &T, H Hash) const {
    const uint64_t N = T.Count;
    uint64_t K = probeStart(T, Hash);
    while (K <= N) {
      if (4 * K <= N)
        prefetchEytz(T, 4 * K);
      K = 2 * K + (eytzHashAt(T, K) < Hash ? 1 : 0);
    }
    return restoreRank(T, K);
  }

  /// Candidate scan + exact verify from a lower-bound \p Rank: walk the
  /// duplicate-hash run, verify each candidate blob in place and accept
  /// the first alpha-equivalent one. Reads the hash column first and the
  /// record tail only on a match, so every field is read exactly once
  /// per candidate.
  std::optional<LookupResult> resolveAtRank(std::string_view Query, H Hash,
                                            const ShardTable &T, uint64_t Rank,
                                            DecodeScratch &Scratch) const {
    static const obs::Counter Verifies = obs::Counter::get(
        "hma_mapped_fallback_checks_total",
        "Exact-verify fallback runs against mapped candidates");
    static const obs::Counter Collisions = obs::Counter::get(
        "hma_mapped_verified_collisions_total",
        "Mapped hash matches refuted by the exact check");
    uint64_t Checks = 0, Refuted = 0;
    std::optional<LookupResult> Result;
    for (uint64_t I = Rank; I != T.Count; ++I) {
      if (hashAt(T, I) != Hash)
        break;
      ++Checks;
      const iio::RecordTail Tail = recordTail(T, I);
      // An out-of-range blob is an empty view, which the verifier refutes.
      std::string_view Blob = blobRange(Tail.Offset, Tail.Length);
      if (verifyCandidateBytes(Query, Blob, Scratch)) {
        Result = LookupResult{Hash, Tail.Count, Blob};
        break;
      }
      ++Refuted;
    }
    if (Checks) {
      ReadFallbackChecks.fetch_add(Checks, std::memory_order_relaxed);
      ReadVerifiedCollisions.fetch_add(Refuted, std::memory_order_relaxed);
      Verifies.add(Checks);
      Collisions.add(Refuted);
    }
    return Result;
  }

  /// The duplicate-hash run length at \p Rank (hash-only; the \ref
  /// probeHashCounts scan).
  uint32_t countAtRank(const ShardTable &T, H Hash, uint64_t Rank) const {
    uint32_t N = 0;
    for (uint64_t I = Rank; I != T.Count && hashAt(T, I) == Hash; ++I)
      ++N;
    return N;
  }

  /// Read-path probe: lower-bound the shard's sorted table for \p Hash
  /// (\ref eytzLowerBound), then verify each candidate under it.
  /// Lock-free; \p Scratch must be private to the calling thread.
  std::optional<LookupResult> findHashed(std::string_view Query, H Hash,
                                         DecodeScratch &Scratch) const {
    static const obs::Histogram FindNs = obs::Histogram::get(
        "hma_mapped_find_ns",
        "Latency of one mapped-table probe (lower-bound search + "
        "exact verify of each candidate), ns");
    const uint64_t T0 = obs::Enabled ? obs::nowNanos() : 0;
    const ShardTable &T =
        Tables[detail::shardIndexForHash(Hash, ShardMask)];
    std::optional<LookupResult> Result =
        resolveAtRank(Query, Hash, T, eytzLowerBound(T, Hash), Scratch);
    if (obs::Enabled)
      FindNs.record(obs::nowNanos() - T0);
    return Result;
  }

  std::unique_ptr<MappedBytes> Storage; ///< Null for \ref openBytes.
  std::string_view Bytes;
  IndexFileInfo Info;
  HashSchema Schema;
  unsigned ShardMask = 0;
  size_t BytesStart = 0;
  size_t BytesEnd = 0; ///< End of blob space (the sidecar start).
  std::vector<ShardTable> Tables;
  mutable std::atomic<uint64_t> ReadFallbackChecks{0};
  mutable std::atomic<uint64_t> ReadVerifiedCollisions{0};
};

} // namespace hma

#endif // HMA_INDEX_MAPPEDINDEX_H
