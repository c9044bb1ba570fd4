//===- index/IndexReader.h - Shared lookup surface of index backends --------===//
///
/// \file
/// The read-side contract every index backend serves.
///
/// The paper's hash-then-verify design means "an index" is observably
/// nothing but a class table -- (alpha-hash, canonical bytes, count) --
/// plus a way to probe it exactly. Three backends provide that table:
///
///  - \ref AlphaHashIndex: the live, mutable, sharded in-memory store
///    (whether built by ingest or restored from a verified `HMAI` file
///    with \ref AlphaHashIndex::restore);
///  - \ref MappedIndex: a read-only, zero-copy view over an mmap'd
///    `HMAI` file that binary-searches the on-disk tables directly;
///  - \ref SegmentedIndex: the union of several mapped `HMAI` segments
///    under one manifest (`index/SegmentSet.h`).
///
/// \ref IndexReader is the surface they share: single and batch lookups,
/// the stats/diagnostics the CLI prints, and the canonical snapshot
/// export. Serving code (`hma index open`, and `hma indexd`, whose
/// `answerOne` calls `lookupSerialized`) programs against this interface
/// and does not care whether classes are resident or paged.
///
/// There is one read path and one query form. A backend implements only
/// the probe, \ref IndexReader::lookupHashed, which takes a proven query
/// blob; the byte path on top of it is defined here once: \ref
/// IndexReader::lookupSerialized hashes and verifies one blob straight
/// from its bytes (\ref detail::hashQuery, which live ingest uses too),
/// and \ref IndexReader::lookupBatch is a parallel loop of it (\ref
/// detail::forEachHashedChunk). The live, mapped and segmented backends
/// and the daemon therefore cannot answer a blob differently. An \ref
/// Expr lookup is an adapter that serializes the term first.
///
/// The shared result types live here too. \ref LookupResult returns the
/// canonical representative as a *view* (`std::string_view`): the live
/// index points into its shard store (class bytes are immutable and
/// never relocate once interned), the mapped index points straight into
/// the mapping -- in both cases a query copies no blob bytes. The view
/// is valid for as long as the backend it came from (for \ref
/// MappedIndex: the mapping) is alive; callers that outlive the backend
/// must copy.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_INDEXREADER_H
#define HMA_INDEX_INDEXREADER_H

#include "ast/Expr.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "index/BatchDriver.h"
#include "index/ShardStore.h"
#include "obs/Metrics.h"
#include "support/HashCode.h"
#include "support/HashSchema.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hma {

namespace detail {

/// Count query blobs the byte read path had to canonicalize. Callers add
/// once per request, never per node.
inline void recordCanonicalized(uint64_t N) {
  static const obs::Counter Canonicalized = obs::Counter::get(
      "hma_query_canonicalized_total",
      "Query blobs the byte read path could not prove distinct-binder and "
      "canonicalized (decode, uniquify, re-serialize) before hashing");
  if (N)
    Canonicalized.add(N);
}

/// The byte path's fallback for a blob whose binders it cannot prove
/// distinct: decode it, uniquify its binders and re-serialize the result
/// into \p Canonical, a proven blob of the same alpha-class. False (and
/// \p Canonical empty) for a malformed blob.
inline bool canonicalizeBlob(std::string_view Blob, std::string &Canonical) {
  Canonical.clear();
  ExprContext Ctx;
  DeserializeResult R = deserializeExpr(Ctx, Blob);
  if (!R.ok())
    return false;
  Canonical = serializeExpr(Ctx, uniquifyBinders(Ctx, R.E));
  return true;
}

/// Hash a blob for the byte path -- a lookup's query or an ingested
/// member -- and leave \p Query viewing the proven bytes the probe must
/// verify with. When the byte driver proves the blob's binders distinct,
/// that is the blob itself. Otherwise the blob is canonicalized once --
/// decoded, binder-uniquified, re-serialized into \p Canonical, which
/// must outlive the probe -- and the copy takes the same byte path.
/// Returns std::nullopt for a malformed blob; \p Canonical is non-empty
/// exactly when the fallback ran.
template <typename H>
std::optional<H> hashQuery(AlphaHasher<H> &Hasher, std::string_view &Query,
                           std::string &Canonical) {
  Canonical.clear();
  if (std::optional<H> Hash = Hasher.hashSerialized(Query))
    return Hash;
  if (!canonicalizeBlob(Query, Canonical))
    return std::nullopt;
  Query = Canonical;
  std::optional<H> Hash = Hasher.hashSerialized(Query);
  assert(Hash && "a uniquified term must serialize to a proven blob");
  return Hash;
}

} // namespace detail

/// Aggregated ingest/collision counters for an index (live or mapped).
struct IndexStats {
  uint64_t Inserted = 0;       ///< Successful ingest operations.
  uint64_t NewClasses = 0;     ///< Inserts that created a class.
  uint64_t Duplicates = 0;     ///< Inserts merged into an existing class.
  uint64_t FallbackChecks = 0; ///< Exact alpha-equivalence checks run.
  uint64_t VerifiedCollisions = 0; ///< Hash hits refuted by the oracle.
  uint64_t DecodeErrors = 0;   ///< Corpus blobs that failed to deserialise.

  IndexStats &operator+=(const IndexStats &O) {
    Inserted += O.Inserted;
    NewClasses += O.NewClasses;
    Duplicates += O.Duplicates;
    FallbackChecks += O.FallbackChecks;
    VerifiedCollisions += O.VerifiedCollisions;
    DecodeErrors += O.DecodeErrors;
    return *this;
  }
};

/// Result of a membership query. \p CanonicalBytes is a zero-copy view
/// into the answering backend (see the file comment for lifetime rules).
template <typename H> struct LookupResult {
  H Hash{};           ///< Alpha-hash of the queried expression.
  uint64_t Count = 0; ///< Members ingested into the matching class.
  std::string_view CanonicalBytes; ///< Serialised canonical representative.
};

/// One equivalence class, as exported by \ref IndexReader::snapshot. An
/// owning export (unlike \ref LookupResult): snapshots outlive backends.
template <typename H> struct ClassSummary {
  H Hash{};
  uint64_t Count = 0;
  std::string CanonicalBytes;
};

/// One equivalence class as a view: what the `HMAI` writer
/// (index/IndexIO.h) lays out and what the segment merge
/// (index/SegmentSet.h) groups. The bytes view a live shard store or a
/// mapping, which must outlive the ref.
template <typename H> struct ClassRef {
  H Hash{};
  uint64_t Count = 0;
  std::string_view CanonicalBytes;
};

namespace detail {

/// Canonical \ref IndexReader::snapshot order: ascending (hash, bytes),
/// over \ref ClassSummary or \ref ClassRef. Shared by every backend so
/// snapshots are equality-comparable values, and the order the `HMAI`
/// writer takes.
template <typename Class>
bool lessByHashThenBytes(const Class &A, const Class &B) {
  if (A.Hash != B.Hash)
    return A.Hash < B.Hash;
  return A.CanonicalBytes < B.CanonicalBytes;
}

/// Copy sorted views out into an owning snapshot.
template <typename H>
std::vector<ClassSummary<H>> materialize(const std::vector<ClassRef<H>> &Refs) {
  std::vector<ClassSummary<H>> Out;
  Out.reserve(Refs.size());
  for (const ClassRef<H> &C : Refs)
    Out.push_back(
        ClassSummary<H>{C.Hash, C.Count, std::string(C.CanonicalBytes)});
  return Out;
}

/// Ordering of "largest classes" reports: descending member count, ties
/// by ascending (hash, bytes) -- deterministic and identical across
/// backends.
template <typename H>
bool moreDuplicated(const ClassSummary<H> &A, const ClassSummary<H> &B) {
  if (A.Count != B.Count)
    return A.Count > B.Count;
  if (A.Hash != B.Hash)
    return A.Hash < B.Hash;
  return A.CanonicalBytes < B.CanonicalBytes;
}

/// Offer one class to a top-\p N selection held in \p Top (kept sorted
/// by \ref moreDuplicated). Copies the candidate's bytes only when it
/// actually enters the selection, so a backend can scan its whole table
/// while materializing at most N blobs -- what keeps
/// \ref IndexReader::largestClasses cheap on the zero-copy mapped
/// reader.
template <typename H>
void considerLargest(std::vector<ClassSummary<H>> &Top, size_t N, H Hash,
                     uint64_t Count, std::string_view Bytes) {
  bool Take = Top.size() < N;
  if (!Take) {
    const ClassSummary<H> &Worst = Top.back();
    Take = Count > Worst.Count ||
           (Count == Worst.Count &&
            (Hash < Worst.Hash ||
             (Hash == Worst.Hash && Bytes < Worst.CanonicalBytes)));
  }
  if (!Take)
    return;
  Top.push_back(ClassSummary<H>{Hash, Count, std::string(Bytes)});
  std::sort(Top.begin(), Top.end(), moreDuplicated<H>);
  if (Top.size() > N)
    Top.pop_back();
}

/// Which shard a hash maps to for a power-of-two shard count with mask
/// \p ShardMask. Shared by the live index, the `HMAI` writer and the
/// mapped reader: placement must be a pure function of the hash so that
/// a file's per-shard tables can be binary-searched by any of them.
/// Re-mixing before masking keeps the stripe choice independent of the
/// ByHash bucket choice in the live store.
template <typename H> unsigned shardIndexForHash(H Hash, unsigned ShardMask) {
  return static_cast<unsigned>(detail::splitmix64(HashCodeHasher{}(Hash)) &
                               ShardMask);
}

} // namespace detail

/// The read-side surface shared by every index backend.
template <typename H> class IndexReader {
public:
  virtual ~IndexReader() = default;

  /// Short backend tag for diagnostics ("live", "mapped", ...).
  virtual const char *backendName() const = 0;

  /// The hash-function family (seed); lookups only make sense against
  /// hashes produced under the same schema.
  virtual const HashSchema &schema() const = 0;

  virtual unsigned numShards() const = 0;
  virtual size_t numClasses() const = 0;

  /// Aggregate counters: ingest-time stats plus the fallback checks the
  /// read path itself has run.
  virtual IndexStats stats() const = 0;

  /// Number of classes per shard (for load-balance diagnostics).
  virtual std::vector<size_t> shardLoads() const = 0;

  /// Canonical-blob bytes per shard: the per-shard split of
  /// \ref retainedBytes, for skew diagnostics (`index open … stats --json`
  /// reports both per-shard vectors).
  virtual std::vector<size_t> shardBytes() const = 0;

  /// Bytes of canonical blobs the backend serves (resident for the live
  /// index, mapped for the file-backed one).
  virtual size_t retainedBytes() const = 0;

  /// Export every class, sorted by (hash, canonical bytes): a canonical
  /// owning value suitable for equality comparison across backends.
  virtual std::vector<ClassSummary<H>> snapshot() const = 0;

  /// The up-to-\p N most-duplicated classes, sorted by descending count
  /// (ties by ascending (hash, bytes)). Unlike \ref snapshot this
  /// copies only the winners' blobs -- an O(classes) scan materializing
  /// O(N) bytes, cheap even through the mapped reader.
  virtual std::vector<ClassSummary<H>> largestClasses(size_t N) const = 0;

  /// Find the class of \p Root (owned by \p Ctx), if present: an
  /// adapter that serializes the term and takes the byte path.
  std::optional<LookupResult<H>> lookup(const ExprContext &Ctx,
                                        const Expr *Root) const {
    return lookupSerialized(serializeExpr(Ctx, Root));
  }

  /// The one probe every backend implements: find the class of \p Query,
  /// a blob \ref AlphaHasher::hashSerialized proved (see \ref
  /// detail::hashQuery) whose alpha-hash under \ref schema is \p Hash,
  /// verifying candidates with \p Scratch (private to the calling
  /// thread).
  virtual std::optional<LookupResult<H>>
  lookupHashed(std::string_view Query, H Hash,
               DecodeScratch &Scratch) const = 0;

  /// Membership query in `ast/Serialize` format, on the byte read path:
  /// hashed and verified straight from its bytes (\ref
  /// detail::hashQuery), canonicalized first only when the byte driver
  /// cannot prove distinct binders. One definition for every backend and
  /// for the daemon, so a behavior change (e.g. how undecodable query
  /// blobs are reported) cannot reach one read path and miss another.
  std::optional<LookupResult<H>>
  lookupSerialized(std::string_view Bytes) const {
    ExprContext Boot;
    AlphaHasher<H> Hasher(Boot, schema());
    DecodeScratch Scratch;
    return lookupSerialized(Bytes, Hasher, Scratch);
  }

  /// \ref lookupSerialized with a caller-owned hasher (any bound context;
  /// the byte driver reads none) and verify scratch, reused across a
  /// query stream.
  std::optional<LookupResult<H>>
  lookupSerialized(std::string_view Bytes, AlphaHasher<H> &Hasher,
                   DecodeScratch &Scratch) const {
    assert(Hasher.schema().seed() == schema().seed() &&
           "hasher seed does not match the index");
    std::string Canonical;
    std::optional<H> Hash = detail::hashQuery(Hasher, Bytes, Canonical);
    detail::recordCanonicalized(!Canonical.empty());
    if (!Hash)
      return std::nullopt;
    return lookupHashed(Bytes, *Hash, Scratch);
  }

  /// Aggregate read-side counters of one \ref lookupBatch call: hits and
  /// worker-hasher pool allocations (steady-state must be 0 -- the
  /// zero-allocation read pipeline). Verifies are counted in \ref stats.
  struct ReadBatchStats {
    uint64_t Hits = 0;
    uint64_t PoolNodesAllocated = 0;
    uint64_t SteadyPoolNodesAllocated = 0;
  };

  /// Bulk lookup of serialised expressions on \p Threads workers: the one
  /// batch read path of every backend. Each worker owns a hasher and a
  /// verify scratch for the whole batch and runs \ref lookupSerialized
  /// per blob, so a batch answers exactly like a loop of single lookups.
  /// Result i answers blob i; undecodable blobs yield std::nullopt, same
  /// as a miss. \p StatsOut, if non-null, receives \ref ReadBatchStats.
  std::vector<std::optional<LookupResult<H>>>
  lookupBatch(const std::vector<std::string> &Blobs, unsigned Threads,
              ReadBatchStats *StatsOut = nullptr) const {
    std::vector<std::optional<LookupResult<H>>> Results(Blobs.size());
    ReadBatchStats Total;
    std::mutex TotalMu;
    detail::forEachHashedChunk<H, DecodeScratch>(
        schema(), Blobs.size(), Threads, "query",
        [&](AlphaHasher<H> &Hasher, size_t Begin, size_t End,
            DecodeScratch &Scratch) {
          for (size_t I = Begin; I != End; ++I)
            Results[I] = lookupSerialized(Blobs[I], Hasher, Scratch);
        },
        [&](DecodeScratch &, uint64_t PoolNodes, uint64_t SteadyNodes) {
          std::lock_guard<std::mutex> Lock(TotalMu);
          Total.PoolNodesAllocated += PoolNodes;
          Total.SteadyPoolNodesAllocated += SteadyNodes;
        });
    if (StatsOut) {
      for (const std::optional<LookupResult<H>> &R : Results)
        Total.Hits += R.has_value();
      *StatsOut = Total;
    }
    return Results;
  }
};

} // namespace hma

#endif // HMA_INDEX_INDEXREADER_H
