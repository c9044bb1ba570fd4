//===- index/AlphaHashIndex.h - Interning modulo alpha-equivalence ---------===//
///
/// \file
/// A concurrent, sharded, content-addressed store of expressions keyed by
/// their alpha-hash: the serving-layer use the paper's algorithm was built
/// for (Section 1's "hash table keyed by hashes modulo alpha").
///
/// Design:
///
///  - **Sharding.** Entries are spread across N shards (N rounded up to a
///    power of two) by the low bits of a mix of the alpha-hash. Each shard
///    owns a `std::shared_mutex` and a byte-backed \ref ShardStore --
///    striped locking, so concurrent ingest of a well-spread corpus rarely
///    contends, and read-mostly query traffic proceeds under *shared*
///    locks that never block each other (see "read path" in README.md).
///
///  - **Bytes as truth.** A class is (hash, canonical `ast/Serialize`
///    bytes, count) -- nothing decoded is retained. Ingest takes the read
///    path's per-blob step (\ref detail::hashQuery): the byte driver
///    hashes each blob and proves its binders distinct, and only a blob
///    it cannot prove is canonicalized (decoded, uniquified,
///    re-serialized). The exact-verify fallback walks a candidate's bytes
///    in lockstep with the proven query bytes
///    (\ref verifyCandidateBytes) using a small reusable
///    \ref DecodeScratch (per shard for ingest, per worker for batch
///    reads), so retained memory is the canonical blobs plus a bounded
///    scratch, not every representative's arena. The same table is what
///    `index/IndexIO.h` persists as the `HMAI` on-disk format; \ref
///    restore rebuilds an index from it without re-hashing anything.
///
///  - **Hash-then-verify.** Theorem 6.7 bounds the collision probability
///    (<= 5(|e1|+|e2|)/2^b), but an interning service must be *correct*,
///    not probably-correct: on a hash hit the index falls back to an
///    exact alpha-equivalence check before merging, and counts how
///    often the fallback ran and how often it refuted a hash match (a
///    *verified collision*). At b=128 verified collisions are expected to
///    be zero forever; the b=16 instantiation exercises the machinery for
///    real (see tests/index_test.cpp).
///
///  - **The stored representative.** A new class stores exactly what
///    \ref serializeExpr writes for its first member's uniquified term.
///    A proven blob is almost always already in that form
///    (\ref serial::inSerializerForm) and is copied as it came; any other
///    is decoded and re-serialized. Free names compare by spelling, so
///    the bytes mean the same in every context.
///
///  - **Batch ingest and batch query.** \ref insertBatch and
///    \ref IndexReader::lookupBatch fan a corpus of serialised
///    expressions out over a \ref ThreadPool. Each worker keeps ONE
///    long-lived \ref AlphaHasher whose scratch (map-node pool, value
///    stack, the byte driver's buffers) persists across the whole batch:
///    once warmed up on its first chunk, a worker hashes thousands of
///    blobs with zero pool allocations (BatchResult and ReadBatchStats
///    report the counters). The resulting class set is independent of
///    the thread count (tested); which member of a class becomes its
///    representative is not, above one thread.
///
/// The class is templated over the hash code type with the same rationale
/// as \ref AlphaHasher: collision handling must be exercised by running
/// the genuine data flow at a narrow width, not by truncating after the
/// fact.
///
/// The read-side surface (lookup / lookupBatch / stats / snapshot)
/// implements \ref IndexReader, the interface shared with the zero-copy
/// \ref MappedIndex file reader -- serving code programs against the
/// interface and does not care whether classes are resident or mapped.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_ALPHAHASHINDEX_H
#define HMA_INDEX_ALPHAHASHINDEX_H

#include "ast/Expr.h"
#include "ast/Serialize.h"
#include "core/AlphaHasher.h"
#include "index/BatchDriver.h"
#include "index/IndexReader.h"
#include "index/ShardStore.h"
#include "obs/Metrics.h"
#include "support/HashCode.h"
#include "support/HashSchema.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hma {

/// A thread-safe interning service for expressions modulo
/// alpha-equivalence, keyed by their alpha-hash.
template <typename H = Hash128> class AlphaHashIndex : public IndexReader<H> {
public:
  struct Options {
    /// Number of lock stripes; rounded up to a power of two. More shards
    /// means less ingest contention and more fixed memory.
    unsigned Shards = 64;
    /// Seed for the hash combiner family (must match across every
    /// producer whose hashes are compared against this index).
    uint64_t Seed = HashSchema::DefaultSeed;
  };

  /// Result of a membership query (see index/IndexReader.h). The
  /// canonical bytes are a zero-copy view into this index's shard store:
  /// class bytes are immutable and never relocate once interned, so the
  /// view stays valid -- even across further ingest -- until the index
  /// is destroyed.
  using LookupResult = hma::LookupResult<H>;

  /// One equivalence class, as exported by \ref snapshot (owning).
  using ClassSummary = hma::ClassSummary<H>;

  /// Outcome of a batch ingest.
  struct BatchResult {
    uint64_t Ingested = 0;     ///< Blobs successfully hashed and inserted.
    uint64_t DecodeErrors = 0; ///< Blobs rejected by the deserialiser.
    /// Map-pool storage (spilled-table slots) allocated by worker hashers
    /// over the whole batch (the warm-up cost of the scratch-reuse
    /// design).
    uint64_t PoolNodesAllocated = 0;
    /// The subset of PoolNodesAllocated incurred *after* each worker's
    /// first chunk. On a corpus whose largest expression appears early,
    /// this is zero: steady-state ingest performs no pool allocation per
    /// expression (asserted in tests/index_test.cpp).
    uint64_t SteadyPoolNodesAllocated = 0;
  };

  /// Upper bound on lock stripes; beyond this the fixed per-shard cost
  /// (mutex + context) dwarfs any contention win.
  static constexpr unsigned MaxShards = 1u << 16;

  explicit AlphaHashIndex(Options Opts = Options())
      : Opts(Opts), Schema(Opts.Seed) {
    unsigned Want = std::clamp(Opts.Shards, 1u, MaxShards);
    unsigned N = 1;
    while (N < Want)
      N <<= 1;
    ShardMask = N - 1;
    ShardsArr = std::make_unique<Shard[]>(N);
  }

  AlphaHashIndex(const AlphaHashIndex &) = delete;
  AlphaHashIndex &operator=(const AlphaHashIndex &) = delete;

  unsigned numShards() const override { return ShardMask + 1; }
  const HashSchema &schema() const override { return Schema; }
  const char *backendName() const override { return "live"; }

  //===--------------------------------------------------------------------===//
  // Ingest
  //===--------------------------------------------------------------------===//

  /// Intern \p Root (owned by \p Ctx) and return its alpha-hash: an
  /// adapter that serializes the term and takes the byte path.
  H insert(const ExprContext &Ctx, const Expr *Root) {
    return *insertSerialized(serializeExpr(Ctx, Root));
  }

  /// Intern one expression in `ast/Serialize` format. Returns the hash,
  /// or std::nullopt for a malformed blob (counted in
  /// IndexStats::DecodeErrors).
  std::optional<H> insertSerialized(std::string_view Bytes) {
    ExprContext Boot;
    AlphaHasher<H> Hasher(Boot, Schema);
    std::string Canonical;
    return ingest(Hasher, Bytes, Canonical);
  }

  /// Intern a whole corpus of serialised expressions, hashing on
  /// \p Threads workers (<= 1 means inline on the caller). The resulting
  /// class set, counts and stats do not depend on \p Threads; above one
  /// thread, which member of a class becomes its representative is a
  /// scheduling race.
  BatchResult insertBatch(const std::vector<std::string> &Blobs,
                          unsigned Threads) {
    BatchResult Result;
    std::mutex ResultMu;
    detail::forEachHashedChunk<H, BatchResult>(
        Schema, Blobs.size(), Threads, "ingest",
        [&](AlphaHasher<H> &Hasher, size_t Begin, size_t End,
            BatchResult &W) {
          std::string Canonical;
          for (size_t I = Begin; I != End; ++I) {
            if (ingest(Hasher, Blobs[I], Canonical))
              ++W.Ingested;
            else
              ++W.DecodeErrors;
          }
        },
        [&](BatchResult &W, uint64_t PoolNodes, uint64_t SteadyNodes) {
          std::lock_guard<std::mutex> Lock(ResultMu);
          Result.Ingested += W.Ingested;
          Result.DecodeErrors += W.DecodeErrors;
          Result.PoolNodesAllocated += PoolNodes;
          Result.SteadyPoolNodesAllocated += SteadyNodes;
        });
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------------===//

  /// Read-path probe for an already-hashed query, under a shared stripe
  /// lock. The fallback verifies candidates with \p Scratch, which must
  /// be private to the calling thread (shard state is only read).
  std::optional<LookupResult>
  lookupHashed(std::string_view Query, H Hash,
               DecodeScratch &Scratch) const override {
    static const obs::Histogram LockWaitNs = obs::Histogram::get(
        "hma_index_read_lock_wait_ns",
        "Time a reader waited to acquire its shard's shared lock, ns");
    static const obs::Histogram LockHoldNs = obs::Histogram::get(
        "hma_index_read_lock_hold_ns",
        "Time a reader held its shard's shared lock, ns");
    static const obs::Histogram VerifyNs = obs::Histogram::get(
        "hma_index_verify_ns",
        "Latency of a probe that ran the exact alpha-equivalence "
        "fallback at least once, ns");
    static const obs::Counter ReadVerifies = obs::Counter::get(
        "hma_index_read_fallback_checks_total",
        "Exact-verify fallback runs on the shared-lock read path");
    static const obs::Counter ReadCollisions = obs::Counter::get(
        "hma_index_read_verified_collisions_total",
        "Hash matches refuted by the exact check on the read path");
    const Shard &S = shardFor(Hash);
    const uint64_t T0 = obs::Enabled ? obs::nowNanos() : 0;
    std::shared_lock<std::shared_mutex> Lock(S.Mu);
    const uint64_t T1 = obs::Enabled ? obs::nowNanos() : 0;
    uint64_t Checks = 0, Refuted = 0;
    size_t Id = S.Store.find(Query, Hash, Scratch, Checks, Refuted);
    if (obs::Enabled) {
      const uint64_t T2 = obs::nowNanos();
      LockWaitNs.record(T1 - T0);
      LockHoldNs.record(T2 - T1);
      if (Checks)
        VerifyNs.record(T2 - T1);
    }
    if (Checks) {
      S.ReadFallbackChecks.fetch_add(Checks, std::memory_order_relaxed);
      S.ReadVerifiedCollisions.fetch_add(Refuted, std::memory_order_relaxed);
      ReadVerifies.add(Checks);
      ReadCollisions.add(Refuted);
    }
    if (Id == ShardStore<H>::npos)
      return std::nullopt;
    const auto &C = S.Store.at(Id);
    return LookupResult{Hash, C.Count, C.Bytes};
  }

  /// Number of distinct alpha-equivalence classes interned.
  size_t numClasses() const override {
    size_t N = 0;
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      N += ShardsArr[I].Store.size();
    }
    return N;
  }

  /// Total successful ingest operations (duplicates included).
  uint64_t totalInserted() const { return stats().Inserted; }

  /// Aggregate counters across all shards (including the atomics the
  /// shared-lock read path bumps).
  IndexStats stats() const override {
    IndexStats Total;
    for (unsigned I = 0; I != numShards(); ++I) {
      const Shard &S = ShardsArr[I];
      std::shared_lock<std::shared_mutex> Lock(S.Mu);
      Total += S.Stats;
      Total.FallbackChecks +=
          S.ReadFallbackChecks.load(std::memory_order_relaxed);
      Total.VerifiedCollisions +=
          S.ReadVerifiedCollisions.load(std::memory_order_relaxed);
    }
    return Total;
  }

  /// Number of classes per shard (for load-balance diagnostics).
  std::vector<size_t> shardLoads() const override {
    std::vector<size_t> Loads(numShards());
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      Loads[I] = ShardsArr[I].Store.size();
    }
    return Loads;
  }

  /// Canonical-blob bytes per shard (the per-shard split of
  /// \ref retainedBytes).
  std::vector<size_t> shardBytes() const override {
    std::vector<size_t> Bytes(numShards());
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      Bytes[I] = ShardsArr[I].Store.retainedBytes();
    }
    return Bytes;
  }

  /// Export every class, sorted by (hash, canonical bytes) so the result
  /// is a canonical value suitable for equality comparison across runs.
  std::vector<ClassSummary> snapshot() const override {
    std::vector<ClassSummary> Out;
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      ShardsArr[I].Store.forEach([&Out](const auto &C) {
        Out.push_back(ClassSummary{C.Hash, C.Count, C.Bytes});
      });
    }
    std::sort(Out.begin(), Out.end(), detail::lessByHashThenBytes<H>);
    return Out;
  }

  std::vector<ClassSummary> largestClasses(size_t N) const override {
    std::vector<ClassSummary> Top;
    if (N == 0)
      return Top;
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      ShardsArr[I].Store.forEach([&](const auto &C) {
        detail::considerLargest<H>(Top, N, C.Hash, C.Count, C.Bytes);
      });
    }
    return Top;
  }

  //===--------------------------------------------------------------------===//
  // Memory accounting & persistence hooks (see index/IndexIO.h)
  //===--------------------------------------------------------------------===//

  /// Bytes retained by class storage across all shards: the canonical
  /// `ast/Serialize` blobs. This is the whole per-class footprint modulo
  /// proportional table overhead -- shards keep no decoded
  /// representatives.
  size_t retainedBytes() const override {
    size_t N = 0;
    for (unsigned I = 0; I != numShards(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(ShardsArr[I].Mu);
      N += ShardsArr[I].Store.retainedBytes();
    }
    return N;
  }

  /// Which shard \p Hash maps to (stable for a fixed shard count). Lets
  /// the `HMAI` writer group classes exactly as the in-memory index does.
  unsigned shardIndexFor(H Hash) const {
    return static_cast<unsigned>(&shardFor(Hash) - ShardsArr.get());
  }

  /// Rebuild an index from a class table exactly as exported by \ref
  /// snapshot (any order) plus the aggregate counters saved alongside it
  /// -- no hashing, no equivalence probe. Trusted input: each class's
  /// bytes must be the valid `ast/Serialize` form of an expression whose
  /// alpha-hash under \p Opts' schema is its hash, and no two classes may
  /// be alpha-equivalent; a verified \ref MappedIndex (its snapshot and
  /// stats) and a segment merge are the intended sources. Placement is a
  /// pure function of the hash, so \p Opts may re-stripe the classes over
  /// any shard count. The stats are folded into one shard (per-shard
  /// attribution is not observable through the public API), so the
  /// result reports exactly \p Stats.
  static std::unique_ptr<AlphaHashIndex>
  restore(Options Opts, std::vector<ClassSummary> Classes, IndexStats Stats) {
    auto Index = std::make_unique<AlphaHashIndex>(Opts);
    for (ClassSummary &C : Classes)
      Index->shardFor(C.Hash).Store.addClass(
          C.Hash, std::move(C.CanonicalBytes), C.Count);
    Index->ShardsArr[0].Stats = Stats;
    return Index;
  }

private:
  /// One lock stripe: a reader-writer mutex, the byte-backed class store,
  /// and the ingest-side verify scratch. The read path (lookup /
  /// lookupBatch / stats / snapshot) takes the mutex shared, supplies its
  /// own \ref DecodeScratch, and records its counters in atomics; only
  /// ingest and decode-error bumps take the mutex exclusive (which is
  /// also what makes mutating WriteScratch safe).
  struct Shard {
    mutable std::shared_mutex Mu;
    ShardStore<H> Store;
    DecodeScratch WriteScratch;
    IndexStats Stats;
    mutable std::atomic<uint64_t> ReadFallbackChecks{0};
    mutable std::atomic<uint64_t> ReadVerifiedCollisions{0};

    void bumpDecodeError() {
      std::lock_guard<std::shared_mutex> Lock(Mu);
      ++Stats.DecodeErrors;
    }
  };

  Shard &shardFor(H Hash) const {
    return ShardsArr[detail::shardIndexForHash(Hash, ShardMask)];
  }

  /// The per-blob ingest step: hash \p Blob on the byte path (\ref
  /// detail::hashQuery, canonicalizing into \p Canonical only when the
  /// byte driver cannot prove it) and intern the proven bytes. A
  /// malformed blob is counted as a decode error and yields nullopt.
  std::optional<H> ingest(AlphaHasher<H> &Hasher, std::string_view Blob,
                          std::string &Canonical) {
    std::optional<H> Hash = detail::hashQuery(Hasher, Blob, Canonical);
    if (Hash)
      insertHashed(Blob, *Hash);
    else
      shardFor(H{}).bumpDecodeError();
    return Hash;
  }

  /// What a class founded by the proven blob \p Proven stores: what
  /// \ref serializeExpr writes for its term. That is almost always the
  /// blob itself; otherwise it is decoded with \p Scratch and
  /// re-serialized. Its binders are proven distinct, so the decoded term
  /// needs no uniquify.
  static std::string storedBytes(std::string_view Proven,
                                 DecodeScratch &Scratch) {
    if (serial::inSerializerForm(Proven))
      return std::string(Proven);
    const Expr *Root = Scratch.decode(Proven);
    return serializeExpr(Scratch.context(), Root);
  }

  /// Core ingest: the proven blob \p Proven (see \ref detail::hashQuery)
  /// with its alpha-hash.
  void insertHashed(std::string_view Proven, H Hash) {
    static const obs::Histogram LockWaitNs = obs::Histogram::get(
        "hma_index_write_lock_wait_ns",
        "Time ingest waited to acquire its shard's exclusive lock, ns");
    static const obs::Histogram LockHoldNs = obs::Histogram::get(
        "hma_index_write_lock_hold_ns",
        "Time ingest held its shard's exclusive lock, ns");
    static const obs::Counter WriteVerifies = obs::Counter::get(
        "hma_index_write_fallback_checks_total",
        "Exact-verify fallback runs on the ingest path");
    static const obs::Counter WriteCollisions = obs::Counter::get(
        "hma_index_write_verified_collisions_total",
        "Hash matches refuted by the exact check during ingest");
    Shard &S = shardFor(Hash);
    const uint64_t T0 = obs::Enabled ? obs::nowNanos() : 0;
    std::lock_guard<std::shared_mutex> Lock(S.Mu);
    const uint64_t T1 = obs::Enabled ? obs::nowNanos() : 0;
    ++S.Stats.Inserted;

    // Hash hit: Theorem 6.7 says this is almost surely a duplicate, but
    // interning must not merge inequivalent terms -- the store verifies
    // exactly, walking candidates with the shard's write scratch.
    uint64_t Checks = 0, Refuted = 0;
    size_t Id = S.Store.find(Proven, Hash, S.WriteScratch, Checks, Refuted);
    S.Stats.FallbackChecks += Checks;
    S.Stats.VerifiedCollisions += Refuted;
    if (Checks) {
      WriteVerifies.add(Checks);
      WriteCollisions.add(Refuted);
    }
    if (Id != ShardStore<H>::npos) {
      S.Store.bumpCount(Id);
      ++S.Stats.Duplicates;
    } else {
      S.Store.addClass(Hash, storedBytes(Proven, S.WriteScratch),
                       /*Count=*/1);
      ++S.Stats.NewClasses;
    }
    if (obs::Enabled) {
      LockWaitNs.record(T1 - T0);
      LockHoldNs.record(obs::nowNanos() - T1);
    }
  }

  Options Opts;
  HashSchema Schema;
  unsigned ShardMask = 0;
  std::unique_ptr<Shard[]> ShardsArr;
};

} // namespace hma

#endif // HMA_INDEX_ALPHAHASHINDEX_H
