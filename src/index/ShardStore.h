//===- index/ShardStore.h - Byte-backed per-shard class storage -------------===//
///
/// \file
/// The storage layer under \ref AlphaHashIndex: one shard's equivalence
/// classes, keyed by alpha-hash, with the serialised canonical bytes as
/// the *only* retained representation.
///
/// The paper's hash-then-verify design (Theorem 6.7 plus an exact
/// alpha-equivalence fallback) means a shard is fully determined by its
/// class table: (hash, canonical bytes, count). Earlier revisions
/// additionally kept every canonical representative *decoded* in a
/// per-shard \ref ExprContext so the fallback could compare against live
/// nodes -- which retained the arena of every class forever (measured at
/// ~2 KiB/class on 64-node expressions, ~8 KiB/class on 256-node ones,
/// versus ~0.3-1.2 KiB/class of canonical bytes). \ref ShardStore inverts
/// that: classes hold bytes, and the exact-verify fallback,
/// \ref verifyCandidateBytes, walks a candidate's bytes in lockstep with
/// the query without decoding them, reusing the buffers of a small
/// per-thread \ref DecodeScratch. The query is a blob too: the proven
/// bytes \ref detail::hashQuery hashed, for ingest and lookups alike,
/// so the verifier is one relation over two byte streams. The same
/// verifier serves the mapped reader (index/MappedIndex.h), so every
/// backend verifies identically.
///
/// Bytes-as-truth is also what makes the store pluggable: the `HMAI`
/// on-disk format (index/IndexIO.h) is little more than this table with a
/// sorted fixed-width header per shard, and the mmap-backed reader serves
/// the same probe interface straight from the file.
///
/// Thread-safety: none here. \ref AlphaHashIndex wraps each store in its
/// stripe lock; \ref find is `const` and writes only through the
/// caller-supplied scratch, so concurrent readers are safe as long as
/// each supplies its own \ref DecodeScratch.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_SHARDSTORE_H
#define HMA_INDEX_SHARDSTORE_H

#include "ast/Expr.h"
#include "ast/Serialize.h"
#include "support/HashCode.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hma {

class ByteVerifier;

/// Per-thread scratch of the exact-verify fallback.
///
/// Its main job is to hold the buffers \ref verifyCandidateBytes reuses
/// across candidates, so steady-state verification allocates nothing.
/// It also offers a bounded decode target, \ref decode, for callers that
/// want a blob as an \ref Expr: benches, diagnostics, and ingest's rare
/// re-serialize of a proven blob that is not in serializer form (the
/// read path never decodes). Contexts only ever grow, so the
/// decode target reuses one context and recycles it (drops and
/// reconstructs) only when its arena crosses a threshold: retained
/// scratch memory stays bounded by the threshold plus one expression.
class DecodeScratch {
public:
  /// Default arena-byte threshold above which the decode context is
  /// recycled before the next decode.
  static constexpr size_t DefaultRecycleBytes = 256 * 1024;

  explicit DecodeScratch(size_t RecycleBytes = DefaultRecycleBytes)
      : RecycleBytes(RecycleBytes) {}

  /// Decode \p Bytes into the scratch context. Returns nullptr on a
  /// malformed blob. The returned expression (and \ref context()) stays
  /// valid until the *next* decode call, which may recycle the context.
  const Expr *decode(std::string_view Bytes) {
    if (!Ctx || Ctx->arena().bytesAllocated() > RecycleBytes)
      Ctx = std::make_unique<ExprContext>();
    DeserializeResult R = deserializeExpr(*Ctx, Bytes);
    return R.ok() ? R.E : nullptr;
  }

  /// The context owning the most recent \ref decode result. Only valid
  /// after a decode.
  const ExprContext &context() const { return *Ctx; }

  /// Arena bytes currently retained by the decode context (<= threshold
  /// plus one decoded expression).
  size_t arenaBytes() const {
    return Ctx ? Ctx->arena().bytesAllocated() : 0;
  }

private:
  friend class ByteVerifier;

  /// Per-id state of the candidate's name table during one walk.
  struct CandidateName {
    uint32_t BinderPos; ///< Position of the innermost binder in scope.
    uint32_t FreeMatch; ///< Query id its free uses matched, if any.
  };

  std::unique_ptr<ExprContext> Ctx;
  size_t RecycleBytes;
  // The candidate side of the walk.
  std::vector<std::string_view> Spellings;
  std::vector<uint32_t> Canon;
  std::vector<uint32_t> SpellingSlots;
  std::vector<CandidateName> Names;
  std::vector<uint32_t> SavedPos; ///< Binder positions shadowed by scopes.
  std::vector<serial::WalkFrame> Frames;
  // The query side: its name table and the binder position of each id.
  std::vector<std::string_view> QuerySpellings;
  std::vector<uint32_t> QueryBinderPos;
};

/// The exact-verify fallback: true iff \p Candidate is a well-formed
/// `ast/Serialize` blob whose expression is alpha-equivalent to the one
/// in \p Query, a blob whose binders \ref AlphaHasher::hashSerialized
/// proved distinct (it succeeded on it). This is exactly
/// `deserializeExpr(Candidate).ok() && alphaEquivalent(...)` on the
/// decoded query (differential-tested), but nothing is decoded: both
/// streams are read once, in lockstep, and two variables correspond when
/// both are bound by binders at the same preorder position, or both are
/// free with equal spellings. The candidate may shadow binders and may
/// repeat a spelling in its name table; repeats are merged exactly as
/// the decoder merges them. Any malformed candidate byte refutes, as a
/// failed decode does.
bool verifyCandidateBytes(std::string_view Query, std::string_view Candidate,
                          DecodeScratch &Scratch);

/// One shard's classes: a hash-to-entries table over byte-backed
/// \ref ShardStore::Class records.
template <typename H> class ShardStore {
public:
  /// One equivalence class. `Bytes` (the `ast/Serialize` form of the
  /// canonical representative) is the source of truth; nothing decoded is
  /// retained.
  struct Class {
    H Hash{};
    std::string Bytes;
    uint64_t Count = 0;
  };

  static constexpr size_t npos = ~size_t(0);

  size_t size() const { return Classes.size(); }
  const Class &at(size_t I) const { return Classes[I]; }

  /// Visit every class in insertion order.
  template <typename Fn> void forEach(Fn F) const {
    for (const Class &C : Classes)
      F(C);
  }

  /// Probe for a class alpha-equivalent to the proven query blob \p Query
  /// among the entries stored under \p Hash. Each candidate costs one
  /// \ref verifyCandidateBytes walk with \p Scratch;
  /// \p Checks counts the checks run and \p Refuted the hash matches the
  /// check rejected (verified collisions). A candidate whose bytes are
  /// malformed -- impossible for classes interned by this process,
  /// conceivable for a corrupted `HMAI` file loaded unverified -- is
  /// counted as refuted rather than trusted. Returns the class index or
  /// \ref npos.
  size_t find(std::string_view Query, H Hash, DecodeScratch &Scratch,
              uint64_t &Checks, uint64_t &Refuted) const {
    auto It = ByHash.find(Hash);
    if (It == ByHash.end())
      return npos;
    for (uint32_t Id : It->second) {
      const Class &C = Classes[Id];
      ++Checks;
      if (verifyCandidateBytes(Query, C.Bytes, Scratch))
        return Id;
      ++Refuted;
    }
    return npos;
  }

  /// Append a class (no equivalence probe: callers either probed first
  /// via \ref find or are restoring a saved table). Returns its index.
  size_t addClass(H Hash, std::string Bytes, uint64_t Count) {
    RetainedBytes += Bytes.size();
    Classes.push_back(Class{Hash, std::move(Bytes), Count});
    size_t Id = Classes.size() - 1;
    ByHash[Hash].push_back(static_cast<uint32_t>(Id));
    return Id;
  }

  /// Record one more member of class \p I.
  void bumpCount(size_t I) { ++Classes[I].Count; }

  /// Bytes retained by class storage: the canonical blobs themselves.
  /// (Table overhead -- deque blocks, bucket vectors -- is proportional
  /// and small.)
  size_t retainedBytes() const { return RetainedBytes; }

private:
  std::deque<Class> Classes; ///< Stable ids; deque avoids relocation.
  std::unordered_map<H, std::vector<uint32_t>, HashCodeHasher> ByHash;
  size_t RetainedBytes = 0;
};

} // namespace hma

#endif // HMA_INDEX_SHARDSTORE_H
