//===- index/SegmentSet.h - Segmented-index reader over mapped segments -----===//
///
/// \file
/// The read side of a segmented index (see index/SegmentManifest.h for
/// the on-disk layout and crash rules): \ref SegmentSet opens and
/// validates everything the manifest names, and \ref SegmentedIndex
/// serves the \ref IndexReader surface over it.
///
/// \ref openIndex is the one admission gate of every index that serves
/// answers: a segment directory or a single `HMAI` file, opened and
/// deep-verified (\ref MappedIndex::verify on every file), or refused
/// with the diagnostic. `hma index open` and the daemon's loads and
/// reloads (serve/Generation.h) both go through it.
///
/// A segmented index is observably *one* class table, stored as the
/// union of several immutable `HMAI` segments. The same alpha-class may
/// appear in more than one segment -- an `update` ingests its delta
/// into a fresh segment, so a class that already existed gains a second
/// entry (with the delta's member count and possibly a different, but
/// alpha-equivalent, canonical spelling). The read path therefore
/// defines the union semantics:
///
///  - **membership / hash**: a query hits iff any segment holds its
///    class; the hash is the same in every segment (same seed, same bit
///    width -- enforced at open).
///  - **count**: the *sum* of the matching class's counts over all
///    segments, saturating at u64 (\ref saturatingAdd): a hot class
///    split across many segments clamps rather than wraps.
///  - **canonical representative**: the *oldest* segment's entry. The
///    live index keeps the first-ingested member as a class's canonical
///    spelling, and the oldest segment is where that first member
///    lives; picking it makes a segmented index answer byte-identically
///    to a single-file index built from the same corpus in the same
///    order (the differential contract pinned by tests/segment_test.cpp).
///
/// Probing is newest-first through each segment's \ref MappedIndex
/// probe (one hash computation per query, one \ref
/// MappedIndex::lookupHashed per segment); segments the query misses
/// cost one lower bound each. Stats and snapshots
/// aggregate the same way: saturating field-wise sums, and a snapshot
/// that merges alpha-equivalent classes across segments (oldest
/// representative, summed counts) so it equals the snapshot of the
/// equivalent single-file index. Every probe and every merge check takes
/// the query as proven bytes (\ref detail::hashQuery), like the rest of
/// the index layer.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_SEGMENTSET_H
#define HMA_INDEX_SEGMENTSET_H

#include "ast/Serialize.h"
#include "core/AlphaHasher.h"
#include "index/IndexIO.h"
#include "index/IndexReader.h"
#include "index/MappedIndex.h"
#include "index/SegmentManifest.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hma {

namespace detail {

/// Merge per-segment snapshots (given oldest segment first, each sorted
/// by (hash, bytes)) into the union class table: alpha-equivalent
/// classes collapse to one summary with the *oldest* representative and
/// the saturating sum of counts. A linear k-way pass over the sorted
/// streams; the exact-equivalence check runs only inside duplicate-hash
/// runs (cross-segment repeats and forced collisions), never on the
/// sorted bulk. There each group's representative is proven once by the
/// byte path's \ref detail::hashQuery (canonicalized if it must be) and
/// verified against later entries from its bytes; a representative that
/// does not decode matches only byte-equal entries. Output is sorted by
/// (hash, bytes) -- the canonical \ref IndexReader::snapshot order.
template <typename H>
std::vector<ClassSummary<H>>
mergeClassSummaries(const std::vector<std::vector<ClassSummary<H>>> &Streams) {
  std::vector<ClassSummary<H>> Out;
  std::vector<size_t> Cur(Streams.size(), 0);
  size_t Total = 0;
  for (const auto &S : Streams)
    Total += S.size();
  Out.reserve(Total);

  // One alpha-equivalence group within a duplicate-hash run: the oldest
  // entry is the representative, later members only add counts.
  struct Group {
    ClassSummary<H> Summary;
    /// The representative as a proven query blob is its own bytes,
    /// unless it had to be canonicalized into this copy.
    std::string Canonical;
    bool Decodes = false; ///< Otherwise it matches only equal bytes.

    std::string_view proven() const {
      return Canonical.empty() ? std::string_view(Summary.CanonicalBytes)
                               : std::string_view(Canonical);
    }
  };
  std::vector<const ClassSummary<H> *> Run;
  std::vector<Group> Groups;
  ExprContext Boot;
  AlphaHasher<H> Prover(Boot); // proves binders; the hash goes unused
  DecodeScratch Scratch;

  for (;;) {
    // The smallest unconsumed hash across all streams.
    const H *MinHash = nullptr;
    for (size_t S = 0; S != Streams.size(); ++S)
      if (Cur[S] != Streams[S].size() &&
          (!MinHash || Streams[S][Cur[S]].Hash < *MinHash))
        MinHash = &Streams[S][Cur[S]].Hash;
    if (!MinHash)
      break;
    const H Hash = *MinHash;

    // The run of entries under this hash, oldest stream first.
    Run.clear();
    for (size_t S = 0; S != Streams.size(); ++S)
      for (; Cur[S] != Streams[S].size() && Streams[S][Cur[S]].Hash == Hash;
           ++Cur[S])
        Run.push_back(&Streams[S][Cur[S]]);
    if (Run.size() == 1) {
      Out.push_back(*Run.front());
      continue;
    }

    // Group the run by alpha-equivalence in age order, so each group's
    // representative is the oldest occurrence.
    Groups.clear();
    for (const ClassSummary<H> *E : Run) {
      Group *Home = nullptr;
      for (Group &G : Groups) {
        // Byte-equal spellings are the same class without a check;
        // different spellings under one hash need the exact one
        // (alpha-renamed duplicate vs genuine collision).
        if (G.Summary.CanonicalBytes == E->CanonicalBytes ||
            (G.Decodes &&
             verifyCandidateBytes(G.proven(), E->CanonicalBytes, Scratch))) {
          Home = &G;
          break;
        }
      }
      if (Home) {
        Home->Summary.Count = saturatingAdd(Home->Summary.Count, E->Count);
        continue;
      }
      Group &G = Groups.emplace_back(Group{*E, {}, false});
      std::string_view Proven = G.Summary.CanonicalBytes;
      G.Decodes = hashQuery(Prover, Proven, G.Canonical).has_value();
    }
    // Representatives came out in age order, not byte order; restore the
    // canonical (hash, bytes) sort within the run.
    std::sort(Groups.begin(), Groups.end(), [](const Group &A,
                                               const Group &B) {
      return A.Summary.CanonicalBytes < B.Summary.CanonicalBytes;
    });
    for (Group &G : Groups)
      Out.push_back(std::move(G.Summary));
  }
  return Out;
}

} // namespace detail

/// The validated contents of one segmented-index directory: the decoded
/// manifest, an open \ref MappedIndex per listed segment (newest first,
/// manifest order), and the orphan report.
template <typename H = Hash128> class SegmentSet {
public:
  /// Outcome of opening a directory (same shape as \ref
  /// MappedIndex::OpenResult; ErrorPos is an offset into whichever file
  /// the message names).
  struct OpenResult {
    std::unique_ptr<SegmentSet> Set;
    std::string Error;
    size_t ErrorPos = 0;

    bool ok() const { return Set != nullptr; }
  };

  /// Open \p Dir: read and checksum-validate `MANIFEST`, then open every
  /// listed segment (O(shards) each -- no per-class work) and cross-check
  /// it against its manifest entry (exact file size, class count, seed,
  /// hash width). A manifest naming a missing, resized or incompatible
  /// segment is rejected; *unreferenced* segment files are ignored and
  /// reported via \ref orphans (the crash-window contract: the manifest
  /// is the single source of truth).
  static OpenResult open(const std::string &Dir) {
    OpenResult R;
    std::string ManifestBytes;
    std::string Error;
    if (!readFileBytes(manifestPathFor(Dir), ManifestBytes, &Error)) {
      R.Error = std::move(Error);
      return R;
    }
    SegmentManifest M;
    if (!SegmentManifest::decode(ManifestBytes, M, &R.Error, &R.ErrorPos))
      return R;
    if (M.HashBits != HashWidth<H>::Bits) {
      R.Error = "manifest is b=" + std::to_string(M.HashBits) +
                " but the reader is instantiated at b=" +
                std::to_string(HashWidth<H>::Bits);
      R.ErrorPos = 16;
      return R;
    }
    if (M.Segments.empty()) {
      R.Error = "manifest lists no segments";
      R.ErrorPos = 20;
      return R;
    }

    auto Set = std::unique_ptr<SegmentSet>(new SegmentSet());
    Set->Dir = Dir;
    Set->Manifest = std::move(M);
    for (const SegmentEntry &E : Set->Manifest.Segments) {
      typename MappedIndex<H>::OpenResult S =
          MappedIndex<H>::open(Dir + "/" + E.Name);
      if (!S.ok()) {
        R.Error = "segment '" + E.Name + "': " + S.Error;
        R.ErrorPos = S.ErrorPos;
        return R;
      }
      if (S.Reader->imageBytes().size() != E.FileBytes) {
        R.Error = "segment '" + E.Name + "': file is " +
                  std::to_string(S.Reader->imageBytes().size()) +
                  " bytes but the manifest recorded " +
                  std::to_string(E.FileBytes);
        return R;
      }
      if (S.Reader->numClasses() != E.Classes) {
        R.Error = "segment '" + E.Name + "': file holds " +
                  std::to_string(S.Reader->numClasses()) +
                  " classes but the manifest recorded " +
                  std::to_string(E.Classes);
        return R;
      }
      if (S.Reader->schema().seed() != Set->Manifest.Seed) {
        R.Error = "segment '" + E.Name +
                  "': seed does not match the manifest";
        R.ErrorPos = 8;
        return R;
      }
      Set->Segments.push_back(std::move(S.Reader));
    }
    Set->Orphans = listUnreferencedSegments(Dir, Set->Manifest);
    R.Set = std::move(Set);
    return R;
  }

  /// Deep integrity check: \ref MappedIndex::verify on every segment,
  /// so \ref openIndex admits a segment directory whole or not at all.
  /// O(total classes); diagnostics name the failing segment.
  bool verify(std::string *Error = nullptr, size_t *ErrorPos = nullptr) const {
    for (size_t I = 0; I != Segments.size(); ++I) {
      std::string SegError;
      if (!Segments[I]->verify(&SegError, ErrorPos)) {
        if (Error)
          *Error = "segment '" + Manifest.Segments[I].Name +
                   "': " + SegError;
        return false;
      }
    }
    return true;
  }

  const std::string &dir() const { return Dir; }
  const SegmentManifest &manifest() const { return Manifest; }
  /// Open segments, newest first (manifest order).
  const std::vector<std::unique_ptr<MappedIndex<H>>> &segments() const {
    return Segments;
  }
  size_t numSegments() const { return Segments.size(); }
  /// Segment-shaped files in the directory the manifest does not list
  /// (crash-window leftovers; see `hma index gc`).
  const std::vector<std::string> &orphans() const { return Orphans; }

private:
  SegmentSet() = default;

  std::string Dir;
  SegmentManifest Manifest;
  std::vector<std::unique_ptr<MappedIndex<H>>> Segments; ///< Newest first.
  std::vector<std::string> Orphans;
};

/// \ref IndexReader over a \ref SegmentSet: one hash computation per
/// query, one probe per segment (newest first), union semantics as per
/// the file comment. Lookup results view whichever segment mapping
/// answered; the SegmentedIndex must outlive them (the usual \ref
/// MappedIndex lifetime rule, extended to the whole set).
template <typename H = Hash128> class SegmentedIndex : public IndexReader<H> {
public:
  using LookupResult = hma::LookupResult<H>;
  using ClassSummary = hma::ClassSummary<H>;

  struct OpenResult {
    std::unique_ptr<SegmentedIndex> Reader;
    std::string Error;
    size_t ErrorPos = 0;

    bool ok() const { return Reader != nullptr; }
  };

  /// Open \p Dir via \ref SegmentSet::open.
  static OpenResult open(const std::string &Dir) {
    OpenResult R;
    typename SegmentSet<H>::OpenResult S = SegmentSet<H>::open(Dir);
    if (!S.ok()) {
      R.Error = std::move(S.Error);
      R.ErrorPos = S.ErrorPos;
      return R;
    }
    R.Reader.reset(new SegmentedIndex(std::move(S.Set)));
    return R;
  }

  /// Serve an already-opened (and typically already-verified) set.
  explicit SegmentedIndex(std::unique_ptr<SegmentSet<H>> Set)
      : Set(std::move(Set)), Schema(this->Set->manifest().Seed) {}

  const SegmentSet<H> &set() const { return *Set; }

  /// \ref SegmentSet::verify -- the whole-set admission gate.
  bool verify(std::string *Error = nullptr, size_t *ErrorPos = nullptr) const {
    return Set->verify(Error, ErrorPos);
  }

  //===--------------------------------------------------------------------===//
  // IndexReader surface
  //===--------------------------------------------------------------------===//

  const char *backendName() const override { return "segmented"; }
  const HashSchema &schema() const override { return Schema; }
  /// Shard count of the newest segment (segments may legally differ; the
  /// newest is what an append would have matched).
  unsigned numShards() const override {
    return Set->segments().front()->numShards();
  }
  /// Distinct classes in the union: the manifest's per-segment `fresh`
  /// bookkeeping summed (each append recorded how many of its classes
  /// did not exist in any older segment).
  size_t numClasses() const override {
    return static_cast<size_t>(Set->manifest().totalClasses());
  }

  /// Field-wise saturating sum of the segment stats (each segment's
  /// header stats record its ingest's contribution *as applied to the
  /// union* -- see the append-time reconciliation in
  /// index/SegmentCompactor.h -- plus whatever fallback checks each
  /// mapped reader has run for this set's queries).
  IndexStats stats() const override {
    IndexStats Sum;
    for (const auto &S : Set->segments()) {
      const IndexStats SS = S->stats();
      Sum.Inserted = saturatingAdd(Sum.Inserted, SS.Inserted);
      Sum.NewClasses = saturatingAdd(Sum.NewClasses, SS.NewClasses);
      Sum.Duplicates = saturatingAdd(Sum.Duplicates, SS.Duplicates);
      Sum.FallbackChecks =
          saturatingAdd(Sum.FallbackChecks, SS.FallbackChecks);
      Sum.VerifiedCollisions =
          saturatingAdd(Sum.VerifiedCollisions, SS.VerifiedCollisions);
      Sum.DecodeErrors = saturatingAdd(Sum.DecodeErrors, SS.DecodeErrors);
    }
    return Sum;
  }

  /// Per-shard class totals summed across segments (diagnostics only:
  /// a class present in several segments counts once per segment here,
  /// unlike \ref numClasses). Sized to the widest segment.
  std::vector<size_t> shardLoads() const override {
    return sumPerShard([](const MappedIndex<H> &S) { return S.shardLoads(); });
  }

  std::vector<size_t> shardBytes() const override {
    return sumPerShard([](const MappedIndex<H> &S) { return S.shardBytes(); });
  }

  size_t retainedBytes() const override {
    size_t N = 0;
    for (const auto &S : Set->segments())
      N += S->retainedBytes();
    return N;
  }

  /// The union class table, merged across segments (oldest
  /// representative, saturating counts): equal to the snapshot of the
  /// single-file index built from the same corpus in the same order.
  std::vector<ClassSummary> snapshot() const override {
    std::vector<std::vector<ClassSummary>> Streams;
    Streams.reserve(Set->numSegments());
    // Oldest first: manifest order is newest first, so walk backwards.
    const auto &Segments = Set->segments();
    for (size_t I = Segments.size(); I != 0; --I)
      Streams.push_back(Segments[I - 1]->snapshot());
    return detail::mergeClassSummaries<H>(Streams);
  }

  std::vector<ClassSummary> largestClasses(size_t N) const override {
    std::vector<ClassSummary> Top;
    if (N == 0)
      return Top;
    // Counts must be union counts, so the selection runs over the merged
    // table (materializing, unlike the single-segment scan -- acceptable
    // for a diagnostics report; the compactor restores the cheap path).
    for (const ClassSummary &C : snapshot())
      detail::considerLargest<H>(Top, N, C.Hash, C.Count, C.CanonicalBytes);
    return Top;
  }

  /// Probe every segment, newest first, for an already-hashed query (the
  /// \ref MappedIndex::lookupHashed shape and the serving path's entry
  /// point): sum counts saturating, answer with the oldest segment's
  /// representative.
  std::optional<LookupResult>
  lookupHashed(std::string_view Query, H Hash,
               DecodeScratch &Scratch) const override {
    std::optional<LookupResult> Answer;
    for (const auto &S : Set->segments()) {
      std::optional<LookupResult> R = S->lookupHashed(Query, Hash, Scratch);
      if (!R)
        continue;
      if (!Answer) {
        Answer = R;
        continue;
      }
      // A hit in an older segment: it holds the earlier-ingested (hence
      // canonical) representative, and its count joins the union sum.
      Answer->Count = saturatingAdd(Answer->Count, R->Count);
      Answer->CanonicalBytes = R->CanonicalBytes;
    }
    return Answer;
  }

private:
  template <typename Fn> std::vector<size_t> sumPerShard(Fn Get) const {
    std::vector<size_t> Sum;
    for (const auto &S : Set->segments()) {
      std::vector<size_t> One = Get(*S);
      if (One.size() > Sum.size())
        Sum.resize(One.size(), 0);
      for (size_t I = 0; I != One.size(); ++I)
        Sum[I] += One[I];
    }
    return Sum;
  }

  std::unique_ptr<SegmentSet<H>> Set;
  HashSchema Schema;
};

/// Outcome of \ref openIndex: a verified reader or the diagnostic.
template <typename H> struct OpenedIndex {
  std::unique_ptr<IndexReader<H>> Reader;
  std::string Error;   ///< Empty on success.
  size_t ErrorPos = 0; ///< Byte offset into whichever file Error names.
  /// Segment files the manifest does not list (crash-window leftovers;
  /// see `hma index gc`). Always empty for a single file.
  std::vector<std::string> Orphans;

  bool ok() const { return Reader != nullptr; }
};

/// Open the index at \p Path and admit it only if it passes the deep
/// check: a segment directory (\ref isSegmentDir) through \ref
/// SegmentedIndex::open + \ref SegmentedIndex::verify, anything else
/// through \ref MappedIndex::open + \ref MappedIndex::verify. The one
/// way code that serves answers turns a path into an index.
template <typename H = Hash128>
OpenedIndex<H> openIndex(const std::string &Path) {
  OpenedIndex<H> R;
  auto Admit = [&R](auto Opened) {
    if (!Opened.ok()) {
      R.Error = std::move(Opened.Error);
      R.ErrorPos = Opened.ErrorPos;
    } else if (Opened.Reader->verify(&R.Error, &R.ErrorPos)) {
      R.Reader = std::move(Opened.Reader);
    }
  };
  if (isSegmentDir(Path)) {
    typename SegmentedIndex<H>::OpenResult S = SegmentedIndex<H>::open(Path);
    if (S.ok())
      R.Orphans = S.Reader->set().orphans();
    Admit(std::move(S));
  } else {
    Admit(MappedIndex<H>::open(Path));
  }
  return R;
}

} // namespace hma

#endif // HMA_INDEX_SEGMENTSET_H
