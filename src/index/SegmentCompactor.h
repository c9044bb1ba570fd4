//===- index/SegmentCompactor.h - Segmented-index write path ----------------===//
///
/// \file
/// The write side of a segmented index: creating one, appending a delta
/// segment in O(delta), merging segments back into one, and deleting the
/// crash-window leftovers. (index/SegmentManifest.h documents the layout
/// and the crash rules; index/SegmentSet.h is the read side.)
///
/// **Append is O(delta).** \ref appendSegment stages the delta corpus in
/// a scratch \ref AlphaHashIndex, writes it as one new segment file, and
/// commits by atomically rewriting the manifest. The existing segments
/// are never read in bulk -- the only per-existing-index work is one
/// probe per *delta class* (newest-first through the mapped segments,
/// O(log classes) each, with the staged class's proven bytes as the
/// query: nothing is decoded or re-hashed) to reconcile the delta's
/// header stats against the union:
///
///  - a delta class some older segment already holds is, from the
///    union's point of view, not a new class -- every member the delta
///    ingested for it was a duplicate insert. The segment's header
///    stats are adjusted (NewClasses down, Duplicates up) before the
///    save, so summing header stats across segments reproduces what a
///    single-file ingest of the concatenated corpus would have counted.
///  - the same probe computes the entry's `fresh` count (classes absent
///    from every older segment), which is what keeps
///    \ref SegmentedIndex::numClasses O(1).
///
/// **Compaction restores the single-segment layout.** \ref
/// compactSegments takes the union table from the segmented reader
/// (\ref SegmentedIndex::snapshot, a linear k-way merge: oldest
/// representative, saturating counts, byte verifies only inside
/// duplicate-hash runs), rebuilds one index via the no-rehash
/// \ref AlphaHashIndex::restore path, writes it as a new segment,
/// swaps the manifest, and only then deletes the replaced segment
/// files. Readers that opened the old generation keep serving: their
/// mappings pin the deleted files' bytes until they close (POSIX unlink
/// semantics -- asserted by tests/segment_test.cpp).
///
/// Both writers follow the same commit discipline: new bytes first,
/// manifest rename second, deletions last. A crash at any point leaves
/// either the old index (manifest not yet swapped; the new segment is
/// an ignored orphan) or the new one (swap done; undeleted old files
/// are orphans) -- never a torn state. \ref gcSegmentDir deletes the
/// orphans either crash leaves behind.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_SEGMENTCOMPACTOR_H
#define HMA_INDEX_SEGMENTCOMPACTOR_H

#include "index/AlphaHashIndex.h"
#include "index/IndexIO.h"
#include "index/SegmentManifest.h"
#include "index/SegmentSet.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include "support/IoEnv.h"

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace hma {

/// Tuning and testing knobs for \ref appendSegment.
struct SegmentAppendOptions {
  unsigned Threads = 1; ///< Ingest parallelism for staging the delta.
  /// Shard count for the new segment (each segment file carries its own
  /// directory). 0 keeps the newest segment's striping, which is also
  /// what compaction inherits, so an append never re-stripes the index
  /// by accident.
  unsigned Shards = 0;
  /// Crash-window simulation: return (successfully, with \ref
  /// SegmentAppendResult::Aborted set) after the segment file is written
  /// but *before* the manifest swap -- the exact state a crash between
  /// the two leaves on disk. The CLI exposes it as
  /// `--crash-after-segment`; CI reopens the directory afterwards and
  /// asserts the old index still serves.
  bool AbortAfterSegmentWrite = false;
  /// I/O environment every durable write runs through (null: the
  /// production passthrough). The crash matrix passes a \ref FaultIoEnv
  /// here to fail / power-cut any call of the append.
  IoEnv *Env = nullptr;
};

/// What one append (or create) did.
struct SegmentAppendResult {
  bool Ok = false;
  bool Aborted = false; ///< Stopped at the crash window (see options).
  std::string Error;
  std::string SegmentName;   ///< File the delta was written to.
  uint64_t DeltaClasses = 0; ///< Classes in the new segment's table.
  uint64_t Fresh = 0;        ///< ... of which exist in no older segment.
  uint64_t ClassesBefore = 0; ///< Union class count before the append.
  uint64_t ClassesAfter = 0;  ///< Union class count after it.
};

/// Turn \p Index into the first segment of a fresh segmented index at
/// directory \p Dir (created if missing). Any `seg-*.hmai` files already
/// present become orphans of the new manifest -- reported by \ref
/// SegmentSet::open and collectable with \ref gcSegmentDir, exactly like
/// crash leftovers.
template <typename H>
SegmentAppendResult createSegmentDir(const std::string &Dir,
                                     const AlphaHashIndex<H> &Index,
                                     const SegmentAppendOptions &Opts = {}) {
  IoEnv &Env = Opts.Env ? *Opts.Env : IoEnv::system();
  SegmentAppendResult R;
  if (int E = Env.mkdir(Dir.c_str(), 0777); E < 0 && E != -EEXIST) {
    R.Error = Dir + ": cannot create directory: " + std::strerror(-E);
    return R;
  }
  SegmentManifest M;
  M.Seed = Index.schema().seed();
  M.HashBits = HashWidth<H>::Bits;
  R.SegmentName = segmentFileName(M.NextId);
  const std::string Image = saveIndexBytes(Index);
  if (!writeFileReplacing(Dir + "/" + R.SegmentName, Image, &R.Error, Env))
    return R;
  SegmentEntry E;
  E.Name = R.SegmentName;
  E.FileBytes = Image.size();
  E.Classes = Index.numClasses();
  E.Fresh = Index.numClasses(); // no older segment exists
  M.Segments.push_back(std::move(E));
  M.NextId = 2;
  if (!writeManifestReplacing(Dir, M, &R.Error, Env))
    return R;
  R.Ok = true;
  R.DeltaClasses = R.Fresh = Index.numClasses();
  R.ClassesAfter = Index.numClasses();
  return R;
}

/// Append \p DeltaBlobs to the segmented index at \p Dir as one new
/// segment: O(delta) staging + one reconciliation probe per delta class,
/// never a rewrite of existing segments. Commit point is the manifest
/// swap (see the file comment for the crash discipline).
template <typename H>
SegmentAppendResult appendSegment(const std::string &Dir,
                                  const std::vector<std::string> &DeltaBlobs,
                                  const SegmentAppendOptions &Opts = {}) {
  static const obs::Histogram AppendNs = obs::Histogram::get(
      "hma_segment_append_ns",
      "Latency of appending one delta segment (stage + reconcile + "
      "write + manifest swap), ns");
  static const obs::Counter Appends = obs::Counter::get(
      "hma_segment_appends_total", "Delta segments appended");
  obs::ScopedTrace Span("segment_append", "io",
                        static_cast<int64_t>(DeltaBlobs.size()));
  obs::ScopedTimer Timer(AppendNs);

  SegmentAppendResult R;
  typename SegmentSet<H>::OpenResult Set = SegmentSet<H>::open(Dir);
  if (!Set.ok()) {
    R.Error = std::move(Set.Error);
    return R;
  }
  SegmentManifest M = Set.Set->manifest();
  R.ClassesBefore = M.totalClasses();

  // Stage the delta in a scratch index under the manifest's schema.
  typename AlphaHashIndex<H>::Options IxOpts;
  IxOpts.Shards =
      Opts.Shards ? Opts.Shards : Set.Set->segments().front()->numShards();
  IxOpts.Seed = M.Seed;
  AlphaHashIndex<H> Delta(IxOpts);
  Delta.insertBatch(DeltaBlobs, Opts.Threads);
  R.DeltaClasses = Delta.numClasses();

  // Reconcile against the union: one probe per delta class, with the
  // staged bytes as the query. They are serializer output of a
  // distinct-binder term, hence proven, and the snapshot's hash is
  // authoritative: nothing is re-hashed or decoded.
  IndexStats Stats = Delta.stats();
  DecodeScratch Scratch;
  for (const auto &C : Delta.snapshot()) {
    bool Known = false;
    for (const auto &S : Set.Set->segments())
      if (S->lookupHashed(C.CanonicalBytes, C.Hash, Scratch)) {
        Known = true;
        break;
      }
    if (Known) {
      // Not a new class in the union: the insert that created it in the
      // scratch index was, union-wise, a duplicate merge.
      Stats.NewClasses -= 1;
      Stats.Duplicates += 1;
    } else {
      R.Fresh += 1;
    }
  }

  IoEnv &Env = Opts.Env ? *Opts.Env : IoEnv::system();
  R.SegmentName = segmentFileName(M.NextId);
  const std::string Image = saveIndexBytes(Delta, &Stats);
  if (!writeFileReplacing(Dir + "/" + R.SegmentName, Image, &R.Error, Env))
    return R;
  if (Opts.AbortAfterSegmentWrite) {
    // Crash-window simulation: the segment exists, the manifest does not
    // know it. NextId was not bumped, so the next successful append
    // atomically replaces this orphan.
    R.Ok = R.Aborted = true;
    R.ClassesAfter = R.ClassesBefore;
    return R;
  }

  SegmentEntry E;
  E.Name = R.SegmentName;
  E.FileBytes = Image.size();
  E.Classes = R.DeltaClasses;
  E.Fresh = R.Fresh;
  M.Segments.insert(M.Segments.begin(), std::move(E)); // newest first
  M.NextId += 1;
  if (!writeManifestReplacing(Dir, M, &R.Error, Env))
    return R;
  Appends.add(1);
  R.Ok = true;
  R.ClassesAfter = M.totalClasses();
  return R;
}

/// What one compaction did.
struct SegmentCompactResult {
  bool Ok = false;
  std::string Error;
  uint64_t SegmentsBefore = 0;
  uint64_t SegmentsAfter = 0;
  uint64_t Classes = 0; ///< Classes in the merged table.
};

/// Merge every segment of \p Dir into one and commit. After the manifest
/// swap the replaced segment files are deleted; failures to delete are
/// not errors (the files are orphans, \ref gcSegmentDir collects them).
/// A single-segment index is already compact: no-op success.
template <typename H>
SegmentCompactResult compactSegments(const std::string &Dir,
                                     IoEnv *EnvPtr = nullptr) {
  IoEnv &Env = EnvPtr ? *EnvPtr : IoEnv::system();
  static const obs::Histogram CompactNs = obs::Histogram::get(
      "hma_segment_compact_ns",
      "Latency of merging all segments of a segmented index into one, ns");
  static const obs::Counter Compactions = obs::Counter::get(
      "hma_segment_compactions_total", "Segmented-index compactions");
  obs::ScopedTrace Span("segment_compact", "io");
  obs::ScopedTimer Timer(CompactNs);

  SegmentCompactResult R;
  typename SegmentedIndex<H>::OpenResult Set = SegmentedIndex<H>::open(Dir);
  if (!Set.ok()) {
    R.Error = std::move(Set.Error);
    return R;
  }
  const SegmentedIndex<H> &Union = *Set.Reader;
  const SegmentManifest &Old = Union.set().manifest();
  R.SegmentsBefore = Old.Segments.size();
  R.Classes = Old.totalClasses();
  if (Old.Segments.size() < 2) {
    R.Ok = true;
    R.SegmentsAfter = R.SegmentsBefore;
    return R;
  }

  // The segmented reader's union view is the compacted table: its
  // snapshot is the linear k-way merge (oldest representative, counts
  // summed saturating) and its stats the saturating sum of the header
  // stats. The no-rehash restore path rebuilds a live index around them.
  std::unique_ptr<AlphaHashIndex<H>> Compacted = AlphaHashIndex<H>::restore(
      {Union.numShards(), Old.Seed}, Union.snapshot(), Union.stats());

  SegmentManifest New;
  New.Seed = Old.Seed;
  New.HashBits = Old.HashBits;
  New.NextId = Old.NextId + 1;
  SegmentEntry E;
  E.Name = segmentFileName(Old.NextId);
  const std::string Image = saveIndexBytes(*Compacted);
  if (!writeFileReplacing(Dir + "/" + E.Name, Image, &R.Error, Env))
    return R;
  E.FileBytes = Image.size();
  E.Classes = Compacted->numClasses();
  E.Fresh = Compacted->numClasses(); // sole segment: everything is fresh
  New.Segments.push_back(std::move(E));
  if (!writeManifestReplacing(Dir, New, &R.Error, Env))
    return R;

  // Committed. The replaced files are now orphans; delete them, but a
  // failure here only means gc has work left, not that compaction
  // failed. Live readers of the old generation are unaffected: their
  // mappings pin the unlinked bytes.
  for (const SegmentEntry &OldE : Old.Segments)
    (void)Env.unlink((Dir + "/" + OldE.Name).c_str());
  Compactions.add(1);
  R.Ok = true;
  R.SegmentsAfter = 1;
  return R;
}

/// Tuning for \ref gcSegmentDir.
struct GcOptions {
  /// Only delete files whose mtime is at least this old. The guard
  /// closes the gc-vs-append crash-window hazard: an appender that has
  /// written its segment but not yet swapped the manifest has an
  /// *unreferenced but in-flight* file on disk, and a concurrent gc
  /// that deleted it would let the imminent manifest commit reference a
  /// missing segment. In-flight files are seconds old; the crash
  /// leftovers an operator actually wants collected are not. 0 disables
  /// the guard -- safe only when no writer can be running (offline
  /// maintenance, `hma index fsck --repair`, tests).
  uint64_t MinAgeSeconds = 60;
  IoEnv *Env = nullptr; ///< I/O environment (null: the system env).
};

/// Delete every segment-shaped file in \p Dir the manifest does not
/// reference, plus aged `*.tmp` leftovers (crash-window debris). Files
/// younger than \ref GcOptions::MinAgeSeconds are left alone -- they may
/// be a concurrent append's in-flight segment. Returns the names
/// removed; \p Error is set only if the manifest itself cannot be read.
std::vector<std::string> gcSegmentDir(const std::string &Dir,
                                      std::string *Error = nullptr,
                                      const GcOptions &Opts = {});

/// `*.tmp` leftovers in \p Dir: a writer that died between creating its
/// tmp and renaming it. Never data -- every committed file was renamed
/// away from its tmp name. Shared by gc and `hma index fsck`.
std::vector<std::string> listTmpFiles(const std::string &Dir);

} // namespace hma

#endif // HMA_INDEX_SEGMENTCOMPACTOR_H
