//===- index/Fsck.h - Index integrity checker and repairer ------------------===//
///
/// \file
/// Offline integrity checking for on-disk indexes -- the `hma index
/// fsck` entry point.
///
/// An index on disk is either a single `HMAI` file or a segmented
/// directory (`MANIFEST` + immutable segment files). Both are written
/// with the tmp-write + fsync + rename recipe, so after a crash the
/// committed state is intact by construction -- but the directory may
/// hold *debris*: a stale `.tmp` a writer died before renaming, or an
/// unreferenced segment from an append that never reached its manifest
/// swap. Fsck's job is to tell those two situations apart:
///
///  - **Damage** (the committed state itself is unreadable): a manifest
///    that fails its checksum, a referenced segment that is missing,
///    truncated or fails validation. Never auto-repaired -- fsck
///    reports what is wrong and the operator restores from a replica or
///    accepts the loss.
///  - **Debris** (the committed state is fine, leftovers remain):
///    orphan `.tmp` files and unreferenced segments. Safely deletable,
///    and `--repair` deletes exactly these, nothing else.
///
/// The distinction is surfaced as \ref FsckReport::Serviceable: true
/// iff a reader opening the index right now gets a correct answer.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_FSCK_H
#define HMA_INDEX_FSCK_H

#include "support/IoEnv.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hma {

/// What fsck found, classified by what an operator should do about it.
enum class FsckIssueKind {
  OrphanTmp,           ///< Stale `*.tmp` from a writer that died mid-write.
  UnreferencedSegment, ///< `seg-*.hmai` present but not in the manifest.
  MissingSegment,      ///< Manifest references a file that cannot be read.
  SizeMismatch,        ///< Segment size differs from the manifest record.
  TruncatedTail,       ///< File ends before its own layout says it should.
  ChecksumMismatch,    ///< Manifest bytes fail their FNV-1a checksum.
  BadManifest,         ///< Manifest missing or undecodable.
  CorruptSegment,      ///< Segment/file fails header or record validation.
};

/// Stable kebab-case name for \p K (used in reports and tests).
const char *fsckIssueKindName(FsckIssueKind K);

/// One finding: the file it concerns and whether fsck may delete it.
struct FsckIssue {
  FsckIssueKind Kind;
  std::string Path;   ///< File name (relative to the index directory).
  std::string Detail; ///< Human-readable diagnostic.
  bool Repairable = false; ///< True iff deleting \ref Path is safe.
  bool Repaired = false;   ///< Set when `--repair` actually deleted it.
};

struct FsckOptions {
  /// Delete repairable debris (orphan tmp files, unreferenced
  /// segments). Damage is never repaired.
  bool Repair = false;
  /// I/O environment; null means the production passthrough.
  IoEnv *Env = nullptr;
};

/// The outcome of an fsck run.
struct FsckReport {
  bool Healthy = false;     ///< No issues at all.
  bool Serviceable = false; ///< The committed state loads correctly.
  bool Segmented = false;   ///< Path was a segmented-index directory.
  uint64_t Segments = 0;    ///< Manifest entry count (segmented only).
  uint64_t Classes = 0;     ///< Live classes in the committed state.
  std::vector<FsckIssue> Issues;

  /// True if any issue is repairable and not yet repaired.
  bool hasRepairableDebris() const;

  /// Multi-line human-readable report (ends with a newline).
  std::string render(const std::string &Path) const;
};

/// Check the index at \p Path (single `HMAI` file or segmented
/// directory, auto-detected). Never modifies anything unless
/// \p Opts.Repair is set, and then deletes only debris whose removal
/// cannot change what a reader observes.
FsckReport fsckIndex(const std::string &Path, const FsckOptions &Opts = {});

} // namespace hma

#endif // HMA_INDEX_FSCK_H
