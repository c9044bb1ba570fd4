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
///  - **Damage** (the committed state does not load): fsck has no
///    validator of its own. It asks \ref openIndex at b=128, the gate
///    `hma index open` and every `hma indexd` load go through, and a
///    refusal is one \ref FsckIssueKind::Damage issue carrying that
///    gate's diagnostic (which names the first file that fails). Never
///    repaired: fsck reports it and the operator restores from a
///    replica or rebuilds.
///  - **Debris** (the committed state serves, leftovers remain): the
///    tmp files writers leave (`MANIFEST.tmp`, `seg-*.hmai.tmp`, or a
///    single file's sibling `.tmp`) and segments the manifest does not
///    list. Listed only when the committed state is serviceable, so a
///    repair can never delete a file the damaged state still needs;
///    `--repair` deletes exactly these, nothing else.
///
/// The distinction is surfaced as \ref FsckReport::Serviceable: true
/// iff `hma index open` and `hma indexd` would serve the index right
/// now.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_FSCK_H
#define HMA_INDEX_FSCK_H

#include <cstdint>
#include <string>
#include <vector>

namespace hma {

/// What fsck found, classified by what an operator should do about it.
enum class FsckIssueKind {
  OrphanTmp,           ///< Stale writer tmp from a writer that died mid-write.
  UnreferencedSegment, ///< `seg-*.hmai` present but not in the manifest.
  Damage,              ///< The committed state fails \ref openIndex.
};

/// Stable kebab-case name for \p K (used in reports and tests).
const char *fsckIssueKindName(FsckIssueKind K);

/// One finding: the file it concerns and whether fsck may delete it.
struct FsckIssue {
  FsckIssueKind Kind;
  std::string Path;   ///< Debris: file name inside the index directory,
                      ///< or a single file's tmp path. Damage: the index.
  std::string Detail; ///< Human-readable diagnostic.
  bool Repairable = false; ///< True iff deleting \ref Path is safe.
  bool Repaired = false;   ///< Set when `--repair` actually deleted it.
};

struct FsckOptions {
  /// Delete repairable debris (orphan tmp files, unreferenced
  /// segments). Damage is never repaired.
  bool Repair = false;
};

/// The outcome of an fsck run.
struct FsckReport {
  bool Healthy = false;     ///< Serviceable, and no debris left unrepaired.
  bool Serviceable = false; ///< \ref openIndex admits the committed state.
  bool Segmented = false;   ///< Path was a directory.
  uint64_t Classes = 0;     ///< Live classes in a serviceable state.
  std::vector<FsckIssue> Issues;

  /// True if any issue is repairable and not yet repaired.
  bool hasRepairableDebris() const;

  /// Multi-line human-readable report (ends with a newline).
  std::string render(const std::string &Path) const;
};

/// Check the index at \p Path (single `HMAI` file or segmented
/// directory, as \ref openIndex tells them apart). Never modifies
/// anything unless \p Opts.Repair is set, and then deletes only debris
/// whose removal cannot change what a reader observes.
FsckReport fsckIndex(const std::string &Path, const FsckOptions &Opts = {});

} // namespace hma

#endif // HMA_INDEX_FSCK_H
