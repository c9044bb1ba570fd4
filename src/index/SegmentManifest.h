//===- index/SegmentManifest.h - Segmented-index MANIFEST codec -------------===//
///
/// \file
/// The manifest of a *segmented* index: a directory holding immutable
/// `HMAI` segment files plus one `MANIFEST` file naming them.
///
/// Why segments exist: a single `HMAI` file is a read-only build output
/// -- growing it means reopening everything, ingesting the delta and
/// rewriting everything, O(index). A segmented index is the index that
/// grows: an update is an O(delta) append: the delta
/// is ingested into a fresh in-memory index, written as one new (small)
/// segment file, and the manifest is atomically rewritten to list it.
/// Reads probe the segments newest-first (\ref SegmentedIndex); a
/// compactor (\ref index/SegmentCompactor.h) merges segments back into
/// one and swaps the manifest again. The segment files themselves are
/// plain `HMAI` images -- nothing in the per-file format changes.
///
/// `MANIFEST` layout (fixed-width little-endian, like `HMAI`):
///
///   magic      "HMAS"
///   version    u32 (1)
///   seed       u64 hash-schema seed (every segment must match)
///   hash bits  u32 (every segment must match)
///   segments   u32 entry count
///   next id    u64 next segment-file id the writer will allocate
///   entries    newest first, each:
///                name length  u32, then the file name bytes (relative
///                             to the directory, no separators)
///                file bytes   u64 exact size of the segment file
///                classes      u64 classes in the segment's table
///                fresh        u64 classes not present in any *older*
///                             segment (union bookkeeping: the live
///                             class count of the whole index is the
///                             sum of `fresh` over all segments)
///   checksum   u64 FNV-1a over every preceding byte
///
/// The checksum makes a torn or bit-flipped manifest detectable before
/// any segment is opened; the version field follows the same rule as
/// `HMAI`: readers reject versions they do not speak.
///
/// Crash windows (the invariants every writer maintains):
///
///  - Segment files are written *before* the manifest that references
///    them, via the same tmp-write + rename + parent-dir fsync recipe as
///    \ref writeFileReplacing. A crash between the two leaves an
///    *unreferenced* segment file: \ref listUnreferencedSegments finds
///    it, readers ignore it (the manifest is the single source of
///    truth), and `hma index gc` deletes it.
///  - The manifest swap is the commit point. Before the rename the old
///    index is intact; after it the new one is. There is no window in
///    which a reader can observe a manifest naming a missing or torn
///    segment.
///  - Segment ids (`next id`) only grow, so a crashed append's orphan
///    can never be confused with a *different* later segment: the next
///    successful append reuses the id and atomically replaces the
///    orphan file with the bytes its manifest actually describes.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_SEGMENTMANIFEST_H
#define HMA_INDEX_SEGMENTMANIFEST_H

#include "support/IoEnv.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hma {

namespace smf {

constexpr char Magic[4] = {'H', 'M', 'A', 'S'};
constexpr uint32_t Version = 1; ///< The one version read and written.
constexpr size_t FixedHeaderSize = 32; ///< Bytes before the entry list.
constexpr size_t ChecksumSize = 8;

/// Name of the manifest file inside a segmented-index directory.
inline const char *manifestFileName() { return "MANIFEST"; }

} // namespace smf

/// Saturating u64 addition: the cross-segment accumulation primitive.
/// Per-class counts and stats counters are summed across segments at
/// read time; a hot class split over many segments must clamp at the
/// format's width (u64), never wrap.
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  return A > UINT64_MAX - B ? UINT64_MAX : A + B;
}

/// One manifest entry: a segment file and what the writer knew about it.
struct SegmentEntry {
  std::string Name;       ///< File name relative to the index directory.
  uint64_t FileBytes = 0; ///< Exact size of the segment file.
  uint64_t Classes = 0;   ///< Classes in the segment's table.
  uint64_t Fresh = 0;     ///< Classes not present in any older segment.
};

/// Decoded `MANIFEST`: the authoritative list of live segments, newest
/// first.
struct SegmentManifest {
  uint32_t Version = smf::Version;
  uint64_t Seed = 0;
  unsigned HashBits = 0;
  uint64_t NextId = 1; ///< Next segment-file id to allocate.
  std::vector<SegmentEntry> Segments; ///< Newest to oldest.

  /// Classes in the union of all segments (sum of per-segment `fresh`,
  /// saturating).
  uint64_t totalClasses() const {
    uint64_t N = 0;
    for (const SegmentEntry &E : Segments)
      N = saturatingAdd(N, E.Fresh);
    return N;
  }

  /// Serialise to the on-disk layout (checksum appended).
  std::string encode() const;

  /// Decode and validate \p Bytes (magic, version, checksum, entry
  /// envelope). On failure returns false with \p Error / \p ErrorPos set
  /// (if non-null).
  static bool decode(std::string_view Bytes, SegmentManifest &Out,
                     std::string *Error = nullptr,
                     size_t *ErrorPos = nullptr);
};

/// FNV-1a 64-bit checksum (the manifest's integrity check).
uint64_t fnv1a64(std::string_view Bytes);

/// `Dir + "/MANIFEST"`.
std::string manifestPathFor(const std::string &Dir);

/// Canonical segment file name for \p Id ("seg-000042.hmai").
std::string segmentFileName(uint64_t Id);

/// True for a segment-shaped name ("seg-*.hmai"). Besides `MANIFEST`,
/// these are the only files a segment directory's writers commit; the
/// rest of the directory is not the index's to report or delete.
bool isSegmentFileName(std::string_view Name);

/// True if \p Path is a directory containing a `MANIFEST` file -- how
/// the CLI and the serving layer tell a segmented index from a
/// single-file one.
bool isSegmentDir(const std::string &Path);

/// Atomically replace \p Dir's manifest with \p M (tmp-write + rename +
/// parent-dir fsync -- the \ref writeFileReplacing recipe; this is the
/// commit point of every append and compaction). I/O runs through
/// \p Env so the crash matrix can fail the swap at any call.
bool writeManifestReplacing(const std::string &Dir, const SegmentManifest &M,
                            std::string *Error = nullptr,
                            IoEnv &Env = IoEnv::system());

/// Segment-shaped files ("seg-*.hmai") present in \p Dir but not listed
/// in \p M: the orphans a crash between segment write and manifest swap
/// leaves behind. Readers ignore them; `hma index gc` deletes them.
/// Sorted by name. (Platforms without directory enumeration return an
/// empty list.)
std::vector<std::string> listUnreferencedSegments(const std::string &Dir,
                                                  const SegmentManifest &M);

} // namespace hma

#endif // HMA_INDEX_SEGMENTMANIFEST_H
