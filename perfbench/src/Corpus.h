//===- perfbench/src/Corpus.h - Seeded inputs and the answer oracle --------===//
///
/// \file
/// Input generation shared by the phases, and the independent answer
/// check every lookup goes through.
///
/// Stored terms are random balanced terms (gen/RandomExpr). A *hit*
/// query is an `alphaRename` copy of a stored term; a *miss* query is a
/// renamed stored term applied to a free variable whose spelling no
/// stored term uses, so its status is known from how it was built and
/// never from the index under test. For hits, the expected answer is the
/// query's `toDeBruijnString`: the returned representative must render
/// to the same string.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The spelling of the free variable every miss query carries.
inline constexpr const char *MissName = "miss$free";

struct Corpus {
  std::vector<std::string> Blobs; ///< `ast/Serialize` bytes, one per term.
  uint64_t Nodes = 0;
};

/// \p Count balanced terms with sizes log-uniform in [MinSize, MaxSize],
/// generated on \p Threads threads. Deterministic in \p Seed (the split
/// into per-thread streams does not depend on scheduling).
Corpus makeBalancedCorpus(uint64_t Seed, size_t Count, uint32_t MinSize,
                          uint32_t MaxSize, unsigned Threads);

/// Hit/miss queries against \p Stored, half of each, shuffled.
struct QuerySet {
  std::vector<std::string> Blobs;
  std::vector<uint8_t> Hit;     ///< 1: built as a hit, 0: as a miss.
  std::vector<std::string> Key; ///< toDeBruijnString of hit queries.
  uint64_t Nodes = 0;
};

QuerySet makeQueries(const std::vector<std::string> &Stored, size_t Count,
                     uint64_t Seed);

/// Renamed duplicates of \p Count random members of \p Stored.
std::vector<std::string> makeRenamedCopies(const std::vector<std::string> &Stored,
                                           size_t Count, uint64_t Seed);

/// toDeBruijnString of a serialised term ("" if it does not decode).
std::string deBruijnOfBlob(std::string_view Blob);

/// Checks lookup answers against a \ref QuerySet. The first answer to a
/// hit query is checked by de Bruijn rendering; the verified bytes are
/// remembered, so later answers to the same query cost one compare.
class AnswerChecker {
public:
  explicit AnswerChecker(const QuerySet &Q) : Q(Q), Seen(Q.Blobs.size()) {}

  /// True when \p Rep (the representative, or nullopt for "absent") is
  /// the right answer to query \p I.
  bool check(size_t I, std::optional<std::string_view> Rep);

private:
  const QuerySet &Q;
  std::vector<std::string> Seen;
};

/// Ingest \p Blobs into a live index on \p Threads workers and write it
/// as an HMAI file at \p Path. Returns the class count, or 0 on failure.
uint64_t writeIndexFile(const std::vector<std::string> &Blobs,
                        const std::string &Path, unsigned Threads,
                        std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
