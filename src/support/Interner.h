//===- support/Interner.h - Variable name interning ----------------------===//
///
/// \file
/// Interning of variable names to dense 32-bit identifiers.
///
/// Section 4.1 of the paper: "a practical implementation should replace
/// the String names with unique identifiers that support constant-time
/// comparison". \ref StringInterner is that replacement. A \ref Name is an
/// index into the interner's table; comparison is integer comparison, and
/// variable maps are keyed by Name.
///
/// Hashers additionally need the hash *of the spelling* (free variables
/// compare by name across expressions, so the hash must depend on the
/// characters, not on the interning order). Hashers cache per-Name
/// spelling hashes lazily; see AlphaHasher::nameHash.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_INTERNER_H
#define HMA_SUPPORT_INTERNER_H

#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hma {

/// A dense identifier for an interned variable name.
using Name = uint32_t;

/// Sentinel for "no name" (e.g. the binder slot of non-binding nodes).
inline constexpr Name InvalidName = ~0u;

/// Interns strings to dense \ref Name ids with stable storage.
class StringInterner {
public:
  StringInterner() = default;
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;

  /// Intern \p S, returning its id. Idempotent.
  Name intern(std::string_view S) {
    auto It = Table.find(S);
    if (It != Table.end())
      return It->second;
    // InvalidName doubles as the variable maps' empty-slot key, so no
    // interned name may reach it.
    assert(Spellings.size() < InvalidName && "name ids exhausted");
    std::string_view Stored = Storage.copyString(S);
    Name Id = static_cast<Name>(Spellings.size());
    Spellings.push_back(Stored);
    Table.emplace(Stored, Id);
    return Id;
  }

  /// The spelling of an interned name. \p N must be valid.
  std::string_view spelling(Name N) const {
    assert(N < Spellings.size() && "name was not interned here");
    return Spellings[N];
  }

  /// True if \p S has been interned (without interning it).
  bool contains(std::string_view S) const { return Table.count(S) != 0; }

  /// Number of distinct names interned so far.
  size_t size() const { return Spellings.size(); }

  /// Intern a machine-generated fresh name with the given prefix that is
  /// guaranteed not to collide with any currently interned name.
  Name freshName(std::string_view Prefix) {
    std::string Candidate;
    for (;;) {
      Candidate.assign(Prefix);
      Candidate.push_back('$');
      Candidate += std::to_string(FreshCounter++);
      if (!contains(Candidate))
        return intern(Candidate);
    }
  }

private:
  Arena Storage;
  std::unordered_map<std::string_view, Name> Table;
  std::vector<std::string_view> Spellings;
  uint64_t FreshCounter = 0;
};

} // namespace hma

#endif // HMA_SUPPORT_INTERNER_H
