//===- eqclass/EquivClasses.h - Grouping subexpressions by hash ------------===//
///
/// \file
/// Turning per-subexpression hashes into alpha-equivalence classes.
///
/// The paper's goal statement (Section 3): "identify all equivalence
/// classes of subexpressions of e". Once every node carries an
/// alpha-invariant hash, the classes fall out of one flat pass, sized
/// from `Root->treeSize()` up front:
///
///  1. a preorder walk looks each node's hash up in an open-addressing
///     table that never grows; a slot holds only a 4-byte class id (the
///     keys live in a per-class array), and ids are dense, assigned in
///     order of each class's first preorder member;
///  2. a counting pass turns per-class counts into offsets;
///  3. a stable fill writes every node into one member array.
///
/// So classes come in order of their first member's preorder position,
/// and the members of a class in preorder. An \ref EquivClassList hands
/// out each class as a \ref ClassView (a pointer pair; the build is
/// C++17, so no `std::span`). The same table yields the canonical
/// partition encoding (\ref partitionIds) used to compare the classes
/// produced by different algorithms (the Table 1 true-positive /
/// true-negative experiments diff these partitions against the oracle's).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_EQCLASS_EQUIVCLASSES_H
#define HMA_EQCLASS_EQUIVCLASSES_H

#include "ast/AlphaEquivalence.h"
#include "support/HashCode.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hma {

/// The members of one class, in preorder: a view into an
/// \ref EquivClassList, valid while the list lives.
class ClassView {
public:
  using iterator = const Expr *const *;

  ClassView(iterator Begin, iterator End) : Begin(Begin), End(End) {}

  size_t size() const { return static_cast<size_t>(End - Begin); }
  const Expr *operator[](size_t I) const { return Begin[I]; }
  const Expr *front() const { return *Begin; }
  iterator begin() const { return Begin; }
  iterator end() const { return End; }

private:
  iterator Begin;
  iterator End;
};

/// All classes of one term: one member array plus per-class offsets.
class EquivClassList {
public:
  /// Iterates the classes in order, yielding a \ref ClassView each.
  class iterator {
  public:
    iterator(const EquivClassList &List, size_t I) : List(&List), I(I) {}
    ClassView operator*() const { return (*List)[I]; }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator==(const iterator &O) const { return I == O.I; }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const EquivClassList *List;
    size_t I;
  };

  /// Group \p Order (nodes in preorder) by \p Ids (their dense class ids,
  /// each below \p NumClasses): a counting pass, then a stable fill.
  EquivClassList(const std::vector<const Expr *> &Order,
                 const std::vector<uint32_t> &Ids, size_t NumClasses);

  size_t size() const { return Offsets.size() - 1; }
  ClassView operator[](size_t I) const {
    return {Members.data() + Offsets[I], Members.data() + Offsets[I + 1]};
  }
  iterator begin() const { return {*this, 0}; }
  iterator end() const { return {*this, size()}; }

private:
  std::vector<const Expr *> Members;
  std::vector<uint32_t> Offsets; ///< size() + 1 entries.
};

/// Group all subexpressions of \p Root by their hash. Classes appear in
/// order of their first member's preorder position; members in preorder.
/// Defined for the four hash widths of `support/HashCode.h`.
template <typename H>
EquivClassList groupSubexpressionsByHash(const Expr *Root,
                                         const std::vector<H> &Hashes);

/// Canonical partition encoding: class ids assigned by first occurrence
/// in preorder. Two hashing algorithms induce the same equivalence
/// classes on \p Root iff their partition vectors are equal, regardless
/// of the actual hash values.
template <typename H>
std::vector<uint32_t> partitionIds(const Expr *Root,
                                   const std::vector<H> &Hashes);

/// The ground-truth partition, computed with the alpha-equivalence oracle
/// in O(n^2) comparisons. Only usable on small expressions; tests diff
/// the hash-based partitions against this.
std::vector<uint32_t> oraclePartitionIds(const ExprContext &Ctx,
                                         const Expr *Root);

/// Statistics of a partition, reported by the examples and benches.
struct PartitionStats {
  size_t NumSubexpressions = 0;
  size_t NumClasses = 0;
  size_t NumRepeatedClasses = 0; ///< Classes with >= 2 members.
  size_t LargestClass = 0;
};

PartitionStats partitionStats(const EquivClassList &Classes);

template <typename H>
PartitionStats partitionStats(const Expr *Root, const std::vector<H> &Hashes) {
  return partitionStats(groupSubexpressionsByHash(Root, Hashes));
}

/// Check, with the oracle, that every class is internally
/// alpha-equivalent (no false positives) and that distinct classes are
/// not alpha-equivalent across their representatives (no false
/// negatives). \p Classes is any range of non-empty classes with `size()`
/// and `operator[]`. O(n^2); test/guard use only.
template <typename Range = std::vector<std::vector<const Expr *>>>
bool classesMatchOracle(const ExprContext &Ctx, const Range &Classes) {
  std::vector<const Expr *> Reps;
  for (const auto &Class : Classes) {
    for (size_t I = 1; I < Class.size(); ++I)
      if (!alphaEquivalent(Ctx, Class[0], Class[I]))
        return false;
    Reps.push_back(Class[0]);
  }
  for (size_t A = 0; A != Reps.size(); ++A)
    for (size_t B = A + 1; B != Reps.size(); ++B)
      if (alphaEquivalent(Ctx, Reps[A], Reps[B]))
        return false;
  return true;
}

} // namespace hma

#endif // HMA_EQCLASS_EQUIVCLASSES_H
