//===- eqclass/EquivClasses.cpp - Grouping subexpressions by hash ----------===//
///
/// \file
/// The class-id table, the counting pass and stable fill behind
/// \ref EquivClassList, partition statistics, and the oracle partition
/// (test-grade, O(n^2)).
///
//===----------------------------------------------------------------------===//

#include "eqclass/EquivClasses.h"

#include "ast/Traversal.h"

using namespace hma;

namespace {

/// Dense class ids for hash keys, in order of first lookup. Linear
/// probing over a power-of-two table of at least twice \p MaxKeys slots,
/// so it is never more than half full and never grows.
template <typename H> class ClassIdTable {
public:
  explicit ClassIdTable(size_t MaxKeys) {
    unsigned Bits = 1;
    while ((size_t(1) << Bits) < 2 * MaxKeys)
      ++Bits;
    Shift = 64 - Bits;
    Slots.assign(size_t(1) << Bits, Empty);
    Keys.reserve(MaxKeys);
  }

  /// The id of \p Key, assigning the next one if it is new.
  uint32_t idOf(const H &Key) {
    // HashCodeHasher is the identity for the narrow widths: mix, then
    // take the top bits (Fibonacci hashing).
    const size_t Mask = Slots.size() - 1;
    size_t Slot = static_cast<size_t>(
        (uint64_t(HashCodeHasher()(Key)) * 0x9E3779B97F4A7C15ULL) >> Shift);
    for (;; Slot = (Slot + 1) & Mask) {
      const uint32_t Id = Slots[Slot];
      if (Id == Empty) {
        Slots[Slot] = static_cast<uint32_t>(Keys.size());
        Keys.push_back(Key);
        return Slots[Slot];
      }
      if (Keys[Id] == Key)
        return Id;
    }
  }

  size_t size() const { return Keys.size(); }

private:
  static constexpr uint32_t Empty = ~uint32_t(0);
  std::vector<uint32_t> Slots;
  std::vector<H> Keys; ///< Keys[Id] is the hash of class Id.
  unsigned Shift = 0;
};

/// Call \p Fn(E, Id) for every node E of \p Root in preorder with its
/// dense class id; returns the number of classes.
template <typename H, typename F>
size_t forEachClassId(const Expr *Root, const std::vector<H> &Hashes,
                      F &&Fn) {
  if (!Root)
    return 0;
  ClassIdTable<H> Table(Root->treeSize());
  preorder(Root,
           [&](const Expr *E) { Fn(E, Table.idOf(Hashes[E->id()])); });
  return Table.size();
}

} // namespace

template <typename H>
EquivClassList hma::groupSubexpressionsByHash(const Expr *Root,
                                              const std::vector<H> &Hashes) {
  const size_t N = Root ? Root->treeSize() : 0;
  std::vector<const Expr *> Order;
  std::vector<uint32_t> Ids;
  Order.reserve(N);
  Ids.reserve(N);
  size_t NumClasses =
      forEachClassId(Root, Hashes, [&](const Expr *E, uint32_t Id) {
        Order.push_back(E);
        Ids.push_back(Id);
      });
  return EquivClassList(Order, Ids, NumClasses);
}

template <typename H>
std::vector<uint32_t> hma::partitionIds(const Expr *Root,
                                        const std::vector<H> &Hashes) {
  std::vector<uint32_t> Ids;
  Ids.reserve(Root ? Root->treeSize() : 0);
  forEachClassId(Root, Hashes,
                 [&](const Expr *, uint32_t Id) { Ids.push_back(Id); });
  return Ids;
}

#define HMA_INSTANTIATE_GROUPING(H)                                            \
  template EquivClassList hma::groupSubexpressionsByHash<H>(                   \
      const Expr *, const std::vector<H> &);                                   \
  template std::vector<uint32_t> hma::partitionIds<H>(const Expr *,            \
                                                      const std::vector<H> &);
HMA_INSTANTIATE_GROUPING(Hash16)
HMA_INSTANTIATE_GROUPING(Hash32)
HMA_INSTANTIATE_GROUPING(Hash64)
HMA_INSTANTIATE_GROUPING(Hash128)
#undef HMA_INSTANTIATE_GROUPING

std::vector<uint32_t> hma::oraclePartitionIds(const ExprContext &Ctx,
                                              const Expr *Root) {
  std::vector<const Expr *> Nodes;
  preorder(Root, [&](const Expr *E) { Nodes.push_back(E); });

  std::vector<uint32_t> Ids(Nodes.size());
  std::vector<const Expr *> Reps; // representative of each class so far
  for (size_t I = 0; I != Nodes.size(); ++I) {
    uint32_t Class = static_cast<uint32_t>(Reps.size());
    for (size_t C = 0; C != Reps.size(); ++C) {
      if (alphaEquivalent(Ctx, Nodes[I], Reps[C])) {
        Class = static_cast<uint32_t>(C);
        break;
      }
    }
    if (Class == Reps.size())
      Reps.push_back(Nodes[I]);
    Ids[I] = Class;
  }
  return Ids;
}

hma::EquivClassList::EquivClassList(const std::vector<const Expr *> &Order,
                                    const std::vector<uint32_t> &Ids,
                                    size_t NumClasses)
    : Members(Order.size()), Offsets(NumClasses + 1, 0) {
  for (uint32_t Id : Ids)
    ++Offsets[Id + 1];
  for (size_t C = 0; C != NumClasses; ++C)
    Offsets[C + 1] += Offsets[C];
  std::vector<uint32_t> Next(Offsets.begin(), Offsets.end() - 1);
  for (size_t I = 0; I != Order.size(); ++I)
    Members[Next[Ids[I]]++] = Order[I];
}

PartitionStats hma::partitionStats(const EquivClassList &Classes) {
  PartitionStats S;
  for (ClassView Class : Classes) {
    ++S.NumClasses;
    S.NumSubexpressions += Class.size();
    if (Class.size() >= 2)
      ++S.NumRepeatedClasses;
    if (Class.size() > S.LargestClass)
      S.LargestClass = Class.size();
  }
  return S;
}
