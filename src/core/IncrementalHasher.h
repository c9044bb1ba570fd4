//===- core/IncrementalHasher.h - Incremental rehashing (Section 6.3) ------===//
///
/// \file
/// Incremental maintenance of subexpression hashes across rewrites.
///
/// Compositionality means a node's hash depends only on its children's
/// results, so after replacing the subtree under a node v only the nodes
/// on the path from v to the root need rehashing (Section 6.3). The paper
/// bounds the cost by O(min(h^2 + h*f, n log^2 n)) for a rewrite at depth
/// h with f never-bound free variables: the variable map of the i-th
/// ancestor has at most i + f entries, and re-merging it costs at most
/// the size of the smaller child map.
///
/// To re-merge an ancestor's map without touching its unchanged child's
/// subtree, every node's variable map must *survive* being merged into
/// its parent. The batch hasher's mutable \ref SmallVarMap (an inline
/// array, then a hash table) destroys child maps, so this class uses the
/// persistent \ref PersistentMap: merging into a parent creates new
/// versions and leaves the children's maps intact (O(log n) extra memory
/// per moved entry -- the classic persistence trade).
///
/// Hash codes produced here are bit-identical to \ref AlphaHasher with
/// the same schema (tested), since both implement the same combiner
/// algebra; only the map representation differs.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_CORE_INCREMENTALHASHER_H
#define HMA_CORE_INCREMENTALHASHER_H

#include "adt/PersistentMap.h"
#include "ast/Expr.h"
#include "ast/NameHashCache.h"
#include "ast/Traversal.h"
#include "support/HashSchema.h"

#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

namespace hma {

/// Counters describing the cost of one replaceSubtree call.
struct IncrementalStats {
  uint64_t PathNodesRehashed = 0; ///< Ancestors of the rewrite site.
  uint64_t FreshNodesHashed = 0;  ///< Nodes of the inserted subtree.
  uint64_t MapOps = 0;            ///< Persistent-map operations.
};

/// Maintains per-subexpression alpha-hashes for a mutable expression.
///
/// The expression itself stays immutable; a rewrite produces a new root
/// (path-copied), and the hasher carries each node's summary so only the
/// changed spine is recomputed.
template <typename H> class IncrementalHasher {
public:
  IncrementalHasher(ExprContext &Ctx, const Expr *Root,
                    const HashSchema &Schema = HashSchema())
      : Ctx(Ctx), Schema(Schema), NameH(Ctx, this->Schema),
        HereHash(this->Schema.template combineWords<H>(CombinerTag::PosHere,
                                                       0)) {
    assert(Root && "nothing to hash");
    CurrentRoot = Root;
    hashFresh(Root);
    rebuildParentLinks();
  }

  const Expr *root() const { return CurrentRoot; }

  /// Current alpha-hash of \p E, which must be part of the current tree
  /// (or of a previously hashed subtree).
  H hashOf(const Expr *E) const {
    auto It = Summaries.find(E);
    assert(It != Summaries.end() && "node was never hashed");
    return It->second.NodeHash;
  }

  H rootHash() const { return hashOf(CurrentRoot); }

  /// Replace the subtree \p Target (a node of the current tree) with
  /// \p Replacement (a fresh expression in the same context). Returns the
  /// new root. Binder-distinctness across the whole resulting tree is the
  /// caller's obligation (asserted in debug builds).
  const Expr *replaceSubtree(const Expr *Target, const Expr *Replacement) {
    assert(Target != Replacement && "no-op replacement");
    LastStats = IncrementalStats();

    hashFresh(Replacement);

    // Path-copy the spine from Target's parent up to the root, rehashing
    // each rebuilt ancestor from its (one new, one retained) children.
    const Expr *OldChild = Target;
    const Expr *NewChild = Replacement;
    auto ParentIt = Parents.find(OldChild);
    while (ParentIt != Parents.end() && ParentIt->second) {
      const Expr *P = ParentIt->second;
      const Expr *Rebuilt = rebuildWithChild(P, OldChild, NewChild);
      summariseNode(Rebuilt);
      ++LastStats.PathNodesRehashed;
      Parents[NewChild] = Rebuilt;
      if (Rebuilt->numChildren() > 1) {
        const Expr *Other = Rebuilt->child(0) == NewChild
                                ? Rebuilt->child(1)
                                : Rebuilt->child(0);
        Parents[Other] = Rebuilt;
      }
      OldChild = P;
      NewChild = Rebuilt;
      ParentIt = Parents.find(OldChild);
    }
    Parents[NewChild] = nullptr;
    CurrentRoot = NewChild;
    assert(hasDistinctBinders(Ctx, CurrentRoot) &&
           "replacement broke the distinct-binder invariant");
    return CurrentRoot;
  }

  /// Cost counters for the most recent replaceSubtree call.
  const IncrementalStats &lastStats() const { return LastStats; }

private:
  using VMap = PersistentMap<Name, H>;

  /// Retained per-node summary: hashed structure, persistent variable
  /// map with XOR aggregate, and the final node hash.
  struct Summary {
    H Struct{};
    H Agg{};
    H NodeHash{};
    std::optional<VMap> Vars; ///< Engaged for every hashed node.
  };

  ExprContext &Ctx;
  HashSchema Schema;
  NameHashCache<H> NameH;
  H HereHash;
  Arena MapArena;

  const Expr *CurrentRoot = nullptr;
  std::unordered_map<const Expr *, Summary> Summaries;
  std::unordered_map<const Expr *, const Expr *> Parents;
  IncrementalStats LastStats;

  static H hashFromWord(uint64_t W) {
    if constexpr (HashWidth<H>::Bits == 128)
      return H(0, W);
    else
      return H(static_cast<decltype(H{}.V)>(W));
  }

  H entryHash(Name V, H Pos) {
    return Schema.combine<H>(CombinerTag::VarMapEntry, NameH(V), Pos);
  }

  void rebuildParentLinks() {
    Parents.clear();
    Parents[CurrentRoot] = nullptr;
    preorder(CurrentRoot, [&](const Expr *E) {
      for (unsigned I = 0, C = E->numChildren(); I != C; ++I)
        Parents[E->child(I)] = E;
    });
  }

  const Expr *rebuildWithChild(const Expr *P, const Expr *OldChild,
                               const Expr *NewChild) {
    switch (P->kind()) {
    case ExprKind::Lam:
      assert(P->lamBody() == OldChild && "stale parent link");
      return Ctx.lam(P->lamBinder(), NewChild);
    case ExprKind::App:
      if (P->appFun() == OldChild)
        return Ctx.app(NewChild, P->appArg());
      assert(P->appArg() == OldChild && "stale parent link");
      return Ctx.app(P->appFun(), NewChild);
    case ExprKind::Let:
      if (P->letBound() == OldChild)
        return Ctx.let(P->letBinder(), NewChild, P->letBody());
      assert(P->letBody() == OldChild && "stale parent link");
      return Ctx.let(P->letBinder(), P->letBound(), NewChild);
    case ExprKind::Var:
    case ExprKind::Const:
      break;
    }
    assert(false && "leaf cannot be a parent");
    return nullptr;
  }

  /// Hash every node of a fresh subtree (bottom-up, once each).
  void hashFresh(const Expr *Root) {
    PostorderWorklist Work(Root);
    while (const Expr *E = Work.next()) {
      if (Summaries.count(E))
        continue; // shared suffix already summarised
      summariseNode(E);
      ++LastStats.FreshNodesHashed;
    }
  }

  /// Compute one node's summary from its children's retained summaries.
  void summariseNode(const Expr *E) {
    Summary S;
    switch (E->kind()) {
    case ExprKind::Var: {
      S.Struct = Schema.combineWords<H>(CombinerTag::StructVar, 1);
      VMap M(MapArena);
      S.Vars = M.insert(E->varName(), HereHash);
      S.Agg = entryHash(E->varName(), HereHash);
      ++LastStats.MapOps;
      break;
    }
    case ExprKind::Const: {
      H CH = Schema.combineWords<H>(CombinerTag::ConstLeaf,
                                    static_cast<uint64_t>(E->constValue()));
      S.Struct = Schema.combine<H>(CombinerTag::StructConst, CH);
      S.Vars = VMap(MapArena);
      break;
    }
    case ExprKind::Lam: {
      const Summary &Body = summaryOf(E->lamBody());
      std::optional<H> Pos;
      S.Vars = removeBinder(*Body.Vars, Body.Agg, E->lamBinder(), Pos,
                            S.Agg);
      uint64_t Size = E->treeSize();
      S.Struct =
          Pos ? Schema.combine<H>(CombinerTag::StructLamSome,
                                  hashFromWord(Size), *Pos, Body.Struct)
              : Schema.combine<H>(CombinerTag::StructLamNone,
                                  hashFromWord(Size), Body.Struct);
      break;
    }
    case ExprKind::App: {
      const Summary &Fun = summaryOf(E->appFun());
      const Summary &Arg = summaryOf(E->appArg());
      combineBinary(E, Fun, *Fun.Vars, Fun.Agg, Arg, *Arg.Vars, Arg.Agg,
                    std::nullopt, CombinerTag::StructApp,
                    CombinerTag::StructApp, S);
      break;
    }
    case ExprKind::Let: {
      const Summary &Bound = summaryOf(E->letBound());
      const Summary &Body = summaryOf(E->letBody());
      std::optional<H> Pos;
      H BodyAgg;
      VMap BodyVars =
          removeBinder(*Body.Vars, Body.Agg, E->letBinder(), Pos, BodyAgg);
      combineBinary(E, Bound, *Bound.Vars, Bound.Agg, Body, BodyVars,
                    BodyAgg, Pos, CombinerTag::StructLetNone,
                    CombinerTag::StructLetSome, S);
      break;
    }
    }
    S.NodeHash =
        Schema.combine<H>(CombinerTag::SummaryPair, S.Struct, S.Agg);
    Summaries[E] = std::move(S);
  }

  const Summary &summaryOf(const Expr *E) const {
    auto It = Summaries.find(E);
    assert(It != Summaries.end() && "child not summarised yet");
    return It->second;
  }

  VMap removeBinder(const VMap &Vars, H Agg, Name Binder,
                    std::optional<H> &PosOut, H &AggOut) {
    std::optional<H> Removed;
    VMap Out = Vars.remove(Binder, &Removed);
    ++LastStats.MapOps;
    AggOut = Agg;
    if (Removed)
      AggOut ^= entryHash(Binder, *Removed);
    PosOut = Removed;
    return Out;
  }

  void combineBinary(const Expr *E, const Summary &Left, const VMap &LeftVars,
                     H LeftAgg, const Summary &Right, const VMap &RightVars,
                     H RightAgg, std::optional<H> BinderPos,
                     CombinerTag NoneTag, CombinerTag SomeTag, Summary &S) {
    bool LeftBigger = LeftVars.size() >= RightVars.size();
    uint64_t Size = E->treeSize();

    if (BinderPos)
      S.Struct = Schema.combine<H>(SomeTag, hashFromWord(Size),
                                   hashFromWord(LeftBigger), *BinderPos,
                                   Left.Struct, Right.Struct);
    else
      S.Struct = Schema.combine<H>(NoneTag, hashFromWord(Size),
                                   hashFromWord(LeftBigger), Left.Struct,
                                   Right.Struct);

    uint64_t Tag = Size;
    const VMap &Big = LeftBigger ? LeftVars : RightVars;
    const VMap &Small = LeftBigger ? RightVars : LeftVars;
    H Agg = LeftBigger ? LeftAgg : RightAgg;

    VMap Merged = Big;
    Small.forEach([&](Name V, const H &SmallPos) {
      Merged = Merged.alter(V, [&](const H *BigPos) {
        H NewPos =
            BigPos ? Schema.combine<H>(CombinerTag::PosJoinSome,
                                       hashFromWord(Tag), *BigPos, SmallPos)
                   : Schema.combine<H>(CombinerTag::PosJoinNone,
                                       hashFromWord(Tag), SmallPos);
        if (BigPos)
          Agg ^= entryHash(V, *BigPos);
        Agg ^= entryHash(V, NewPos);
        return NewPos;
      });
      ++LastStats.MapOps;
    });

    S.Vars = std::move(Merged);
    S.Agg = Agg;
  }
};

} // namespace hma

#endif // HMA_CORE_INCREMENTALHASHER_H
