//===- bench/ablation_varmap.cpp - Ablation: Section 5.2's XOR aggregate -----===//
///
/// \file
/// Quantifies the design decision of Section 5.2: maintain the variable
/// map's hash as an XOR of entry hashes (O(1) per update) instead of
/// recomputing it by folding the map at every node.
///
/// The "recompute" configuration is the same algorithm with one change:
/// at every expression node the map hash is recomputed by an in-order
/// fold over the live map (order-independent via XOR of the same entry
/// hashes, so the two configurations produce identical hash values --
/// asserted). Per-node map sizes can be Theta(n), so recompute costs
/// Theta(n^2) worst case; the paper calls this "prohibitively (indeed
/// asymptotically) slow".
///
/// Both sides produce a summary at every node, so the XOR side is timed
/// through \ref AlphaHasher::hashAllInto: \ref AlphaHasher::hashRoot
/// keeps no per-node aggregate and folds the root's map once.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "adt/AvlMap.h"
#include "gen/RandomExpr.h"

#include <cassert>
#include <map>
#include <optional>

using namespace hma;
using namespace hma::bench;

namespace {

/// AlphaHasher with the XOR-maintenance of Section 5.2 stripped out:
/// map hashes are recomputed from scratch at every node. Structure/pos
/// combiners are identical, so root hashes must match AlphaHasher's.
class RecomputeMapHashHasher {
public:
  RecomputeMapHashHasher(const ExprContext &Ctx, const HashSchema &Schema)
      : Ctx(Ctx), Schema(Schema), NameH(Ctx, this->Schema) {}

  Hash128 hashRoot(const Expr *Root) {
    Pool P;
    std::vector<Entry> Values;
    const Hash128 HereHash =
        Schema.combineWords<Hash128>(CombinerTag::PosHere, 0);
    Hash128 NodeHash{};

    PostorderWorklist Work(Root);
    while (const Expr *E = Work.next()) {
      switch (E->kind()) {
      case ExprKind::Var: {
        Map M(P);
        M.set(E->varName(), HereHash);
        Values.push_back({Schema.combineWords<Hash128>(
                              CombinerTag::StructVar, 1),
                          std::move(M)});
        break;
      }
      case ExprKind::Const: {
        Map M(P);
        Hash128 CH = Schema.combineWords<Hash128>(
            CombinerTag::ConstLeaf, static_cast<uint64_t>(E->constValue()));
        Values.push_back(
            {Schema.combine<Hash128>(CombinerTag::StructConst, CH),
             std::move(M)});
        break;
      }
      case ExprKind::Lam: {
        Entry Body = std::move(Values.back());
        Values.pop_back();
        std::optional<Hash128> Pos = Body.M.remove(E->lamBinder());
        uint64_t Size = E->treeSize();
        Hash128 St =
            Pos ? Schema.combine<Hash128>(CombinerTag::StructLamSome,
                                          word(Size), *Pos, Body.Struct)
                : Schema.combine<Hash128>(CombinerTag::StructLamNone,
                                          word(Size), Body.Struct);
        Values.push_back({St, std::move(Body.M)});
        break;
      }
      case ExprKind::App: {
        Entry Arg = std::move(Values.back());
        Values.pop_back();
        Entry Fun = std::move(Values.back());
        Values.pop_back();
        Values.push_back(merge(E, std::move(Fun), std::move(Arg),
                               std::nullopt, CombinerTag::StructApp,
                               CombinerTag::StructApp));
        break;
      }
      case ExprKind::Let: {
        Entry Body = std::move(Values.back());
        Values.pop_back();
        Entry Bound = std::move(Values.back());
        Values.pop_back();
        std::optional<Hash128> Pos = Body.M.remove(E->letBinder());
        Values.push_back(merge(E, std::move(Bound), std::move(Body), Pos,
                               CombinerTag::StructLetNone,
                               CombinerTag::StructLetSome));
        break;
      }
      }
      // THE ABLATED STEP: fold the whole map to get its hash.
      Entry &Top = Values.back();
      Hash128 Agg{};
      Top.M.forEach([&](Name V, const Hash128 &PosH) {
        Agg ^= Schema.combine<Hash128>(CombinerTag::VarMapEntry, NameH(V),
                                       PosH);
      });
      NodeHash =
          Schema.combine<Hash128>(CombinerTag::SummaryPair, Top.Struct, Agg);
    }
    return NodeHash;
  }

private:
  using Map = AvlMap<Name, Hash128>;
  using Pool = Map::Pool;
  struct Entry {
    Hash128 Struct;
    Map M;
  };

  static Hash128 word(uint64_t W) { return Hash128(0, W); }

  Entry merge(const Expr *E, Entry Left, Entry Right,
              std::optional<Hash128> BinderPos, CombinerTag NoneTag,
              CombinerTag SomeTag) {
    bool LeftBigger = Left.M.size() >= Right.M.size();
    uint64_t Size = E->treeSize();
    Hash128 St;
    if (BinderPos)
      St = Schema.combine<Hash128>(SomeTag, word(Size), word(LeftBigger),
                                   *BinderPos, Left.Struct, Right.Struct);
    else
      St = Schema.combine<Hash128>(NoneTag, word(Size), word(LeftBigger),
                                   Left.Struct, Right.Struct);
    Map &Big = LeftBigger ? Left.M : Right.M;
    Map &Small = LeftBigger ? Right.M : Left.M;
    uint64_t Tag = Size;
    Small.forEach([&](Name V, const Hash128 &SmallPos) {
      Big.alter(V, [&](Hash128 *BigPos) {
        return BigPos
                   ? Schema.combine<Hash128>(CombinerTag::PosJoinSome,
                                             word(Tag), *BigPos, SmallPos)
                   : Schema.combine<Hash128>(CombinerTag::PosJoinNone,
                                             word(Tag), SmallPos);
      });
    });
    Small.clear();
    return Entry{St, std::move(Big)};
  }

  const ExprContext &Ctx;
  HashSchema Schema;
  NameHashCache<Hash128> NameH;
};

} // namespace

int main() {
  std::printf("Ablation: XOR-maintained map hash (Section 5.2) vs "
              "recompute-per-node\n\n");

  // Sanity: both configurations produce identical hash values.
  {
    ExprContext Ctx;
    Rng R(7);
    const Expr *E = genBalanced(Ctx, R, 2000);
    HashSchema Schema;
    AlphaHasher<Hash128> Xor(Ctx, Schema);
    RecomputeMapHashHasher Rec(Ctx, Schema);
    if (!(Xor.hashAll(E)[E->id()] == Rec.hashRoot(E))) {
      std::printf("FATAL: configurations disagree on hash values\n");
      return 1;
    }
    std::printf("sanity: both configurations agree on hash values\n\n");
  }

  double Cutoff = cutoffSeconds();
  for (bool Balanced : {true, false}) {
    std::printf("-- %s expressions --\n",
                Balanced ? "balanced" : "unbalanced");
    std::printf("%10s  %16s  %16s  %9s\n", "n", "XOR (Ours)", "recompute",
                "ratio");
    bool RecDisabled = false;
    std::vector<uint32_t> Sizes = {1000, 3162, 10000, 31623, 100000};
    if (fullMode())
      Sizes.push_back(316228);
    for (uint32_t N : Sizes) {
      ExprContext Ctx;
      Rng R(808 + N);
      const Expr *E =
          Balanced ? genBalanced(Ctx, R, N) : genUnbalanced(Ctx, R, N);
      HashSchema Schema;
      std::vector<Hash128> PerNode;
      double TXor = timeMedian([&] {
        AlphaHasher<Hash128> H(Ctx, Schema);
        H.hashAllInto(E, PerNode);
      });
      double TRec = -1;
      if (!RecDisabled) {
        TRec = timeMedian([&] {
          RecomputeMapHashHasher H(Ctx, Schema);
          H.hashRoot(E);
        });
        if (TRec > Cutoff)
          RecDisabled = true;
      }
      std::printf("%10u  %16s  %16s  %8.1fx\n", N,
                  fmtSeconds(TXor).c_str(),
                  TRec < 0 ? "(cut off)" : fmtSeconds(TRec).c_str(),
                  TRec < 0 ? 0.0 : TRec / TXor);
      std::fflush(stdout);
      std::printf("CSV,ablation_varmap,%s,%u,%.9f,%.9f\n",
                  Balanced ? "balanced" : "unbalanced", N, TXor, TRec);
    }
    std::printf("\n");
  }
  std::printf("expected: the recompute configuration degrades towards "
              "quadratic where per-node maps are large (unbalanced "
              "spines with many live variables).\n");
  return 0;
}
