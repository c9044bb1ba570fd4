//===- cse/CSE.cpp - Common subexpression elimination modulo alpha ----------===//
///
/// \file
/// Hash-directed CSE: class selection, LCA placement, tree rewriting.
///
//===----------------------------------------------------------------------===//

#include "cse/CSE.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "eqclass/EquivClasses.h"

#include <algorithm>
#include <unordered_map>

using namespace hma;

namespace {

/// A class chosen for abstraction in the current round.
struct Plan {
  Name Temp;                          ///< Fresh let-bound variable.
  const Expr *Representative;         ///< Subtree hoisted into the let.
  const Expr *Lca;                    ///< Insertion point.
  std::vector<const Expr *> Occurrences;
};

class RoundRewriter {
public:
  RoundRewriter(ExprContext &Ctx, const Expr *Root, const CSEOptions &Opts,
                CSEResult &Totals)
      : Ctx(Ctx), Root(Root), Opts(Opts), Totals(Totals) {}

  /// Run one round; returns the rewritten root, or null if nothing to do.
  const Expr *run() {
    AlphaHasher<Hash128> Hasher(Ctx);
    std::vector<Hash128> Hashes = Hasher.hashAll(Root);
    auto Classes = groupSubexpressionsByHash(Root, Hashes);

    // Candidate classes: big enough, repeated often enough.
    std::vector<size_t> Candidates;
    for (size_t I = 0; I != Classes.size(); ++I) {
      const auto &Class = Classes[I];
      if (Class.size() < Opts.MinOccurrences)
        continue;
      if (Class.front()->treeSize() < Opts.MinSize)
        continue;
      Candidates.push_back(I);
    }
    if (Candidates.empty())
      return nullptr;

    // Prefer the biggest savings: (occurrences - 1) * (size - 1) nodes.
    std::stable_sort(Candidates.begin(), Candidates.end(),
                     [&](size_t A, size_t B) {
                       return savings(Classes[A]) > savings(Classes[B]);
                     });

    DfsInfo Dfs(Ctx, Root);
    // Covered = node lies inside an already-selected occurrence;
    // Blocked = node has a selected occurrence somewhere below it.
    std::vector<bool> Covered(Ctx.numNodes(), false);
    std::vector<bool> Blocked(Ctx.numNodes(), false);

    std::vector<Plan> Plans;
    for (size_t CI : Candidates) {
      const auto &Class = Classes[CI];
      std::vector<const Expr *> Usable;
      for (const Expr *Occ : Class)
        if (!Covered[Occ->id()] && !Blocked[Occ->id()])
          Usable.push_back(Occ);
      if (Usable.size() < Opts.MinOccurrences)
        continue;
      if (Opts.VerifyWithOracle && !verifyClass(Usable))
        continue;

      Plan P;
      P.Temp = Ctx.names().freshName("cse");
      P.Representative = Usable.front();
      P.Lca = Usable.front();
      for (const Expr *Occ : Usable)
        P.Lca = Dfs.lowestCommonAncestor(P.Lca, Occ);
      assert(P.Lca != Usable.front() && P.Lca != Usable.back() &&
             "LCA of >=2 disjoint occurrences is a strict ancestor");
      P.Occurrences = std::move(Usable);
      markSelected(P, Dfs, Covered, Blocked);
      Plans.push_back(std::move(P));
    }
    if (Plans.empty())
      return nullptr;
    return rewrite(Plans);
  }

private:
  ExprContext &Ctx;
  const Expr *Root;
  const CSEOptions &Opts;
  CSEResult &Totals;

  static uint64_t savings(ClassView Class) {
    return static_cast<uint64_t>(Class.size() - 1) *
           (Class.front()->treeSize() - 1);
  }

  bool verifyClass(const std::vector<const Expr *> &Occs) const {
    for (size_t I = 1; I != Occs.size(); ++I)
      if (!alphaEquivalent(Ctx, Occs.front(), Occs[I]))
        return false;
    return true;
  }

  void markSelected(const Plan &P, const DfsInfo &Dfs,
                    std::vector<bool> &Covered,
                    std::vector<bool> &Blocked) const {
    for (const Expr *Occ : P.Occurrences) {
      preorder(Occ, [&](const Expr *E) { Covered[E->id()] = true; });
      for (const Expr *A = Dfs.parent(Occ); A; A = Dfs.parent(A)) {
        if (Blocked[A->id()])
          break; // ancestors above are already blocked
        Blocked[A->id()] = true;
      }
    }
  }

  const Expr *rewrite(const std::vector<Plan> &Plans) {
    // Occurrence -> replacement variable; LCA -> plans to wrap with.
    std::unordered_map<const Expr *, Name> Replace;
    std::unordered_map<const Expr *, std::vector<const Plan *>> Wraps;
    for (const Plan &P : Plans) {
      for (const Expr *Occ : P.Occurrences)
        Replace.emplace(Occ, P.Temp);
      Wraps[P.Lca].push_back(&P);
      ++Totals.LetsInserted;
      Totals.OccurrencesReplaced +=
          static_cast<uint32_t>(P.Occurrences.size());
    }

    // One bottom-up rebuild. Replaced occurrences short-circuit (their
    // subtrees are never entered); untouched subtrees are reused
    // wholesale, so the new tree shares structure with the old one but
    // uses every reused node exactly once.
    struct Frame {
      const Expr *E;
      unsigned NextChild;
    };
    std::vector<Frame> Stack;
    std::vector<const Expr *> Values;
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      const Expr *E = F.E;
      if (F.NextChild == 0) {
        auto It = Replace.find(E);
        if (It != Replace.end()) {
          Values.push_back(Ctx.var(It->second));
          Stack.pop_back();
          continue;
        }
      }
      if (F.NextChild < E->numChildren()) {
        Stack.push_back({E->child(F.NextChild++), 0});
        continue;
      }

      const Expr *New = E;
      switch (E->kind()) {
      case ExprKind::Var:
      case ExprKind::Const:
        break;
      case ExprKind::Lam: {
        const Expr *Body = Values.back();
        Values.pop_back();
        if (Body != E->lamBody())
          New = Ctx.lam(E->lamBinder(), Body);
        break;
      }
      case ExprKind::App: {
        const Expr *Arg = Values.back();
        Values.pop_back();
        const Expr *Fun = Values.back();
        Values.pop_back();
        if (Fun != E->appFun() || Arg != E->appArg())
          New = Ctx.app(Fun, Arg);
        break;
      }
      case ExprKind::Let: {
        const Expr *Body = Values.back();
        Values.pop_back();
        const Expr *Bound = Values.back();
        Values.pop_back();
        if (Bound != E->letBound() || Body != E->letBody())
          New = Ctx.let(E->letBinder(), Bound, Body);
        break;
      }
      }

      auto WIt = Wraps.find(E);
      if (WIt != Wraps.end()) {
        // Wrap in the planned lets. Representatives contain no replaced
        // occurrences (selection keeps regions disjoint), so the original
        // subtree is reused as the bound expression.
        for (const Plan *P : WIt->second)
          New = Ctx.let(P->Temp, P->Representative, New);
      }
      Values.push_back(New);
      Stack.pop_back();
    }
    assert(Values.size() == 1 && "rebuild must yield one root");
    return Values.back();
  }
};

} // namespace

CSEResult hma::eliminateCommonSubexpressions(ExprContext &Ctx,
                                             const Expr *Root,
                                             const CSEOptions &Opts) {
  CSEResult Result;
  Result.SizeBefore = Root->treeSize();

  const Expr *Current = uniquifyBinders(Ctx, Root);
  for (uint32_t Round = 0; Round != Opts.MaxRounds; ++Round) {
    RoundRewriter Rewriter(Ctx, Current, Opts, Result);
    const Expr *Next = Rewriter.run();
    if (!Next)
      break;
    ++Result.Rounds;
    Current = Next;
  }

  Result.Root = Current;
  Result.SizeAfter = Current->treeSize();
  return Result;
}
