//===- perfbench/src/SubtreePhase.cpp - Hash and group every subtree -------===//
///
/// \file
/// The paper's Section 7 shape on one thread: `AlphaHasher<Hash128>::
/// hashAllInto` over a few large single terms (a balanced and an
/// unbalanced 2^18-node tree, BERT-12, the MNIST CNN and GMM), then
/// `groupSubexpressionsByHash` over the result. Decode, index and serve
/// are bypassed. `cpu_ns_per_op` is the thread's CPU time per node of
/// one round over all five terms, divided by the speed of the
/// benchmark's own \ref RefKernel timed right before and after the round
/// and scaled to \ref RefNominalNs; the unscaled figure and the kernel's
/// are kept as facts. Sampled classes are checked by de Bruijn rendering:
/// members of one class render alike, representatives of different
/// classes render differently.
///
//===----------------------------------------------------------------------===//

#include "Phases.h"
#include "RefKernel.h"

#include "ast/DeBruijn.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "eqclass/EquivClasses.h"
#include "gen/MLModels.h"
#include "gen/RandomExpr.h"

#include <set>

using namespace hma;

namespace perfbench {
namespace {

/// Largest class member the de Bruijn check renders (keeps it cheap).
constexpr uint32_t MaxCheckedSize = 512;
constexpr size_t SampledClasses = 48;

/// Reference kernel size: with 2^17 nodes its working set sat in cache and
/// it missed the host's memory slowdowns; at 2^19 it follows them.
constexpr uint32_t RefNodes = 1u << 19;
/// What one reference node cost on the 4-vCPU Xeon (105 MiB L3) the
/// benchmark was tuned on, so `cpu_ns_per_op` reads as that host's ns.
constexpr double RefNominalNs = 300;

class SubtreePhase : public Phase {
public:
  const char *name() const override { return "subtree"; }

  void setup(RunEnv &Env) override {
    Rng R(Env.Seed ^ 0x5355425452454555ULL);
    add([&](ExprContext &C) { return genBalanced(C, R, 1u << 18); });
    add([&](ExprContext &C) { return genUnbalanced(C, R, 1u << 18); });
    add([](ExprContext &C) { return buildBert(C, 12); });
    add([](ExprContext &C) { return buildMnistCnn(C); });
    add([](ExprContext &C) { return buildGmm(C); });
    for (const Term &T : Terms)
      Nodes += T.Root->treeSize();
  }

  void measure(RunEnv &Env) override {
    checkClasses(Env);
    RefKernel Ref(Env.Seed, RefNodes);
    std::vector<double> Rates, CpuNs, RefNs, Scaled; // per round
    double RefBefore = Ref.nsPerNode();
    const uint64_t Start = nowNs();
    do {
      const uint64_t C0 = threadCpuNs(), T0 = nowNs();
      size_t Classes = 0;
      for (Term &T : Terms) {
        T.Hasher->hashAllInto(T.Root, Hashes);
        Classes += groupSubexpressionsByHash(T.Root, Hashes).size();
      }
      Rates.push_back(double(Nodes) / secondsSince(T0));
      CpuNs.push_back(double(threadCpuNs() - C0) / double(Nodes));
      const double RefAfter = Ref.nsPerNode();
      RefNs.push_back(RefAfter);
      Scaled.push_back(CpuNs.back() * RefNominalNs /
                       ((RefBefore + RefAfter) / 2));
      RefBefore = RefAfter;
      ++Env.Check->Attempted;
      Env.Check->expect(Classes > 0, "subtree: no classes");
    } while (secondsSince(Start) < Env.Seconds);
    Env.Out->set("cpu_ns_per_op", median(Scaled));
    Env.Out->set("subtree_nodes_s", median(Rates));
    Env.Facts->set("subtree.nodes", double(Nodes));
    Env.Facts->set("subtree.unscaled_cpu_ns_per_node", median(CpuNs));
    Env.Facts->set("subtree.ref_ns_per_node", median(RefNs));
  }

  void trace(RunEnv &Env) override {
    checkClasses(Env);
    Tracer &Tr = *Env.Trace;
    uint64_t MapOps = 0;
    for (size_t I = 0; I != Terms.size(); ++I) {
      Term &T = Terms[I];
      Tracer::Scope Root(Tr, "subtree", I);
      T.Hasher->resetStats();
      {
        Tracer::Scope S(Tr, "core.hashall", I);
        T.Hasher->hashAllInto(T.Root, Hashes);
      }
      MapOps += T.Hasher->stats().totalMapOps();
      Tracer::Scope S(Tr, "eqclass.group", I);
      (void)groupSubexpressionsByHash(T.Root, Hashes);
    }
    auto Self = Tr.selfNanos();
    Env.Out->set("core.hashall_ns_per_node",
                 Self["core.hashall"].first / double(Nodes));
    Env.Out->set("eqclass.group_ns_per_node",
                 Self["eqclass.group"].first / double(Nodes));
    Env.Out->set("core.map_ops_per_node", double(MapOps) / double(Nodes));
    Env.Facts->set("subtree.nodes", double(Nodes));
  }

private:
  struct Term {
    std::unique_ptr<ExprContext> Ctx;
    const Expr *Root = nullptr;
    std::unique_ptr<AlphaHasher<Hash128>> Hasher;
  };

  template <typename Build> void add(Build B) {
    Term T;
    T.Ctx = std::make_unique<ExprContext>();
    T.Root = uniquifyBinders(*T.Ctx, B(*T.Ctx));
    T.Hasher = std::make_unique<AlphaHasher<Hash128>>(*T.Ctx);
    Terms.push_back(std::move(T));
  }

  /// The independent class check, on a sample of small classes per term.
  void checkClasses(RunEnv &Env) {
    Rng R(Env.Seed ^ 0x434845434bULL);
    for (Term &T : Terms) {
      T.Hasher->hashAllInto(T.Root, Hashes);
      auto Classes = groupSubexpressionsByHash(T.Root, Hashes);
      std::set<std::string> Reps;
      size_t Sampled = 0;
      for (size_t Try = 0; Try != 8 * SampledClasses &&
                           Sampled != SampledClasses;
           ++Try) {
        const auto &C = Classes[R.below(Classes.size())];
        if (C.front()->treeSize() > MaxCheckedSize)
          continue;
        const std::string Rep = toDeBruijnString(*T.Ctx, C.front());
        if (!Reps.insert(Rep).second)
          continue; // this class was drawn before
        ++Sampled;
        for (size_t M = 1; M < C.size() && M < 4; ++M) {
          const Expr *Member = C[C.size() - M];
          ++Env.Check->Attempted;
          Env.Check->expect(toDeBruijnString(*T.Ctx, Member) == Rep,
                            "subtree: class members differ");
        }
      }
      ++Env.Check->Attempted;
      Env.Check->expect(Sampled > 0, "subtree: no class sampled");
    }
    distinctRepresentatives(Env);
  }

  /// Representatives of different classes must render differently.
  void distinctRepresentatives(RunEnv &Env) {
    for (Term &T : Terms) {
      T.Hasher->hashAllInto(T.Root, Hashes);
      auto Classes = groupSubexpressionsByHash(T.Root, Hashes);
      std::set<std::string> Seen;
      size_t Checked = 0;
      for (const auto &C : Classes) {
        if (C.front()->treeSize() > MaxCheckedSize / 8)
          continue;
        ++Env.Check->Attempted;
        Env.Check->expect(Seen.insert(toDeBruijnString(*T.Ctx, C.front()))
                              .second,
                          "subtree: two classes render alike");
        if (++Checked == 4 * SampledClasses)
          break;
      }
    }
  }

  std::vector<Term> Terms;
  std::vector<Hash128> Hashes;
  uint64_t Nodes = 0;
};

} // namespace

std::unique_ptr<Phase> makeSubtreePhase() {
  return std::make_unique<SubtreePhase>();
}

} // namespace perfbench
