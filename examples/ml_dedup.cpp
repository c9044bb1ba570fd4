//===- examples/ml_dedup.cpp - ML-pipeline preprocessing --------------------===//
///
/// \file
/// The use case that motivated the paper: an ML compiler unrolls models
/// into huge expression trees and wants to (a) find repeated work, and
/// (b) share storage for equivalent subtrees. This example runs the
/// alpha-hasher over the three Table 2 workloads and reports the sharing
/// each one exposes, plus the cross-model sharing between two separately
/// built instances of the same network.
///
//===----------------------------------------------------------------------===//

#include "core/AlphaHasher.h"
#include "cse/CSE.h"
#include "eqclass/EquivClasses.h"
#include "gen/MLModels.h"

#include <cstdio>

using namespace hma;

static void report(ExprContext &Ctx, const char *Name, const Expr *E) {
  AlphaHasher<Hash128> Hasher(Ctx);
  std::vector<Hash128> Hashes = Hasher.hashAll(E);
  PartitionStats S = partitionStats(E, Hashes);

  // Storage sharing: a fully shared (hash-consed modulo alpha)
  // representation keeps one node per class.
  double Ratio = double(S.NumSubexpressions) / double(S.NumClasses);

  std::printf("%-10s %7zu subexprs %7zu classes  %5zu repeated  largest "
              "x%-4zu  dedup %4.1fx\n",
              Name, S.NumSubexpressions, S.NumClasses,
              S.NumRepeatedClasses, S.LargestClass, Ratio);
}

int main() {
  ExprContext Ctx;

  std::printf("alpha-equivalence sharing in unrolled ML models\n");
  std::printf("------------------------------------------------\n");
  report(Ctx, "MNIST-CNN", buildMnistCnn(Ctx));
  report(Ctx, "GMM", buildGmm(Ctx));
  for (unsigned L : {1u, 4u, 12u})
    report(Ctx, ("BERT-" + std::to_string(L)).c_str(), buildBert(Ctx, L));

  // Cross-model sharing: two separately constructed BERT-4 instances are
  // node-disjoint trees, yet every subexpression pairs up -- a structure
  // sharing pass could keep a single copy.
  std::printf("\ncross-model sharing (two independent BERT-4 builds):\n");
  const Expr *M1 = buildBert(Ctx, 4);
  const Expr *M2 = buildBert(Ctx, 4);
  AlphaHasher<Hash128> Hasher(Ctx);
  Hash128 H1 = Hasher.hashRoot(M1);
  Hash128 H2 = Hasher.hashRoot(M2);
  std::printf("  model #1 root hash: %s\n", H1.toHex().c_str());
  std::printf("  model #2 root hash: %s\n", H2.toHex().c_str());
  std::printf("  identical modulo alpha: %s\n", H1 == H2 ? "yes" : "no");

  // And the optimisation angle: CSE a 2-layer BERT (repeated masked
  // softmax/attention arithmetic within each layer).
  std::printf("\nCSE on BERT-2:\n");
  const Expr *Bert = buildBert(Ctx, 2);
  CSEOptions Opts;
  Opts.MinSize = 4;
  CSEResult R = eliminateCommonSubexpressions(Ctx, Bert, Opts);
  std::printf("  %u -> %u nodes (%u lets inserted, %u occurrences "
              "replaced, %u rounds)\n",
              R.SizeBefore, R.SizeAfter, R.LetsInserted,
              R.OccurrencesReplaced, R.Rounds);
  return 0;
}
