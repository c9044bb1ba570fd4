//===- bench/ablation_appendixC.cpp - Ablation: tags vs lazy transforms ------===//
///
/// \file
/// Appendix C proposes replacing StructureTags with lazily composed
/// affine transforms on the variable maps. The paper keeps the tag
/// variant as "simple and fast" and notes the linear variant "in
/// practice also produces strong hashes". This ablation compares the
/// two implementations' throughput on both tree families (both are
/// O(n log^2 n); the difference is the constant factor of transform
/// bookkeeping vs tag hashing). Both sides are timed hashing every node
/// (`hashAll`): both keep their map aggregate at every node there,
/// whereas only \ref AlphaHasher's root-only driver skips it.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/LinearMapHasher.h"
#include "gen/RandomExpr.h"

using namespace hma;
using namespace hma::bench;

int main() {
  std::printf("Ablation: StructureTag merge (Section 4.8) vs lazy affine "
              "transforms (Appendix C)\n\n");

  for (bool Balanced : {true, false}) {
    std::printf("-- %s expressions --\n",
                Balanced ? "balanced" : "unbalanced");
    std::printf("%10s  %16s  %16s  %9s\n", "n", "tags (Ours)",
                "affine (App.C)", "ratio");
    std::vector<uint32_t> Sizes = {1000, 10000, 100000};
    if (fullMode())
      Sizes.push_back(1000000);
    for (uint32_t N : Sizes) {
      ExprContext Ctx;
      Rng R(909 + N);
      const Expr *E =
          Balanced ? genBalanced(Ctx, R, N) : genUnbalanced(Ctx, R, N);
      double TTag = timeMedian([&] {
        AlphaHasher<Hash128> H(Ctx);
        H.hashAll(E);
      });
      double TLin = timeMedian([&] {
        LinearMapHasher<Hash128> H(Ctx);
        H.hashAll(E);
      });
      std::printf("%10u  %16s  %16s  %8.2fx\n", N, fmtSeconds(TTag).c_str(),
                  fmtSeconds(TLin).c_str(), TLin / TTag);
      std::fflush(stdout);
      std::printf("CSV,ablation_appendixC,%s,%u,%.9f,%.9f\n",
                  Balanced ? "balanced" : "unbalanced", N, TTag, TLin);
    }
    std::printf("\n");
  }
  return 0;
}
