//===- bench/BenchUtil.h - Shared benchmark harness --------------------------===//
///
/// \file
/// Common plumbing for the paper-reproduction benchmarks: wall-clock
/// timing with adaptive repetition, per-algorithm time cutoffs (locally
/// nameless goes quadratic on purpose -- the harness must survive that),
/// log-log slope fitting for the asymptotic claims, and environment
/// knobs:
///
///   HMA_BENCH_FULL=1      paper-scale sizes / trial counts (slow)
///   HMA_BENCH_CUTOFF=sec  per-measurement cutoff (default 2.0)
///
/// Every figure/table binary prints (a) a human-readable table shaped
/// like the paper's artifact and (b) machine-readable `CSV,...` rows for
/// replotting.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_BENCH_BENCHUTIL_H
#define HMA_BENCH_BENCHUTIL_H

#include "baselines/DeBruijnHasher.h"
#include "baselines/LocallyNamelessHasher.h"
#include "baselines/StructuralHasher.h"
#include "core/AlphaHasher.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace hma::bench {

inline bool fullMode() {
  const char *V = std::getenv("HMA_BENCH_FULL");
  return V && V[0] == '1';
}

inline double cutoffSeconds() {
  if (const char *V = std::getenv("HMA_BENCH_CUTOFF"))
    return std::atof(V);
  return 2.0;
}

/// Wall-clock one call of \p Fn.
template <typename F> double timeOnce(F &&Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Median-of-repetitions timing: repeats until the total exceeds ~50ms or
/// \p MaxReps, then reports the median single-run time.
template <typename F> double timeMedian(F &&Fn, int MaxReps = 9) {
  std::vector<double> Times;
  double Total = 0;
  for (int Rep = 0; Rep != MaxReps; ++Rep) {
    double T = timeOnce(Fn);
    Times.push_back(T);
    Total += T;
    if (Total > 0.05 && Rep >= 2)
      break;
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// Best-of-\p Reps wall time. Interference (scheduler, page cache,
/// allocator state) only ever *adds* time, so the minimum is the most
/// stable estimator of the code's intrinsic cost -- use this for
/// gated comparisons (CI's obs-overhead gate), timeMedian for
/// reporting.
template <typename F> double timeMin(F &&Fn, int Reps = 5) {
  double Best = timeOnce(Fn);
  for (int Rep = 1; Rep < Reps; ++Rep)
    Best = std::min(Best, timeOnce(Fn));
  return Best;
}

/// Least-squares slope of log(time) against log(n): the empirical
/// complexity exponent (1.0 = linear, 2.0 = quadratic, ...).
inline double fitLogLogSlope(const std::vector<std::pair<double, double>>
                                 &Points) {
  if (Points.size() < 2)
    return 0.0;
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  for (auto [N, T] : Points) {
    double X = std::log(N), Y = std::log(T);
    SX += X;
    SY += Y;
    SXX += X * X;
    SXY += X * Y;
  }
  double K = static_cast<double>(Points.size());
  return (K * SXY - SX * SY) / (K * SXX - SX * SX);
}

/// The four Table 1 algorithms behind one interface. "Structural" and
/// "DeBruijn" are marked with '*' in printouts, matching the paper's
/// "produces an incorrect set of equivalence classes" footnote.
enum class Algo { Structural, DeBruijn, LocallyNameless, Ours };

inline const char *algoName(Algo A) {
  switch (A) {
  case Algo::Structural:
    return "Structural*";
  case Algo::DeBruijn:
    return "De Bruijn*";
  case Algo::LocallyNameless:
    return "Locally Nameless";
  case Algo::Ours:
    return "Ours";
  }
  return "?";
}

inline const std::vector<Algo> &allAlgos() {
  static const std::vector<Algo> All = {Algo::Structural, Algo::DeBruijn,
                                        Algo::LocallyNameless, Algo::Ours};
  return All;
}

/// Hash all subexpressions of \p E with algorithm \p A (Hash128 end to
/// end, the production width).
inline void hashAllWith(Algo A, const ExprContext &Ctx, const Expr *E) {
  switch (A) {
  case Algo::Structural: {
    StructuralHasher<Hash128> H(Ctx);
    H.hashAll(E);
    return;
  }
  case Algo::DeBruijn: {
    DeBruijnHasher<Hash128> H(Ctx);
    H.hashAll(E);
    return;
  }
  case Algo::LocallyNameless: {
    LocallyNamelessHasher<Hash128> H(Ctx);
    H.hashAll(E);
    return;
  }
  case Algo::Ours: {
    AlphaHasher<Hash128> H(Ctx);
    H.hashAll(E);
    return;
  }
  }
}

/// Pretty seconds: "123 ns" / "4.56 ms" / "7.89 s".
inline std::string fmtSeconds(double S) {
  char Buf[32];
  if (S < 0)
    return "-";
  if (S < 1e-6)
    std::snprintf(Buf, sizeof(Buf), "%.0f ns", S * 1e9);
  else if (S < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%.2f us", S * 1e6);
  else if (S < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms", S * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f s", S);
  return Buf;
}

} // namespace hma::bench

#endif // HMA_BENCH_BENCHUTIL_H
