//===- bench/hash_throughput.cpp - Zero-allocation pipeline benchmark --------===//
///
/// \file
/// Measures the constant-factor engineering this repo layers on top of
/// the paper's O(n (log n)^2) algorithm, and emits machine-readable JSON
/// so successive PRs can record a performance trajectory (BENCH_*.json).
///
/// The **hash** section: nodes/sec of alpha-hashing the fig2 expression
/// families under the four pipeline configurations:
///       avl_fresh       AVL-only maps, new hasher per expression
///                       (the pre-optimisation baseline)
///       avl_reuse       AVL-only maps, one hasher reused across calls
///       adaptive_fresh  SmallVarMap maps, new hasher per expression
///       adaptive_reuse  SmallVarMap maps + persistent scratch
///                       (the production pipeline)
///     All four produce identical hash values (asserted).
///
/// Index ingest and query rates are measured end to end by perfbench's
/// `lookup_mapped` and `segment_churn` workloads, not here.
///
/// Flags:
///   --quick      smaller corpora (the CI smoke configuration)
///   --check      exit 1 if the adaptive pipeline's aggregate nodes/sec
///                falls below 1.4x the AVL-only fresh-hasher baseline
///                measured on the same run (the CI regression gate; the
///                adaptive-vs-avl same-reuse ablation ratio is reported
///                informationally -- the two representations sit within
///                noise of each other on a hot single core, and the gate
///                must not flake on that)
///   --out FILE   write the JSON report to FILE (default: stdout)
///
/// The human-readable table always goes to stdout; `HMA_BENCH_FULL=1`
/// scales corpora up as in the other benches.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "adt/SmallVarMap.h"
#include "gen/RandomExpr.h"
#include "obs/Metrics.h"

#include <cassert>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace hma;
using namespace hma::bench;

namespace {

struct Workload {
  const char *Family;
  std::vector<const Expr *> Exprs;
  uint64_t TotalNodes = 0;
};

/// A corpus of expressions from one fig2 family, all owned by \p Ctx.
Workload makeWorkload(ExprContext &Ctx, const char *Family, size_t Count,
                      uint32_t Size, uint64_t Seed) {
  Workload W;
  W.Family = Family;
  Rng R(Seed);
  for (size_t I = 0; I != Count; ++I) {
    const Expr *E = std::strcmp(Family, "unbalanced") == 0
                        ? genUnbalanced(Ctx, R, Size)
                        : genBalanced(Ctx, R, Size);
    W.Exprs.push_back(E);
    W.TotalNodes += E->treeSize();
  }
  return W;
}

struct HashRow {
  std::string Family;
  std::string Config;
  uint64_t Nodes = 0;
  double Sec = 0;
  double NodesPerSec = 0;
};

/// Time one full pass over \p W with a fresh hasher per expression.
template <typename Policy>
double timeFresh(const ExprContext &Ctx, const Workload &W, Hash128 &Sink) {
  return timeMedian([&] {
    Hash128 Acc{};
    for (const Expr *E : W.Exprs) {
      AlphaHasher<Hash128, Policy> Hasher(Ctx);
      Acc ^= Hasher.hashRoot(E);
    }
    Sink = Acc;
  });
}

/// Time one full pass over \p W with a single long-lived hasher.
template <typename Policy>
double timeReuse(const ExprContext &Ctx, const Workload &W, Hash128 &Sink) {
  AlphaHasher<Hash128, Policy> Hasher(Ctx);
  // Warm the scratch outside the timed region: steady state is the claim.
  if (!W.Exprs.empty())
    Hasher.hashRoot(W.Exprs.front());
  return timeMedian([&] {
    Hash128 Acc{};
    for (const Expr *E : W.Exprs)
      Acc ^= Hasher.hashRoot(E);
    Sink = Acc;
  });
}

void runHashSection(const Workload &W, const ExprContext &Ctx,
                    std::vector<HashRow> &Rows) {
  std::printf("\n-- hash: %s, %zu exprs, %llu nodes --\n", W.Family,
              W.Exprs.size(),
              static_cast<unsigned long long>(W.TotalNodes));
  std::printf("%16s %12s %14s %10s\n", "config", "time", "nodes/sec",
              "vs avl_fresh");

  Hash128 Sinks[4];
  double Secs[4] = {
      timeFresh<AvlVarMapPolicy>(Ctx, W, Sinks[0]),
      timeReuse<AvlVarMapPolicy>(Ctx, W, Sinks[1]),
      timeFresh<AdaptiveVarMapPolicy>(Ctx, W, Sinks[2]),
      timeReuse<AdaptiveVarMapPolicy>(Ctx, W, Sinks[3]),
  };
  // The map representation must be unobservable through the algorithm
  // (checked in Release builds too: a wrong-but-fast map is worthless).
  if (!(Sinks[0] == Sinks[1] && Sinks[1] == Sinks[2] &&
        Sinks[2] == Sinks[3])) {
    std::fprintf(stderr, "FATAL: pipeline configurations disagree on %s\n",
                 W.Family);
    std::abort();
  }

  static const char *Names[4] = {"avl_fresh", "avl_reuse", "adaptive_fresh",
                                 "adaptive_reuse"};
  for (int I = 0; I != 4; ++I) {
    double Rate = static_cast<double>(W.TotalNodes) / Secs[I];
    std::printf("%16s %12s %14.0f %9.2fx\n", Names[I],
                fmtSeconds(Secs[I]).c_str(), Rate, Secs[0] / Secs[I]);
    Rows.push_back({W.Family, Names[I], W.TotalNodes, Secs[I], Rate});
  }
}

void appendJsonHashRows(std::string &J, const std::vector<HashRow> &Rows) {
  J += "  \"hash\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"family\": \"%s\", \"config\": \"%s\", "
                  "\"nodes\": %llu, \"seconds\": %.6f, "
                  "\"nodes_per_sec\": %.0f}%s\n",
                  Rows[I].Family.c_str(), Rows[I].Config.c_str(),
                  static_cast<unsigned long long>(Rows[I].Nodes),
                  Rows[I].Sec, Rows[I].NodesPerSec,
                  I + 1 == Rows.size() ? "" : ",");
    J += Buf;
  }
  J += "  ],\n";
}

/// Aggregate nodes/sec of one config across all hash rows.
double aggregateRate(const std::vector<HashRow> &Rows, const char *Config) {
  uint64_t Nodes = 0;
  double Sec = 0;
  for (const HashRow &R : Rows)
    if (R.Config == Config) {
      Nodes += R.Nodes;
      Sec += R.Sec;
    }
  return Sec > 0 ? static_cast<double>(Nodes) / Sec : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false, Check = false;
  const char *OutPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Argv[I], "--check") == 0)
      Check = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc)
      OutPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--check] [--out FILE]\n",
                   Argv[0]);
      return 2;
    }
  }

  size_t Scale = Quick ? 1 : (fullMode() ? 40 : 4);
  std::printf("hash pipeline throughput (hardware_concurrency=%u, %s)\n",
              std::thread::hardware_concurrency(),
              Quick ? "quick" : "standard");

  std::vector<HashRow> HashRows;
  ExprContext BalCtx, UnbCtx, BigCtx;
  Workload Balanced =
      makeWorkload(BalCtx, "balanced", 1000 * Scale, 64, 7001);
  Workload Unbalanced =
      makeWorkload(UnbCtx, "unbalanced", 250 * Scale, 256, 7002);
  // One big expression per family: the regime where map depth, not
  // per-call setup, dominates.
  Workload BigBalanced = makeWorkload(BigCtx, "balanced_big", 1,
                                      Quick ? 30000 : 100000, 7003);
  runHashSection(Balanced, BalCtx, HashRows);
  runHashSection(Unbalanced, UnbCtx, HashRows);
  runHashSection(BigBalanced, BigCtx, HashRows);

  double AvlReuse = aggregateRate(HashRows, "avl_reuse");
  double AvlFresh = aggregateRate(HashRows, "avl_fresh");
  double Adaptive = aggregateRate(HashRows, "adaptive_reuse");
  double SpeedupVsBaseline = AvlFresh > 0 ? Adaptive / AvlFresh : 0.0;
  double SpeedupVsAvl = AvlReuse > 0 ? Adaptive / AvlReuse : 0.0;
  std::printf("\naggregate: adaptive_reuse %.0f nodes/sec, %.2fx over "
              "avl_fresh (pre-optimisation pipeline), %.2fx over "
              "avl_reuse (map ablation)\n",
              Adaptive, SpeedupVsBaseline, SpeedupVsAvl);

  std::string J = "{\n";
  {
    unsigned HW = std::thread::hardware_concurrency();
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"bench\": \"hash_throughput\",\n  \"quick\": %s,\n"
                  "  \"hardware_concurrency\": %u,\n"
                  "  \"single_core\": %s,\n  \"obs_enabled\": %s,\n",
                  Quick ? "true" : "false", HW, HW <= 1 ? "true" : "false",
                  obs::Enabled ? "true" : "false");
    J += Buf;
  }
  appendJsonHashRows(J, HashRows);
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"speedup_adaptive_reuse_vs_avl_fresh\": %.4f,\n"
                  "  \"speedup_adaptive_reuse_vs_avl_reuse\": %.4f\n}\n",
                  SpeedupVsBaseline, SpeedupVsAvl);
    J += Buf;
  }

  if (OutPath) {
    std::ofstream Out(OutPath);
    if (!Out.write(J.data(), static_cast<std::streamsize>(J.size()))) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
      return 1;
    }
    std::printf("wrote %s\n", OutPath);
  } else {
    std::printf("%s", J.c_str());
  }

  if (Check && SpeedupVsBaseline < 1.4) {
    std::fprintf(stderr,
                 "FAIL: adaptive-map pipeline (%.0f nodes/sec) is below "
                 "1.4x the AVL-only fresh-hasher baseline (%.0f "
                 "nodes/sec) on this run\n",
                 Adaptive, AvlFresh);
    return 1;
  }
  return 0;
}
