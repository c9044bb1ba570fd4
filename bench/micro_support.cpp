//===- bench/micro_support.cpp - Microbenchmarks (google-benchmark) ----------===//
///
/// \file
/// Constant-factor microbenchmarks for the substrates: hash combiners,
/// AVL map vs std::map (the Theorem 6.3 balanced-BST assumption),
/// persistent-map updates, arena allocation, and end-to-end ns/node of
/// the four hashing algorithms at a fixed size.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "adt/AvlMap.h"
#include "adt/PersistentMap.h"
#include "gen/RandomExpr.h"

#include <benchmark/benchmark.h>

#include <map>

using namespace hma;
using namespace hma::bench;

//===----------------------------------------------------------------------===//
// Hash combiners
//===----------------------------------------------------------------------===//

template <typename H> static void BM_Combine2(benchmark::State &State) {
  HashSchema Schema;
  H A{}, B{};
  uint64_t I = 0;
  for (auto _ : State) {
    MixEngine E = Schema.engine(CombinerTag::StructApp);
    E.addWord(I++);
    E.add(A);
    E.add(B);
    A = E.template finish<H>();
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_Combine2<Hash128>);
BENCHMARK(BM_Combine2<Hash64>);
BENCHMARK(BM_Combine2<Hash16>);

static void BM_HashNameSpelling(benchmark::State &State) {
  HashSchema Schema;
  std::string Name(State.range(0), 'x');
  for (auto _ : State) {
    Hash128 H = Schema.hashBytes<Hash128>(CombinerTag::NameLeaf,
                                          Name.data(), Name.size());
    benchmark::DoNotOptimize(H);
  }
}
BENCHMARK(BM_HashNameSpelling)->Arg(4)->Arg(16)->Arg(64);

//===----------------------------------------------------------------------===//
// Maps: our AVL vs std::map (ordered reference)
//===----------------------------------------------------------------------===//

static void BM_AvlMapInsertLookupRemove(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  AvlMap<uint32_t, uint64_t>::Pool Pool;
  Rng R(1);
  for (auto _ : State) {
    AvlMap<uint32_t, uint64_t> M(Pool);
    for (uint32_t I = 0; I != N; ++I)
      M.set(static_cast<uint32_t>(R.below(N * 2)), I);
    uint64_t Found = 0;
    for (uint32_t I = 0; I != N; ++I)
      Found += M.find(static_cast<uint32_t>(R.below(N * 2))) != nullptr;
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(State.iterations() * N * 2);
}
BENCHMARK(BM_AvlMapInsertLookupRemove)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_StdMapInsertLookup(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  Rng R(1);
  for (auto _ : State) {
    std::map<uint32_t, uint64_t> M;
    for (uint32_t I = 0; I != N; ++I)
      M[static_cast<uint32_t>(R.below(N * 2))] = I;
    uint64_t Found = 0;
    for (uint32_t I = 0; I != N; ++I)
      Found += M.count(static_cast<uint32_t>(R.below(N * 2)));
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(State.iterations() * N * 2);
}
BENCHMARK(BM_StdMapInsertLookup)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_PersistentMapInsert(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    Arena A;
    PersistentMap<uint32_t, uint64_t> M(A);
    for (uint32_t I = 0; I != N; ++I)
      M = M.insert(I * 2654435761u % (N * 4), I);
    benchmark::DoNotOptimize(M.size());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_PersistentMapInsert)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_ArenaAllocate(benchmark::State &State) {
  for (auto _ : State) {
    Arena A;
    for (int I = 0; I != 4096; ++I)
      benchmark::DoNotOptimize(A.allocate(32, 8));
  }
  State.SetItemsProcessed(State.iterations() * 4096);
}
BENCHMARK(BM_ArenaAllocate);

//===----------------------------------------------------------------------===//
// End-to-end per-node cost of each algorithm at a fixed size
//===----------------------------------------------------------------------===//

template <Algo A> static void BM_HashAll10k(benchmark::State &State) {
  ExprContext Ctx;
  Rng R(10);
  const Expr *E = genBalanced(Ctx, R, 10000);
  for (auto _ : State)
    hashAllWith(A, Ctx, E);
  State.SetItemsProcessed(State.iterations() * 10000);
}
BENCHMARK(BM_HashAll10k<Algo::Structural>);
BENCHMARK(BM_HashAll10k<Algo::DeBruijn>);
BENCHMARK(BM_HashAll10k<Algo::LocallyNameless>);
BENCHMARK(BM_HashAll10k<Algo::Ours>);

// Hash-width cost: the same algorithm at 128/64/16 bits. Theorem 6.7
// says width buys collision margin; this shows what it costs in time.
template <typename H> static void BM_OursWidth(benchmark::State &State) {
  ExprContext Ctx;
  Rng R(10);
  const Expr *E = genBalanced(Ctx, R, 10000);
  AlphaHasher<H> Hasher(Ctx);
  for (auto _ : State)
    benchmark::DoNotOptimize(Hasher.hashRoot(E));
  State.SetItemsProcessed(State.iterations() * 10000);
}
BENCHMARK(BM_OursWidth<Hash128>);
BENCHMARK(BM_OursWidth<Hash64>);
BENCHMARK(BM_OursWidth<Hash16>);

BENCHMARK_MAIN();
