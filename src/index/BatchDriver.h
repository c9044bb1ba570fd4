//===- index/BatchDriver.h - Shared chunked batch-worker driver -------------===//
///
/// \file
/// The worker-loop driver behind both batch entry points in the index
/// layer: \ref AlphaHashIndex::insertBatch and \ref
/// IndexReader::lookupBatch (the one batch read path of every backend)
/// fan a corpus of serialised expressions out over a \ref ThreadPool
/// with exactly the same shape, so the shape lives here once:
///
///  - split [0, Count) into chunks; workers pull chunk indices from an
///    atomic counter (work stealing without a queue);
///  - each worker owns ONE long-lived \ref AlphaHasher for the whole
///    batch, so its scratch (map pool, value stack, the byte
///    driver's name table and frame stack) stays warm across chunks --
///    the zero-allocation pipeline. Both bodies hash each blob from its
///    bytes (\ref detail::hashQuery), which reads no \ref ExprContext,
///    so the hasher stays bound to one empty context for the whole
///    batch;
///  - per-worker pool-allocation counters are split into total and
///    post-warm-up ("steady") so callers can assert the steady-state
///    allocation count is zero.
///
/// The driver knows nothing about what a chunk *does*: the body callback
/// ingests or looks up, accumulating into a caller-defined per-worker
/// state that the finish callback merges.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_BATCHDRIVER_H
#define HMA_INDEX_BATCHDRIVER_H

#include "ast/Expr.h"
#include "core/AlphaHasher.h"
#include "index/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/HashSchema.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hma::detail {

/// Run \p Body over chunks of [0, \p Count) on up to \p Threads workers
/// (<= 1 means inline on the caller).
///
/// \p OpName is a string literal naming the operation ("ingest" or
/// "query"): it labels the per-worker chunk spans in the trace layer.
/// The driver also owns the batch-level metrics --
/// chunk-latency histogram, chunk counter, and the fold of each worker's
/// hasher pool-allocation counters into the registry -- so every batch
/// entry point reports them identically.
///
/// \p Body is `void(AlphaHasher<H>&, size_t Begin, size_t End,
/// WorkerState&)`, called once per chunk with the worker's hasher. \p
/// Finish is
/// `void(WorkerState&, uint64_t PoolNodes, uint64_t SteadyPoolNodes)`,
/// called once per worker after its last chunk with the hasher's total
/// and post-first-chunk pool-allocation counts; it typically locks a
/// mutex and merges. WorkerState must be default-constructible.
template <typename H, typename WorkerState, typename BodyFn,
          typename FinishFn>
void forEachHashedChunk(const HashSchema &Schema, size_t Count,
                        unsigned Threads, const char *OpName, BodyFn Body,
                        FinishFn Finish) {
  static const obs::Histogram ChunkNs = obs::Histogram::get(
      "hma_batch_chunk_ns",
      "Latency of one batch-worker chunk (hash+probe+verify from bytes; "
      "ingest also stores new classes), ns");
  static const obs::Counter Chunks = obs::Counter::get(
      "hma_batch_chunks_total", "Batch-worker chunks processed");
  static const obs::Counter PoolNodes = obs::Counter::get(
      "hma_hasher_pool_nodes_total",
      "Map-pool slots allocated by worker hashers (warm-up cost)");
  static const obs::Counter SteadyPoolNodes = obs::Counter::get(
      "hma_hasher_steady_pool_nodes_total",
      "Map-pool slots allocated after a worker's first chunk (steady state; "
      "~0 is the zero-allocation claim)");
  // Hashing parallelism is useful regardless of backend, but an absurd
  // caller value must not translate into thousands of threads (or
  // overflow the chunk arithmetic below).
  Threads = std::clamp(Threads, 1u, 1024u);
  // One chunk per pull: big enough to amortise scheduling (and to warm a
  // worker's scratch), small enough to spread a 10k-expression corpus
  // over 8 workers.
  const size_t Chunk =
      std::clamp<size_t>(Count / (size_t(8) * Threads), 16, 512);
  const size_t NumChunks = (Count + Chunk - 1) / Chunk;
  std::atomic<size_t> NextChunk{0};

  auto Worker = [&] {
    WorkerState W;
    ExprContext BootCtx; // the byte driver reads no context
    AlphaHasher<H> Hasher(BootCtx, Schema);
    bool Warmed = false;
    uint64_t WarmMark = 0;
    for (size_t C = NextChunk.fetch_add(1); C < NumChunks;
         C = NextChunk.fetch_add(1)) {
      size_t Begin = C * Chunk;
      size_t End = std::min(Begin + Chunk, Count);
      obs::ScopedTrace Span(OpName, "chunk",
                            static_cast<int64_t>(End - Begin));
      const uint64_t T0 = obs::Enabled ? obs::nowNanos() : 0;
      Body(Hasher, Begin, End, W);
      if (obs::Enabled) {
        ChunkNs.record(obs::nowNanos() - T0);
        Chunks.add(1);
      }
      if (!Warmed) {
        Warmed = true;
        WarmMark = Hasher.poolAllocatedNodes();
      }
    }
    PoolNodes.add(Hasher.poolAllocatedNodes());
    SteadyPoolNodes.add(Warmed ? Hasher.poolAllocatedNodes() - WarmMark : 0);
    Finish(W, Hasher.poolAllocatedNodes(),
           Warmed ? Hasher.poolAllocatedNodes() - WarmMark : 0);
  };

  // Never spawn more OS threads than there are chunks to process.
  size_t Workers = std::min<size_t>(Threads, NumChunks);
  ThreadPool Pool(static_cast<unsigned>(Workers));
  for (size_t T = 0; T != Workers; ++T)
    Pool.run(Worker);
  Pool.wait();
}

} // namespace hma::detail

#endif // HMA_INDEX_BATCHDRIVER_H
