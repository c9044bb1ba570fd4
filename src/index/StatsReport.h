//===- index/StatsReport.h - Machine-readable index stats reports -----------===//
///
/// \file
/// Renders an \ref IndexReader's diagnostics -- schema, class/shard
/// totals, \ref IndexStats, and the process-wide `hma::obs` registry
/// snapshot -- as the JSON object and Prometheus text exposition behind
/// `hma index open <path> stats --json | --prom`.
///
/// Factored out of the CLI so the serving daemon (`hma indexd`, see
/// serve/Server.h) can answer its `Stats` wire op with byte-identical
/// reports: one renderer, two transports. Field names and sample names
/// are documented in tools/README.md and consumed by scripts and CI --
/// treat them as API.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_STATSREPORT_H
#define HMA_INDEX_STATSREPORT_H

#include "index/IndexReader.h"
#include "support/HashCode.h"

#include <string>

namespace hma {

/// The `--json` report: one JSON object covering the index summary, its
/// IndexStats block, per-shard vectors, and the obs registry snapshot.
std::string renderIndexStatsJson(const IndexReader<Hash128> &Index);

/// The `--prom` report: the obs registry snapshot plus the index's own
/// aggregate fields as extra samples (`hma_index_*`), in Prometheus text
/// exposition format (`hma prom-lint`-clean; enforced by CI).
std::string renderIndexStatsProm(const IndexReader<Hash128> &Index);

} // namespace hma

#endif // HMA_INDEX_STATSREPORT_H
