//===- serve/Generation.h - Refcounted serving-generation swap --------------===//
///
/// \file
/// The hot-reload core of `hma indexd`: a mutex-guarded cell holding the
/// current serving generation as a `shared_ptr`, swapped atomically on
/// reload while in-flight requests pin whatever generation they started
/// on.
///
/// Why refcounting is *the* correctness mechanism here: \ref MappedIndex
/// lookup results are `string_view`s into the mapping (the lifetime rule
/// of index/IndexReader.h), so an index must stay mapped until the last
/// request served from it has finished serialising its reply. A
/// generation is therefore an immutable (reader, number, path) triple
/// owned by a `shared_ptr<const Generation>`:
///
///  - request handlers \ref GenerationCell::acquire a reference for the
///    duration of one request -- the only lock is a microseconds-scale
///    mutex around the pointer copy, never around I/O or lookups;
///  - \ref GenerationCell::load admits the candidate -- a single `HMAI`
///    file or a segment directory -- through \ref openIndex *outside*
///    the lock (open + deep verify: a corrupt or truncated candidate is
///    rejected with openIndex's diagnostic and the old generation keeps
///    serving), then swaps the pointer under the lock;
///  - the old generation's mapping is unmapped exactly when its last
///    holder drops it -- a custom deleter counts these retirements, so
///    tests (and `stats`) can assert drained generations are actually
///    released rather than leaked.
///
/// Concurrent reloads are safe: opens proceed in parallel, swaps
/// serialise, generation numbers are assigned under the lock and are
/// strictly monotonic (the published sequence can skip a losing
/// concurrent candidate's work, never go backwards).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SERVE_GENERATION_H
#define HMA_SERVE_GENERATION_H

#include "index/SegmentSet.h"
#include "obs/Metrics.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace hma::serve {

/// One immutable serving generation: a verified single `HMAI` file or
/// segment directory, as \ref openIndex admitted it. Holders may use
/// `Index` freely from any thread (every read path is lock-free);
/// nothing here mutates after publication.
struct Generation {
  std::unique_ptr<IndexReader<Hash128>> Index;
  uint64_t Number = 0; ///< Strictly monotonic across swaps.
  std::string Path;    ///< File or directory this generation came from.
};

using GenerationRef = std::shared_ptr<const Generation>;

/// Outcome of a \ref GenerationCell::load attempt.
struct LoadOutcome {
  bool Ok = false;
  std::string Message;  ///< Confirmation or rejection diagnostic.
  uint64_t Number = 0;  ///< Published generation number (on success).
  size_t Classes = 0;   ///< Classes in the published generation.
};

/// The swap cell. Thread-safe; see the file comment for the locking
/// discipline.
class GenerationCell {
public:
  GenerationCell() : Retired(std::make_shared<std::atomic<uint64_t>>(0)) {}

  /// Pin the current generation (nullptr before the first \ref load).
  /// Cheap: one mutex-guarded shared_ptr copy.
  GenerationRef acquire() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Cur;
  }

  /// Admit \p Path through \ref openIndex and -- only if it passes --
  /// publish it as the next generation. On rejection the current
  /// generation is untouched and keeps serving, and the outcome carries
  /// openIndex's diagnostic.
  LoadOutcome load(const std::string &Path) {
    static const obs::Counter Success = obs::Counter::get(
        "hma_indexd_reload_success_total",
        "Index generations admitted and published by reloads");
    static const obs::Counter Rejected = obs::Counter::get(
        "hma_indexd_reload_rejected_total",
        "Reload candidates rejected by the admission gate (old generation "
        "kept serving)");
    static const obs::Histogram LoadNs = obs::Histogram::get(
        "hma_indexd_reload_ns",
        "Latency of one reload attempt (open + verify + swap), ns");
    static const obs::Gauge GenNumber = obs::Gauge::get(
        "hma_indexd_generation", "Number of the serving index generation");
    obs::ScopedTimer Timer(LoadNs);

    LoadOutcome Out;
    OpenedIndex<Hash128> Opened = openIndex<Hash128>(Path);
    if (!Opened.ok()) {
      Rejected.add(1);
      LoadsRejected.fetch_add(1, std::memory_order_relaxed);
      Out.Message = "reload rejected: " + Opened.Error + " (byte " +
                    std::to_string(Opened.ErrorPos) + ") in '" + Path + "'";
      return Out;
    }
    auto *G = new Generation();
    G->Index = std::move(Opened.Reader);
    G->Path = Path;
    Out.Classes = G->Index->numClasses();
    // The deleter runs when the last in-flight holder drains: retirement
    // == the mapping is really gone (asserted by the fault harness).
    std::shared_ptr<std::atomic<uint64_t>> Counter = Retired;
    GenerationRef Next(G, [Counter](const Generation *P) {
      Counter->fetch_add(1, std::memory_order_relaxed);
      delete P;
    });
    {
      // Copy the number while the lock is held: once it drops, a
      // concurrent reload may replace Cur and free G.
      std::lock_guard<std::mutex> Lock(Mu);
      G->Number = NextNumber++;
      Out.Number = G->Number;
      Cur = std::move(Next);
    }
    Success.add(1);
    LoadsOk.fetch_add(1, std::memory_order_relaxed);
    GenNumber.set(static_cast<int64_t>(Out.Number));
    Out.Ok = true;
    Out.Message = "serving generation " + std::to_string(Out.Number) + ": " +
                  std::to_string(Out.Classes) + " classes from '" + Path +
                  "'";
    return Out;
  }

  /// Path of the serving generation (empty before the first load).
  std::string currentPath() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Cur ? Cur->Path : std::string();
  }

  /// Number of the serving generation (0 before the first load).
  uint64_t currentNumber() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Cur ? Cur->Number : 0;
  }

  /// Generations whose last reference has drained (mapping released).
  uint64_t generationsRetired() const {
    return Retired->load(std::memory_order_relaxed);
  }

  /// Admissions / rejections this cell has performed (mirrors the obs
  /// counters; cheap enough for the daemon's text stats to read inline).
  uint64_t loadsOk() const { return LoadsOk.load(std::memory_order_relaxed); }
  uint64_t loadsRejected() const {
    return LoadsRejected.load(std::memory_order_relaxed);
  }

  /// Drop the cell's own reference (shutdown: lets the final generation
  /// retire once the last in-flight request drains).
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    Cur.reset();
  }

private:
  mutable std::mutex Mu;
  GenerationRef Cur;
  uint64_t NextNumber = 1;
  std::atomic<uint64_t> LoadsOk{0};
  std::atomic<uint64_t> LoadsRejected{0};
  /// Shared with every generation's deleter: deleters may outlive the
  /// cell (a pinned request outliving server teardown must not write to
  /// a dead counter).
  std::shared_ptr<std::atomic<uint64_t>> Retired;
};

} // namespace hma::serve

#endif // HMA_SERVE_GENERATION_H
