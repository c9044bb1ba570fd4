//===- serve/Generation.h - Refcounted serving-generation swap --------------===//
///
/// \file
/// The hot-reload core of `hma indexd`: a mutex-guarded cell holding the
/// current serving generation as a `shared_ptr`, swapped atomically on
/// reload while in-flight requests pin whatever generation they started
/// on.
///
/// Why refcounting is *the* correctness mechanism here: \ref MappedIndex
/// lookup results are `string_view`s into the mapping (the PR 4 lifetime
/// rule), so an index file must stay mapped until the last request served
/// from it has finished serialising its reply. A generation is therefore
/// an immutable (MappedIndex, number, path) triple owned by a
/// `shared_ptr<const Generation>`:
///
///  - request handlers \ref GenerationCell::acquire a reference for the
///    duration of one request -- the only lock is a microseconds-scale
///    mutex around the pointer copy, never around I/O or lookups;
///  - \ref GenerationCell::load opens and deep-verifies the candidate
///    file *outside* the lock (the admission gate: a corrupt or truncated
///    file is rejected with a diagnostic and the old generation keeps
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

#include "index/MappedIndex.h"
#include "index/SegmentManifest.h"
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

/// One immutable serving generation: either a single mapped `HMAI` file
/// or a whole segmented-index directory (\ref SegmentedIndex), admitted
/// behind the same verify gate. Holders may use `Index` freely from any
/// thread (both read paths are lock-free); nothing here mutates after
/// publication.
struct Generation {
  std::unique_ptr<MappedIndex<Hash128>> Mapped;
  std::unique_ptr<SegmentedIndex<Hash128>> Segmented;
  /// The live backend, whichever of the two is set: every interface use
  /// (stats rendering, schema, counts) goes through this one pointer.
  IndexReader<Hash128> *Index = nullptr;
  uint64_t Number = 0;  ///< Strictly monotonic across swaps.
  std::string Path;     ///< File or directory this generation came from.

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

  /// Open \p Path, run the admission gate, and -- only if it passes --
  /// publish it as the next generation. On rejection the current
  /// generation is untouched and keeps serving.
  ///
  /// The gate is `MappedIndex::open` (header/envelope/width) plus the
  /// deep O(classes) `verify()` table check when \p Verify is set: the
  /// same acceptance the materializing loader applies, so an unverified
  /// corrupt file can never become the serving generation.
  LoadOutcome load(const std::string &Path, bool Verify = true) {
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
    auto Reject = [&](const std::string &Error, size_t ErrorPos) {
      Rejected.add(1);
      LoadsRejected.fetch_add(1, std::memory_order_relaxed);
      Out.Message = "reload rejected: " + Error + " (byte " +
                    std::to_string(ErrorPos) + ") in '" + Path + "'";
    };

    auto *G = new Generation();
    if (isSegmentDir(Path)) {
      // A segmented index is admitted whole: manifest decode, every
      // segment opened and cross-checked, and (with \p Verify) the deep
      // table check on each -- one gate for the entire SegmentSet, so a
      // torn manifest or one corrupt segment rejects the directory and
      // the old generation keeps serving.
      SegmentedIndex<Hash128>::OpenResult R =
          SegmentedIndex<Hash128>::open(Path);
      if (!R.ok()) {
        delete G;
        Reject(R.Error, R.ErrorPos);
        return Out;
      }
      if (Verify) {
        std::string Error;
        size_t ErrorPos = 0;
        if (!R.Reader->verify(&Error, &ErrorPos)) {
          delete G;
          Reject(Error, ErrorPos);
          return Out;
        }
      }
      G->Segmented = std::move(R.Reader);
      G->Index = G->Segmented.get();
    } else {
      MappedIndex<Hash128>::OpenResult R = MappedIndex<Hash128>::open(Path);
      if (!R.ok()) {
        delete G;
        Reject(R.Error, R.ErrorPos);
        return Out;
      }
      if (Verify) {
        std::string Error;
        size_t ErrorPos = 0;
        if (!R.Reader->verify(&Error, &ErrorPos)) {
          delete G;
          Reject(Error, ErrorPos);
          return Out;
        }
      }
      G->Mapped = std::move(R.Reader);
      G->Index = G->Mapped.get();
    }
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
