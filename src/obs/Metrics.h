//===- obs/Metrics.h - Low-overhead metrics for the hashing/index stack -----===//
///
/// \file
/// A header-first metrics subsystem for the hot paths of the index layer:
/// relaxed-atomic counters and gauges, fixed-bucket log2-scale latency
/// histograms, an RAII \ref ScopedTimer, and a process-wide \ref Registry
/// whose storage is sharded per thread so hot-path increments never touch
/// a shared cache line, let alone a lock.
///
/// Design:
///
///  - **Handles, not objects.** \ref Counter / \ref Gauge / \ref Histogram
///    are trivially-copyable ids into the registry. Call sites register
///    once (typically into a function-local static) and increment through
///    the handle; registration is the only operation that takes a lock.
///
///  - **Thread-local sharding.** Every thread that increments gets its own
///    \ref detail::ThreadShard -- fixed arrays of relaxed atomics indexed
///    by metric id. The owning thread is the only writer of its shard, so
///    an increment is one TLS load plus one uncontended relaxed
///    `fetch_add`; \ref Registry::snapshot folds live shards (plus the
///    residue of exited threads) under the registry mutex. Totals observed
///    after all writer threads have joined are exact (tested by the
///    8-thread hammer in tests/obs_test.cpp).
///
///  - **log2 histograms.** \ref HistogramData keeps count / sum / min /
///    max plus 65 power-of-two buckets (bucket i holds values whose bit
///    width is i, i.e. [2^(i-1), 2^i)). Merging two histograms is
///    lossless, associative and commutative -- per-thread distributions
///    fold into one without approximation -- and \ref
///    HistogramData::percentile interpolates within a bucket, clamped to
///    the observed [min, max], so estimates are monotone in the quantile.
///
///  - **Compile-out switch.** Building with `-DHMA_OBS_OFF` (CMake option
///    `HMA_OBS_OFF`) turns every handle into an empty struct and every
///    operation -- including \ref ScopedTimer's clock reads -- into a
///    no-op the optimizer deletes. CI's overhead smoke compares an
///    instrumented `lookupBatch` against an `HMA_OBS_OFF` build and
///    requires the instrumented run within 5%.
///
/// Time values are recorded in nanoseconds (histogram names end in `_ns`
/// by convention); byte counters end in `_bytes_total`, event counters in
/// `_total`. See src/obs/README.md for the metric inventory and the
/// exposition formats (`hma index open <path> stats --json | --prom`, Chrome
/// `trace_event` JSON via obs/Trace.h).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_OBS_METRICS_H
#define HMA_OBS_METRICS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hma::obs {

/// True when the metrics layer is compiled in (no `HMA_OBS_OFF`).
#ifdef HMA_OBS_OFF
inline constexpr bool Enabled = false;
#else
inline constexpr bool Enabled = true;
#endif

/// Monotonic nanoseconds (steady clock); the time base of every timer
/// and trace event.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// HistogramData: the mergeable value type
//===----------------------------------------------------------------------===//

/// A fixed-bucket log2-scale histogram value: what one thread shard
/// accumulates and what \ref Registry::snapshot returns. Plain data --
/// recording and merging are lossless with respect to the bucketing, so
/// per-thread histograms fold into process totals exactly.
struct HistogramData {
  /// Bucket i holds values with bit width i: bucket 0 is {0}, bucket i
  /// (i >= 1) is [2^(i-1), 2^i). 64-bit values need widths 0..64.
  static constexpr unsigned NumBuckets = 65;

  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX; ///< Meaningless until Count > 0 (see min()).
  uint64_t Max = 0;
  uint64_t Buckets[NumBuckets] = {};

  /// Which bucket \p V lands in: its bit width, from one count of
  /// leading zeros (0 has width 0).
  static unsigned bucketFor(uint64_t V) {
    if (V == 0)
      return 0;
    return 64 - static_cast<unsigned>(
                    __builtin_clzll(static_cast<unsigned long long>(V)));
  }

  /// Inclusive lower bound of bucket \p I.
  static uint64_t bucketLow(unsigned I) {
    return I == 0 ? 0 : uint64_t(1) << (I - 1);
  }

  /// Inclusive upper bound of bucket \p I (UINT64_MAX for the last).
  static uint64_t bucketHigh(unsigned I) {
    return I >= 64 ? UINT64_MAX : (uint64_t(1) << I) - 1;
  }

  void record(uint64_t V) {
    ++Count;
    Sum += V;
    Min = std::min(Min, V);
    Max = std::max(Max, V);
    ++Buckets[bucketFor(V)];
  }

  /// Fold \p O in. Associative and commutative: merging per-thread
  /// histograms in any order yields the same value (tested).
  void merge(const HistogramData &O) {
    Count += O.Count;
    Sum += O.Sum;
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
    for (unsigned I = 0; I != NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
  }

  uint64_t min() const { return Count ? Min : 0; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }

  /// Estimate the \p Q quantile (Q in [0, 1]): find the bucket holding
  /// the target rank, interpolate linearly inside it, and clamp to the
  /// observed [min, max]. Exact at Q=0 / Q=1; monotone non-decreasing in
  /// Q everywhere (tested).
  double percentile(double Q) const {
    if (!Count)
      return 0.0;
    Q = std::clamp(Q, 0.0, 1.0);
    // Target rank in [1, Count].
    double Target = Q * static_cast<double>(Count);
    if (Target < 1.0)
      Target = 1.0;
    uint64_t Cum = 0;
    for (unsigned I = 0; I != NumBuckets; ++I) {
      if (!Buckets[I])
        continue;
      uint64_t Next = Cum + Buckets[I];
      if (static_cast<double>(Next) >= Target) {
        double Frac = (Target - static_cast<double>(Cum)) /
                      static_cast<double>(Buckets[I]);
        double Lo = static_cast<double>(bucketLow(I));
        double Hi = static_cast<double>(bucketHigh(I));
        double V = Lo + Frac * (Hi - Lo);
        return std::clamp(V, static_cast<double>(min()),
                          static_cast<double>(Max));
      }
      Cum = Next;
    }
    return static_cast<double>(Max);
  }
};

//===----------------------------------------------------------------------===//
// Snapshot rows
//===----------------------------------------------------------------------===//

/// One merged metric as returned by \ref Registry::snapshot.
struct CounterRow {
  std::string Name;
  std::string Help;
  uint64_t Value = 0;
};

struct GaugeRow {
  std::string Name;
  std::string Help;
  int64_t Value = 0;
};

struct HistogramRow {
  std::string Name;
  std::string Help;
  HistogramData Data;
};

/// Everything the registry knows, merged across thread shards, sorted by
/// name within each kind. A value: safe to hold, print, serialise.
struct Snapshot {
  std::vector<CounterRow> Counters;
  std::vector<GaugeRow> Gauges;
  std::vector<HistogramRow> Histograms;

  /// The counter/histogram with \p Name, or nullptr. Convenience for
  /// tests and bench reporters.
  const CounterRow *counter(std::string_view Name) const {
    for (const CounterRow &C : Counters)
      if (C.Name == Name)
        return &C;
    return nullptr;
  }
  const HistogramRow *histogram(std::string_view Name) const {
    for (const HistogramRow &H : Histograms)
      if (H.Name == Name)
        return &H;
    return nullptr;
  }
};

#ifndef HMA_OBS_OFF

namespace detail {

/// Hard caps on distinct registered metrics: thread shards are fixed
/// arrays so an increment never allocates or resizes. ~25 metrics exist
/// today; registration past the cap folds into the last slot (and is a
/// bug -- asserted in debug builds).
constexpr unsigned MaxCounters = 128;
constexpr unsigned MaxHistograms = 64;
constexpr unsigned MaxGauges = 64;

/// One thread's private metric storage. The owning thread is the only
/// writer; the registry reads concurrently with relaxed loads (and folds
/// the final values into its retired totals when the thread exits).
struct ThreadShard {
  std::atomic<uint64_t> Counters[MaxCounters] = {};

  struct Hist {
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Min{UINT64_MAX};
    std::atomic<uint64_t> Max{0};
    std::atomic<uint64_t> Buckets[HistogramData::NumBuckets] = {};
  };
  Hist Hists[MaxHistograms];

  void recordHist(unsigned Id, uint64_t V) {
    Hist &H = Hists[Id];
    H.Count.fetch_add(1, std::memory_order_relaxed);
    H.Sum.fetch_add(V, std::memory_order_relaxed);
    // Owner-thread-only writes: plain load/store min/max, no CAS needed.
    if (V < H.Min.load(std::memory_order_relaxed))
      H.Min.store(V, std::memory_order_relaxed);
    if (V > H.Max.load(std::memory_order_relaxed))
      H.Max.store(V, std::memory_order_relaxed);
    H.Buckets[HistogramData::bucketFor(V)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Read the shard's view of histogram \p Id into a plain value
  /// (relaxed loads; exact once the owner has quiesced).
  HistogramData readHist(unsigned Id) const {
    const Hist &H = Hists[Id];
    HistogramData D;
    D.Count = H.Count.load(std::memory_order_relaxed);
    D.Sum = H.Sum.load(std::memory_order_relaxed);
    D.Min = H.Min.load(std::memory_order_relaxed);
    D.Max = H.Max.load(std::memory_order_relaxed);
    for (unsigned I = 0; I != HistogramData::NumBuckets; ++I)
      D.Buckets[I] = H.Buckets[I].load(std::memory_order_relaxed);
    return D;
  }
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// The process-wide metric registry. Holds metric definitions (name,
/// help), the global gauge cells, the list of live thread shards and the
/// folded residue of exited threads. All registry operations take its
/// mutex; metric *increments* never do -- they go straight to the calling
/// thread's shard.
class Registry {
public:
  /// The process registry. Deliberately leaked so thread-exit hooks that
  /// run during shutdown can always reach it.
  static Registry &global();

  /// Register (or look up -- names are deduplicated) a metric. Returns
  /// its id. Thread-safe; takes the registry mutex.
  unsigned counterId(std::string_view Name, std::string_view Help);
  unsigned gaugeId(std::string_view Name, std::string_view Help);
  unsigned histogramId(std::string_view Name, std::string_view Help);

  /// Hot-path operations (relaxed, uncontended; see file comment).
  void add(unsigned CounterId, uint64_t Delta);
  void record(unsigned HistogramId, uint64_t Value);
  /// Gauges are set-to-absolute and rare: one shared atomic cell each.
  void gaugeSet(unsigned GaugeId, int64_t Value);
  void gaugeAdd(unsigned GaugeId, int64_t Delta);

  /// Merge every thread shard (live and retired) into a sorted snapshot.
  Snapshot snapshot() const;

  /// Zero every metric (live shards and retired residue) without
  /// forgetting registrations. For benches that measure phases and tests
  /// that need a clean slate; racing writers may leak increments into
  /// the cleared state, so quiesce first.
  void reset();

  // Internal: thread-shard lifecycle (see MetricsImpl in Metrics.cpp).
  detail::ThreadShard *acquireShard();
  void retireShard(detail::ThreadShard *Shard);

private:
  Registry() = default;
  struct Impl;
  Impl &impl() const;
};

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

/// A monotonically increasing event/byte counter.
class Counter {
public:
  Counter() = default;
  /// Register (or find) the counter named \p Name. Cache the result in a
  /// function-local static: registration locks, increments do not.
  static Counter get(const char *Name, const char *Help) {
    return Counter(Registry::global().counterId(Name, Help));
  }
  void add(uint64_t Delta = 1) const { Registry::global().add(Id, Delta); }

private:
  explicit Counter(unsigned Id) : Id(Id) {}
  unsigned Id = 0;
};

/// A set-to-absolute instantaneous value (occupancy, bytes resident).
class Gauge {
public:
  Gauge() = default;
  static Gauge get(const char *Name, const char *Help) {
    return Gauge(Registry::global().gaugeId(Name, Help));
  }
  void set(int64_t V) const { Registry::global().gaugeSet(Id, V); }
  void add(int64_t Delta) const { Registry::global().gaugeAdd(Id, Delta); }

private:
  explicit Gauge(unsigned Id) : Id(Id) {}
  unsigned Id = 0;
};

/// A log2-bucket distribution (latencies in ns, sizes in bytes).
class Histogram {
public:
  Histogram() = default;
  static Histogram get(const char *Name, const char *Help) {
    return Histogram(Registry::global().histogramId(Name, Help));
  }
  void record(uint64_t V) const { Registry::global().record(Id, V); }

private:
  explicit Histogram(unsigned Id) : Id(Id) {}
  unsigned Id = 0;
};

/// RAII latency probe: records elapsed nanoseconds into a histogram on
/// destruction. Declare after a lock to time the hold (destructors run in
/// reverse order, so the timer stops before the lock releases).
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram H) : H(H), Start(nowNanos()) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() { H.record(nowNanos() - Start); }

  /// Nanoseconds since construction (for callers that also want the
  /// value, e.g. to attach to a trace span).
  uint64_t elapsedNanos() const { return nowNanos() - Start; }

private:
  Histogram H;
  uint64_t Start;
};

#else // HMA_OBS_OFF: every operation is a no-op the optimizer deletes.

class Registry {
public:
  static Registry &global() {
    static Registry R;
    return R;
  }
  Snapshot snapshot() const { return Snapshot(); }
  void reset() {}
};

class Counter {
public:
  Counter() = default;
  static Counter get(const char *, const char *) { return Counter(); }
  void add(uint64_t = 1) const {}
};

class Gauge {
public:
  Gauge() = default;
  static Gauge get(const char *, const char *) { return Gauge(); }
  void set(int64_t) const {}
  void add(int64_t) const {}
};

class Histogram {
public:
  Histogram() = default;
  static Histogram get(const char *, const char *) { return Histogram(); }
  void record(uint64_t) const {}
};

class ScopedTimer {
public:
  explicit ScopedTimer(Histogram) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() = default;
  uint64_t elapsedNanos() const { return 0; }
};

#endif // HMA_OBS_OFF

} // namespace hma::obs

#endif // HMA_OBS_METRICS_H
