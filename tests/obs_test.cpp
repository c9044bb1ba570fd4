//===- tests/obs_test.cpp - Metrics / exposition / trace battery ------------===//
///
/// \file
/// The obs-layer contract, in four groups:
///
///  1. **HistogramData**: log2 bucket boundaries (every power-of-two edge,
///     zero, UINT64_MAX), lossless merge that is associative and
///     commutative, and percentile estimates that are exact at the
///     extremes and monotone non-decreasing in the quantile everywhere.
///
///  2. **Registry**: the thread-shard fold is exact -- an 8-thread hammer
///     drives counters, gauges and histograms concurrently and the
///     post-join snapshot must equal the arithmetic sum of every
///     per-thread increment, bit for bit (run under TSan/ASan in CI's
///     sanitize job).
///
///  3. **Prometheus**: render -> validate round-trips clean, and the
///     format checker actually rejects the failure modes it exists to
///     catch (malformed names/labels/values, non-monotone buckets, +Inf
///     vs _count mismatch, missing series).
///
///  4. **Trace**: spans are only collected while enabled, and the JSON
///     writer produces a Chrome-loadable document with the fields the
///     trace_event format requires.
///
/// Metric names here are prefixed `test_obs_` so they never collide with
/// the production `hma_*` names registered by code under test elsewhere
/// in this binary's process.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/Trace.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

using namespace hma;

namespace {

//===----------------------------------------------------------------------===//
// 1. HistogramData
//===----------------------------------------------------------------------===//

TEST(HistogramData, BucketBoundaries) {
  using HD = obs::HistogramData;
  // Bucket 0 is exactly {0}; bucket i (i >= 1) is [2^(i-1), 2^i).
  EXPECT_EQ(HD::bucketFor(0), 0u);
  EXPECT_EQ(HD::bucketFor(1), 1u);
  EXPECT_EQ(HD::bucketFor(2), 2u);
  EXPECT_EQ(HD::bucketFor(3), 2u);
  EXPECT_EQ(HD::bucketFor(4), 3u);
  for (unsigned I = 1; I != 64; ++I) {
    uint64_t Lo = uint64_t(1) << (I - 1);
    EXPECT_EQ(HD::bucketFor(Lo), I) << "low edge of bucket " << I;
    EXPECT_EQ(HD::bucketFor(2 * Lo - 1), I) << "high edge of bucket " << I;
    if (I + 1 < 64) {
      EXPECT_EQ(HD::bucketFor(2 * Lo), I + 1) << "first value past bucket "
                                              << I;
    }
  }
  EXPECT_EQ(HD::bucketFor(UINT64_MAX), 64u);
  EXPECT_EQ(HD::bucketFor(uint64_t(1) << 63), 64u);

  // bucketLow/bucketHigh must agree with bucketFor at both edges.
  for (unsigned I = 0; I != HD::NumBuckets; ++I) {
    EXPECT_EQ(HD::bucketFor(HD::bucketLow(I)), I);
    EXPECT_EQ(HD::bucketFor(HD::bucketHigh(I)), I);
    if (I) {
      EXPECT_EQ(HD::bucketHigh(I - 1) + 1, HD::bucketLow(I))
          << "gap/overlap between buckets " << I - 1 << " and " << I;
    }
  }
  EXPECT_EQ(HD::bucketLow(0), 0u);
  EXPECT_EQ(HD::bucketHigh(0), 0u);
  EXPECT_EQ(HD::bucketHigh(64), UINT64_MAX);
}

TEST(HistogramData, BucketIsTheBitWidthAtEveryPowerOfTwoEdge) {
  using HD = obs::HistogramData;
  // bucketFor counts leading zeros; pin it to the bit width a shift loop
  // counts: 0 -> 0, 2^k - 1 -> k, 2^k -> k + 1, UINT64_MAX -> 64.
  auto ShiftWidth = [](uint64_t V) {
    unsigned W = 0;
    for (; V; V >>= 1)
      ++W;
    return W;
  };
  EXPECT_EQ(HD::bucketFor(0), 0u);
  EXPECT_EQ(HD::bucketFor(1), 1u);
  EXPECT_EQ(HD::bucketFor(UINT64_MAX), 64u);
  for (unsigned K = 1; K != 64; ++K) {
    const uint64_t P = uint64_t(1) << K;
    EXPECT_EQ(HD::bucketFor(P - 1), K) << "2^" << K << " - 1";
    EXPECT_EQ(HD::bucketFor(P), K + 1) << "2^" << K;
    EXPECT_EQ(HD::bucketFor(P + 1), K + 1) << "2^" << K << " + 1";
  }
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (int I = 0; I != 10000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    const uint64_t V = X >> (X % 64);
    ASSERT_EQ(HD::bucketFor(V), ShiftWidth(V)) << V;
  }
}

TEST(HistogramData, RecordTracksCountSumMinMax) {
  obs::HistogramData H;
  EXPECT_EQ(H.min(), 0u); // empty histograms read as 0, not UINT64_MAX
  EXPECT_EQ(H.mean(), 0.0);
  for (uint64_t V : {7u, 0u, 1000u, 3u})
    H.record(V);
  EXPECT_EQ(H.Count, 4u);
  EXPECT_EQ(H.Sum, 1010u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.Max, 1000u);
  EXPECT_DOUBLE_EQ(H.mean(), 1010.0 / 4.0);
}

obs::HistogramData seededHistogram(uint64_t Seed, size_t N) {
  std::mt19937_64 R(Seed);
  obs::HistogramData H;
  for (size_t I = 0; I != N; ++I) {
    // Spread across many buckets: random bit width, then random bits.
    unsigned W = R() % 40;
    H.record(W == 0 ? 0 : (uint64_t(1) << (W - 1)) | (R() & ((uint64_t(1)
                                                              << (W - 1)) -
                                                             1)));
  }
  return H;
}

void expectSameHistogram(const obs::HistogramData &A,
                         const obs::HistogramData &B) {
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_EQ(A.Sum, B.Sum);
  EXPECT_EQ(A.Min, B.Min);
  EXPECT_EQ(A.Max, B.Max);
  for (unsigned I = 0; I != obs::HistogramData::NumBuckets; ++I)
    EXPECT_EQ(A.Buckets[I], B.Buckets[I]) << "bucket " << I;
}

TEST(HistogramData, MergeIsCommutativeAndAssociative) {
  obs::HistogramData A = seededHistogram(1, 500);
  obs::HistogramData B = seededHistogram(2, 300);
  obs::HistogramData C = seededHistogram(3, 700);

  obs::HistogramData AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  expectSameHistogram(AB, BA);

  obs::HistogramData ABthenC = AB;
  ABthenC.merge(C);
  obs::HistogramData BC = B, AthenBC = A;
  BC.merge(C);
  AthenBC.merge(BC);
  expectSameHistogram(ABthenC, AthenBC);

  // Merging an empty histogram is the identity.
  obs::HistogramData AE = A;
  AE.merge(obs::HistogramData{});
  expectSameHistogram(AE, A);
}

TEST(HistogramData, MergeMatchesRecordingEverythingInOne) {
  std::mt19937_64 R(99);
  obs::HistogramData Parts[4], Whole;
  for (size_t I = 0; I != 4000; ++I) {
    uint64_t V = R() % 100000;
    Parts[I % 4].record(V);
    Whole.record(V);
  }
  obs::HistogramData Folded;
  for (const obs::HistogramData &P : Parts)
    Folded.merge(P);
  expectSameHistogram(Folded, Whole);
}

TEST(HistogramData, PercentileMonotoneAndClamped) {
  obs::HistogramData H = seededHistogram(42, 2000);
  EXPECT_DOUBLE_EQ(H.percentile(0.0), static_cast<double>(H.min()));
  EXPECT_DOUBLE_EQ(H.percentile(1.0), static_cast<double>(H.Max));
  double Prev = -1.0;
  for (int I = 0; I <= 100; ++I) {
    double P = H.percentile(I / 100.0);
    EXPECT_GE(P, Prev) << "percentile not monotone at q=" << I / 100.0;
    EXPECT_GE(P, static_cast<double>(H.min()));
    EXPECT_LE(P, static_cast<double>(H.Max));
    Prev = P;
  }
  // Out-of-range quantiles clamp rather than extrapolate.
  EXPECT_DOUBLE_EQ(H.percentile(-3.0), H.percentile(0.0));
  EXPECT_DOUBLE_EQ(H.percentile(7.0), H.percentile(1.0));
  // Single-value histogram: every quantile is that value.
  obs::HistogramData One;
  One.record(12345);
  for (double Q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(One.percentile(Q), 12345.0);
}

//===----------------------------------------------------------------------===//
// 2. Registry (skipped under HMA_OBS_OFF: the no-op registry has no
//    storage to test, which is exactly its contract)
//===----------------------------------------------------------------------===//

#ifndef HMA_OBS_OFF

TEST(Registry, EightThreadHammerFoldsExactly) {
  obs::Registry::global().reset();
  const obs::Counter Events =
      obs::Counter::get("test_obs_hammer_events_total", "hammer events");
  const obs::Counter Bytes =
      obs::Counter::get("test_obs_hammer_bytes_total", "hammer bytes");
  const obs::Histogram Lat =
      obs::Histogram::get("test_obs_hammer_ns", "hammer latencies");
  const obs::Gauge Occupancy =
      obs::Gauge::get("test_obs_hammer_occupancy", "hammer gauge");

  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        Events.add(1);
        Bytes.add(T + 1); // distinct per-thread delta: catches lost shards
        Lat.record(T * PerThread + I);
        Occupancy.add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  obs::Snapshot S = obs::Registry::global().snapshot();
  const obs::CounterRow *E = S.counter("test_obs_hammer_events_total");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Value, NumThreads * PerThread);

  const obs::CounterRow *B = S.counter("test_obs_hammer_bytes_total");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Value, PerThread * (NumThreads * (NumThreads + 1)) / 2);

  const obs::HistogramRow *H = S.histogram("test_obs_hammer_ns");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Data.Count, NumThreads * PerThread);
  // Sum of 0 .. NumThreads*PerThread-1: every recorded value exactly once.
  uint64_t N = NumThreads * PerThread;
  EXPECT_EQ(H->Data.Sum, N * (N - 1) / 2);
  EXPECT_EQ(H->Data.min(), 0u);
  EXPECT_EQ(H->Data.Max, N - 1);
  uint64_t BucketTotal = 0;
  for (uint64_t C : H->Data.Buckets)
    BucketTotal += C;
  EXPECT_EQ(BucketTotal, H->Data.Count);

  bool FoundGauge = false;
  for (const obs::GaugeRow &G : S.Gauges)
    if (G.Name == "test_obs_hammer_occupancy") {
      FoundGauge = true;
      EXPECT_EQ(G.Value, static_cast<int64_t>(NumThreads * PerThread));
    }
  EXPECT_TRUE(FoundGauge);
}

TEST(Registry, NamesAreDeduplicatedAndResetKeepsRegistrations) {
  obs::Registry::global().reset();
  const obs::Counter A = obs::Counter::get("test_obs_dedup_total", "one");
  const obs::Counter B = obs::Counter::get("test_obs_dedup_total", "two");
  A.add(3);
  B.add(4); // same id: both land on the same metric
  obs::Snapshot S = obs::Registry::global().snapshot();
  const obs::CounterRow *C = S.counter("test_obs_dedup_total");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Value, 7u);

  obs::Registry::global().reset();
  S = obs::Registry::global().snapshot();
  C = S.counter("test_obs_dedup_total");
  ASSERT_NE(C, nullptr) << "reset must zero values, not forget metrics";
  EXPECT_EQ(C->Value, 0u);
  A.add(1); // handles stay valid across reset
  EXPECT_EQ(obs::Registry::global()
                .snapshot()
                .counter("test_obs_dedup_total")
                ->Value,
            1u);
}

TEST(Registry, SnapshotIsSortedByName) {
  obs::Registry::global().reset();
  obs::Counter::get("test_obs_zz_total", "z").add(1);
  obs::Counter::get("test_obs_aa_total", "a").add(1);
  obs::Snapshot S = obs::Registry::global().snapshot();
  for (size_t I = 1; I < S.Counters.size(); ++I)
    EXPECT_LT(S.Counters[I - 1].Name, S.Counters[I].Name);
  for (size_t I = 1; I < S.Histograms.size(); ++I)
    EXPECT_LT(S.Histograms[I - 1].Name, S.Histograms[I].Name);
}

#endif // !HMA_OBS_OFF

//===----------------------------------------------------------------------===//
// 3. Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(Prometheus, RenderedSnapshotValidates) {
  obs::Snapshot S;
  S.Counters.push_back({"test_obs_prom_events_total", "events", 42});
  S.Gauges.push_back({"test_obs_prom_resident_bytes", "bytes", -7});
  obs::HistogramRow H;
  H.Name = "test_obs_prom_ns";
  H.Help = "latencies";
  for (uint64_t V : {0u, 1u, 3u, 900u, 70000u})
    H.Data.record(V);
  S.Histograms.push_back(H);

  std::vector<obs::PromSample> Extras;
  Extras.push_back({"test_obs_prom_classes", "classes", false, 123});
  Extras.push_back({"test_obs_prom_ratio", "a float", true, 0.375});

  std::string Text = renderPrometheus(S, Extras);
  std::string Error;
  EXPECT_TRUE(obs::validatePrometheusText(Text, &Error)) << Error;

  // Spot-check the histogram shape the renderer promises: cumulative
  // buckets ending in +Inf == _count.
  EXPECT_NE(Text.find("test_obs_prom_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("test_obs_prom_ns_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_obs_prom_ns_count 5\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE test_obs_prom_classes gauge\n"),
            std::string::npos);
}

TEST(Prometheus, EmptyHistogramRendersValidly) {
  obs::Snapshot S;
  S.Histograms.push_back({"test_obs_prom_empty_ns", "never recorded", {}});
  std::string Error;
  EXPECT_TRUE(obs::validatePrometheusText(renderPrometheus(S), &Error))
      << Error;
}

TEST(Prometheus, CheckerRejectsMalformedDocuments) {
  auto Rejects = [](const char *Doc, const char *Why) {
    std::string Error;
    EXPECT_FALSE(obs::validatePrometheusText(Doc, &Error)) << Why;
    EXPECT_FALSE(Error.empty()) << Why;
  };
  Rejects("", "empty document has no samples");
  Rejects("9starts_with_digit 1\n", "metric names cannot start with a digit");
  Rejects("ok_name not_a_number\n", "sample value must be numeric");
  Rejects("ok_name{unclosed=\"x\" 1\n", "unterminated label block");
  Rejects("# TYPE m widget\nm 1\n", "unknown TYPE kind");
  Rejects("# TYPE m counter\n# TYPE m counter\nm 1\n", "duplicate TYPE");
  Rejects("# TYPE h histogram\nh 1\n", "bare sample for a histogram");
  Rejects("# TYPE h histogram\n"
          "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
          "histogram without a +Inf bucket");
  Rejects("# TYPE h histogram\n"
          "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
          "h_sum 9\nh_count 3\n",
          "buckets must be monotone non-decreasing");
  Rejects("# TYPE h histogram\n"
          "h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 3\n",
          "+Inf bucket must equal _count");
  Rejects("# TYPE h histogram\n"
          "h_bucket{le=\"+Inf\"} 3\nh_count 3\n",
          "histogram missing _sum");
}

TEST(Prometheus, CheckerAcceptsForeignButWellFormedDocuments) {
  // Not our renderer's output: labels, timestamps, untyped metrics.
  const char *Doc = "# A free-form comment\n"
                    "http_requests_total{method=\"post\",code=\"200\"} "
                    "1027 1395066363000\n"
                    "something_untyped 3.14\n";
  std::string Error;
  EXPECT_TRUE(obs::validatePrometheusText(Doc, &Error)) << Error;
}

//===----------------------------------------------------------------------===//
// 4. Trace
//===----------------------------------------------------------------------===//

#ifndef HMA_OBS_OFF

TEST(Trace, SpansCollectOnlyWhileEnabled) {
  obs::TraceSink &Sink = obs::TraceSink::global();
  { obs::ScopedTrace T("before_enable", "test"); }
  Sink.enable(); // also clears prior events
  EXPECT_EQ(Sink.numEvents(), 0u);
  { obs::ScopedTrace T("span_a", "test", 17); }
  Sink.instant("marker", "test");
  { obs::ScopedTrace T("span_b", "test"); }
  Sink.disable();
  { obs::ScopedTrace T("after_disable", "test"); }
  EXPECT_EQ(Sink.numEvents(), 3u);

  std::string J = Sink.toJson();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"name\": \"span_a\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(J.find("17"), std::string::npos) << "span arg missing";
  EXPECT_EQ(J.find("before_enable"), std::string::npos);
  EXPECT_EQ(J.find("after_disable"), std::string::npos);

  // Re-enabling clears: trace sessions are independent.
  Sink.enable();
  EXPECT_EQ(Sink.numEvents(), 0u);
  Sink.disable();
}

#endif // !HMA_OBS_OFF

TEST(Trace, EmptySinkRendersValidSkeleton) {
  obs::TraceSink &Sink = obs::TraceSink::global();
  Sink.disable();
  std::string J = Sink.toJson();
  EXPECT_NE(J.find("traceEvents"), std::string::npos);
}

} // namespace
