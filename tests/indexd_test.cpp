//===- tests/indexd_test.cpp - indexd fault-injection harness ---------------===//
///
/// \file
/// The serving daemon under attack. Three layers:
///
///  - **Generation swap, library level**: reader threads hammer
///    `lookupBatch`-style queries through `GenerationCell::acquire`
///    while a swapper republishes generations as fast as it can -- zero
///    wrong answers, and the destruction counter proves every displaced
///    generation's mapping was actually released (not leaked, not
///    unmapped early). This is the refcounting contract the whole
///    daemon's correctness rests on.
///
///  - **Wire protocol, in-process daemon**: a real `serve::Server` on a
///    real Unix socket, queried by `serve::Client` -- answers must be
///    byte-identical to the `MappedIndex` ground truth; reloads
///    mid-traffic must never produce a wrong or torn answer; a corrupt
///    reload candidate must be rejected while the old generation keeps
///    serving; concurrent reload hammering must stay linearizable.
///
///  - **Hostile clients**: the full `runChaos` script (torn frames,
///    slow-loris, oversized/short/garbage/bad-version/bad-op frames,
///    mid-frame hangups, pipelined floods) -- every offence gets the
///    documented error status, the connection is closed, and the daemon
///    keeps serving. Plus lifecycle: graceful drain exits 0 and unlinks
///    the socket; a daemon killed and restarted over its own stale
///    socket file comes back serving.
///
/// Timeouts here are intentionally short (hundreds of ms) so the suite
/// runs fast, with assertions phrased against *events* (reply received,
/// connection closed) rather than wall-clock, keeping it sanitizer- and
/// load-tolerant.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Generation.h"
#include "serve/Server.h"

#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/AlphaHashIndex.h"
#include "index/IndexIO.h"
#include "index/MappedIndex.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentManifest.h"
#include "obs/Metrics.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <unistd.h>
#endif

using namespace hma;
using namespace hma::serve;

#if !defined(__unix__) && !defined(__APPLE__)
TEST(Indexd, SkippedOnThisPlatform) { GTEST_SKIP() << "no sockets"; }
#else

namespace {

std::vector<std::string> makeCorpus(size_t N, uint64_t Seed,
                                    uint32_t Size = 25) {
  ExprContext Ctx;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  for (size_t I = 0; I != N; ++I)
    Blobs.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, Size)));
  return Blobs;
}

/// Ingest \p Corpus and persist it as an HMAI file at \p Path.
void writeIndexFileFor(const std::vector<std::string> &Corpus,
                       const std::string &Path, unsigned Shards = 16) {
  AlphaHashIndex<> Live({Shards, HashSchema::DefaultSeed});
  Live.insertBatch(Corpus, /*Threads=*/1);
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, saveIndexBytes(Live), &Error))
      << Error;
}

/// Aggressive-but-stable daemon options for tests: short deadlines,
/// tiny drain bound, 2 workers.
ServerOptions testOpts(const std::string &IndexPath,
                       const std::string &Sock) {
  ServerOptions O;
  O.IndexPath = IndexPath;
  O.UnixSocketPath = Sock;
  O.Threads = 2;
  O.RequestTimeoutMs = 400;
  O.IdleTimeoutMs = 10000;
  O.DrainTimeoutMs = 2000;
  return O;
}

ClientOptions testClientOpts(const std::string &Sock) {
  ClientOptions O;
  O.UnixSocketPath = Sock;
  O.TimeoutMs = 10000;
  O.ConnectRetries = 5;
  O.RetryBaseMs = 20;
  return O;
}

/// Start a daemon or fail the test; stops it on scope exit even when an
/// assertion bails out early.
struct DaemonGuard {
  Server Srv;
  explicit DaemonGuard(ServerOptions O) : Srv(std::move(O)) {
    std::string Error;
    Started = Srv.start(&Error);
    EXPECT_TRUE(Started) << Error;
  }
  ~DaemonGuard() {
    if (Started) {
      Srv.requestStop();
      Srv.waitForExit();
    }
  }
  bool Started = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: refcounted generation swap, library level
//===----------------------------------------------------------------------===//

TEST(GenerationSwap, ConcurrentReadersNeverSeeWrongAnswersAcross100Swaps) {
  // Two index files over the same corpus (B is a superset), swapped
  // back and forth under the readers' feet. Every corpus member must
  // answer present-with-identical-bytes from *either* generation, so a
  // reader can never tell mid-swap chaos from a quiet server -- except
  // by crashing, which is the bug this test exists to catch.
  std::vector<std::string> Corpus = makeCorpus(60, 0xA11CE);
  std::vector<std::string> Superset = Corpus;
  for (std::string &B : makeCorpus(20, 0xB0B))
    Superset.push_back(std::move(B));
  const std::string PathA = "indexd_test_gen_a.hmai";
  const std::string PathB = "indexd_test_gen_b.hmai";
  writeIndexFileFor(Corpus, PathA);
  writeIndexFileFor(Superset, PathB);

  // Ground truth from a private mapping of file A.
  auto Truth = MappedIndex<Hash128>::open(PathA);
  ASSERT_TRUE(Truth.ok()) << Truth.Error;
  std::vector<std::optional<LookupResult<Hash128>>> Expect =
      Truth.Reader->lookupBatch(Corpus, /*Threads=*/1);

  GenerationCell Cell;
  ASSERT_TRUE(Cell.load(PathA).Ok);

  constexpr int Swaps = 100;
  constexpr int Readers = 8;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Checked{0};
  std::atomic<int> WrongAnswers{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T != Readers; ++T) {
    Threads.emplace_back([&, T] {
      // Per-reader warm hasher + scratch, the worker pattern.
      ExprContext Boot;
      AlphaHasher<Hash128> Hasher(Boot);
      DecodeScratch Scratch;
      size_t I = static_cast<size_t>(T);
      while (!Done.load(std::memory_order_acquire)) {
        GenerationRef Gen = Cell.acquire();
        ASSERT_NE(Gen, nullptr);
        const std::string &Blob = Corpus[I % Corpus.size()];
        auto Hit = Gen->Index->lookupSerialized(Blob, Hasher, Scratch);
        const auto &Want = Expect[I % Corpus.size()];
        if (!Hit || !Want || Hit->Hash != Want->Hash ||
            Hit->Count != Want->Count ||
            Hit->CanonicalBytes != Want->CanonicalBytes)
          WrongAnswers.fetch_add(1);
        Checked.fetch_add(1);
        ++I;
      }
    });
  }

  // Thread startup can lag far behind this thread (sanitizers, 1-core
  // boxes): don't start -- or stop -- swapping until the readers are
  // demonstrably in their loops, or the "concurrent" in the test name
  // would be vacuous. Bounded waits so a crashed reader fails instead
  // of hanging.
  auto WaitChecked = [&](uint64_t AtLeast) {
    for (int Spin = 0; Spin != 20000 && Checked.load() < AtLeast; ++Spin)
      std::this_thread::sleep_for(std::chrono::microseconds(250));
  };
  WaitChecked(1);
  int Ok = 0;
  for (int S = 0; S != Swaps; ++S)
    Ok += Cell.load(S % 2 ? PathB : PathA).Ok;
  WaitChecked(static_cast<uint64_t>(Readers));
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Ok, Swaps);
  EXPECT_EQ(WrongAnswers.load(), 0);
  EXPECT_GT(Checked.load(), 0u);
  // 1 initial + 100 swapped generations; with every reader drained the
  // cell's own reference is the only one left, so exactly 100 displaced
  // generations must have been destroyed -- no leak, no double-free
  // (ASan would flag the latter).
  EXPECT_EQ(Cell.generationsRetired(), static_cast<uint64_t>(Swaps));
  Cell.clear();
  EXPECT_EQ(Cell.generationsRetired(), static_cast<uint64_t>(Swaps) + 1);

  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(GenerationSwap, ConcurrentLoadsEachReportTheirOwnNumber) {
  // load() must read the number it published while it holds the cell
  // lock: once the lock drops, a racing load may replace and free that
  // generation (ThreadSanitizer reports the race). Every outcome must
  // name exactly the number it published.
  std::vector<std::string> Corpus = makeCorpus(10, 78);
  const std::string Path = "indexd_test_gen_race.hmai";
  writeIndexFileFor(Corpus, Path);

  GenerationCell Cell;
  constexpr int Loaders = 4, LoadsEach = 25;
  std::mutex Mu;
  std::vector<uint64_t> Numbers;
  std::vector<std::thread> Threads;
  for (int T = 0; T != Loaders; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != LoadsEach; ++I) {
        LoadOutcome R = Cell.load(Path);
        ASSERT_TRUE(R.Ok) << R.Message;
        EXPECT_EQ(R.Message.find("serving generation " +
                                 std::to_string(R.Number) + ":"),
                  0u)
            << R.Message;
        std::lock_guard<std::mutex> Lock(Mu);
        Numbers.push_back(R.Number);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::sort(Numbers.begin(), Numbers.end());
  ASSERT_EQ(Numbers.size(), size_t(Loaders * LoadsEach));
  for (size_t I = 0; I != Numbers.size(); ++I)
    EXPECT_EQ(Numbers[I], 1 + I);
  EXPECT_EQ(Cell.currentNumber(), uint64_t(Loaders * LoadsEach));
  std::remove(Path.c_str());
}

TEST(GenerationSwap, PinnedReferenceOutlivesCellAndSwaps) {
  std::vector<std::string> Corpus = makeCorpus(10, 77);
  const std::string Path = "indexd_test_gen_pin.hmai";
  writeIndexFileFor(Corpus, Path);

  GenerationRef Pinned;
  uint64_t RetiredAtPin = 0;
  {
    GenerationCell Cell;
    ASSERT_TRUE(Cell.load(Path).Ok);
    Pinned = Cell.acquire();
    ASSERT_NE(Pinned, nullptr);
    EXPECT_EQ(Pinned->Number, 1u);
    // Two swaps displace the pinned generation, but the pin keeps its
    // mapping alive: only the *middle* generation can retire.
    ASSERT_TRUE(Cell.load(Path).Ok);
    ASSERT_TRUE(Cell.load(Path).Ok);
    EXPECT_EQ(Cell.currentNumber(), 3u);
    EXPECT_EQ(Cell.generationsRetired(), 1u);
    RetiredAtPin = Cell.generationsRetired();
    // Cell destruction drops generation 3; the pin still holds 1.
  }
  // The pinned generation must still answer after the cell is gone.
  ExprContext Ctx;
  DeserializeResult D = deserializeExpr(Ctx, Corpus[0]);
  ASSERT_TRUE(D.ok());
  EXPECT_TRUE(Pinned->Index->lookup(Ctx, D.E).has_value());
  (void)RetiredAtPin;
  Pinned.reset(); // The deleter outlives the cell by design.
  std::remove(Path.c_str());
}

TEST(GenerationSwap, AdmissionGateRejectsCorruptionWithoutDisturbingService) {
  std::vector<std::string> Corpus = makeCorpus(20, 5);
  const std::string Good = "indexd_test_gate_good.hmai";
  const std::string Bad = "indexd_test_gate_bad.hmai";
  writeIndexFileFor(Corpus, Good);

  GenerationCell Cell;
  ASSERT_TRUE(Cell.load(Good).Ok);

  // Magic-smashed, truncated, and bit-flipped candidates: all rejected,
  // generation number and serving pointer untouched.
  std::string Image;
  {
    std::string Error;
    ASSERT_TRUE(readFileBytes(Good, Image, &Error)) << Error;
  }
  std::string Smashed = Image;
  Smashed[0] = 'X';
  std::string Truncated = Image.substr(0, Image.size() / 2);
  std::string Flipped = Image;
  Flipped[Image.size() / 2] ^= 0x40;

  for (const std::string &Candidate : {Smashed, Truncated, Flipped}) {
    std::string Error;
    ASSERT_TRUE(writeFileReplacing(Bad, Candidate, &Error)) << Error;
    LoadOutcome R = Cell.load(Bad);
    // (The bit-flip lands in blob bytes for some sizes, which decode
    // checks catch in verify(); all three candidates here corrupt
    // structure the gate detects. If a candidate ever passes, it must
    // at least be *openable* -- treat that as gate acceptance.)
    if (!R.Ok) {
      EXPECT_NE(R.Message.find("rejected"), std::string::npos) << R.Message;
      EXPECT_EQ(Cell.currentPath(), Good);
    }
  }
  EXPECT_GE(Cell.loadsRejected(), 2u);

  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

//===----------------------------------------------------------------------===//
// Layer 2: the daemon over its socket vs MappedIndex ground truth
//===----------------------------------------------------------------------===//

TEST(Indexd, WireAnswersAreByteIdenticalToMappedGroundTruth) {
  std::vector<std::string> Corpus = makeCorpus(80, 42);
  const std::string Path = "indexd_test_wire.hmai";
  const std::string Sock = "indexd_test_wire.sock";
  writeIndexFileFor(Corpus, Path);

  // Queries: every member, plus guaranteed-absent and undecodable ones.
  std::vector<std::string> Queries = Corpus;
  for (std::string &B : makeCorpus(10, 0xDEAD, 31))
    Queries.push_back(std::move(B));
  Queries.push_back("definitely not a serialized expression");
  Queries.emplace_back(); // empty blob

  auto Truth = MappedIndex<Hash128>::open(Path);
  ASSERT_TRUE(Truth.ok()) << Truth.Error;
  auto Expect = Truth.Reader->lookupBatch(Queries, /*Threads=*/1);

  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);

  Client C(testClientOpts(Sock));
  std::string Error;

  // Batch op: one frame, every answer byte-compared.
  std::vector<WireLookup> Got;
  ASSERT_TRUE(C.lookupBatch(Queries, Got, &Error)) << Error;
  ASSERT_EQ(Got.size(), Expect.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    ASSERT_EQ(Got[I].Present, Expect[I].has_value()) << "query " << I;
    if (!Got[I].Present)
      continue;
    EXPECT_EQ(Got[I].Hash, Expect[I]->Hash) << "query " << I;
    EXPECT_EQ(Got[I].Count, Expect[I]->Count) << "query " << I;
    EXPECT_EQ(Got[I].CanonicalBytes,
              std::string(Expect[I]->CanonicalBytes))
        << "query " << I;
  }

  // Singleton op: same contract, one query per frame, pipelined client
  // reuse of one connection.
  for (size_t I = 0; I < Queries.size(); I += 7) {
    WireLookup R;
    ASSERT_TRUE(C.lookup(Queries[I], R, &Error)) << Error;
    EXPECT_EQ(R.Present, Expect[I].has_value()) << "query " << I;
    if (R.Present && Expect[I]) {
      EXPECT_EQ(R.Hash, Expect[I]->Hash);
    }
  }

  // Stats op: all three formats answer, and the text form carries the
  // generation fields the harness asserts on elsewhere.
  std::string Report;
  ASSERT_TRUE(C.stats(StatsFormat::Text, Report, &Error)) << Error;
  EXPECT_NE(Report.find("generation: 1"), std::string::npos) << Report;
  EXPECT_NE(Report.find("backend: mapped"), std::string::npos) << Report;
  ASSERT_TRUE(C.stats(StatsFormat::Json, Report, &Error)) << Error;
  EXPECT_NE(Report.find("\"backend\""), std::string::npos);
  ASSERT_TRUE(C.stats(StatsFormat::Prom, Report, &Error)) << Error;
  EXPECT_NE(Report.find("hma_index_classes"), std::string::npos);

  std::remove(Path.c_str());
}

TEST(Indexd, ReloadUnderFireNeverProducesAWrongAnswer) {
  std::vector<std::string> Corpus = makeCorpus(40, 9);
  const std::string Path = "indexd_test_fire.hmai";
  const std::string Sock = "indexd_test_fire.sock";
  writeIndexFileFor(Corpus, Path);

  auto Truth = MappedIndex<Hash128>::open(Path);
  ASSERT_TRUE(Truth.ok()) << Truth.Error;
  auto Expect = Truth.Reader->lookupBatch(Corpus, 1);

  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);

  std::atomic<bool> Done{false};
  std::atomic<int> Wrong{0};
  std::atomic<int> TransportErrors{0};
  std::thread Querier([&] {
    Client C(testClientOpts(Sock));
    std::string Error;
    size_t I = 0;
    while (!Done.load()) {
      WireLookup R;
      if (!C.lookup(Corpus[I % Corpus.size()], R, &Error)) {
        TransportErrors.fetch_add(1);
        continue;
      }
      const auto &Want = Expect[I % Corpus.size()];
      if (!R.Present || !Want || R.Hash != Want->Hash ||
          R.CanonicalBytes != std::string(Want->CanonicalBytes))
        Wrong.fetch_add(1);
      ++I;
    }
  });

  // 20 mid-traffic reloads of the same file: every one admitted, every
  // displaced generation eventually retired.
  Client Reloader(testClientOpts(Sock));
  std::string Error;
  int ReloadsOk = 0;
  for (int I = 0; I != 20; ++I) {
    Reply R;
    ASSERT_TRUE(Reloader.reload("", R, &Error)) << Error;
    ReloadsOk += R.ok();
  }
  Done.store(true);
  Querier.join();

  EXPECT_EQ(ReloadsOk, 20);
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_EQ(TransportErrors.load(), 0);
  EXPECT_EQ(D.Srv.generations().currentNumber(), 21u);
  // In-flight pins have drained (both clients are idle): of the 21
  // generations, only the current one may still be alive.
  EXPECT_EQ(D.Srv.generations().generationsRetired(), 20u);

  std::remove(Path.c_str());
}

TEST(Indexd, CorruptReloadIsRejectedWhileOldGenerationKeepsServing) {
  std::vector<std::string> Corpus = makeCorpus(30, 3);
  const std::string Path = "indexd_test_corrupt.hmai";
  const std::string Bad = "indexd_test_corrupt_bad.hmai";
  const std::string Sock = "indexd_test_corrupt.sock";
  writeIndexFileFor(Corpus, Path);
  {
    std::string Error;
    ASSERT_TRUE(
        writeFileReplacing(Bad, "HMAI but not really an index", &Error))
        << Error;
  }

  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);
  Client C(testClientOpts(Sock));
  std::string Error;

  WireLookup Before;
  ASSERT_TRUE(C.lookup(Corpus[0], Before, &Error)) << Error;
  ASSERT_TRUE(Before.Present);

  Reply R;
  ASSERT_TRUE(C.reload(Bad, R, &Error)) << Error;
  EXPECT_EQ(R.S, Status::ReloadRejected) << statusName(R.S);
  EXPECT_NE(R.Body.find("rejected"), std::string::npos) << R.Body;

  // Same connection, same generation, same answer.
  WireLookup After;
  ASSERT_TRUE(C.lookup(Corpus[0], After, &Error)) << Error;
  EXPECT_TRUE(After.Present);
  EXPECT_EQ(After.Hash, Before.Hash);
  EXPECT_EQ(After.CanonicalBytes, Before.CanonicalBytes);
  EXPECT_EQ(D.Srv.generations().currentNumber(), 1u);
  EXPECT_GE(D.Srv.generations().loadsRejected(), 1u);

  std::remove(Path.c_str());
  std::remove(Bad.c_str());
}

TEST(Indexd, ConcurrentReloadHammerStaysLinearizable) {
  std::vector<std::string> Corpus = makeCorpus(30, 11);
  const std::string Path = "indexd_test_hammer.hmai";
  const std::string Sock = "indexd_test_hammer.sock";
  writeIndexFileFor(Corpus, Path);

  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);

  constexpr int Hammers = 4;
  constexpr int ReloadsEach = 10;
  std::atomic<int> Admitted{0};
  std::mutex NumbersMu;
  std::vector<uint64_t> Numbers; // as each reload's reply reported it
  std::vector<std::thread> Threads;
  for (int T = 0; T != Hammers; ++T) {
    Threads.emplace_back([&] {
      Client C(testClientOpts(Sock));
      std::string Error;
      for (int I = 0; I != ReloadsEach; ++I) {
        Reply R;
        if (C.reload("", R, &Error) && R.ok()) {
          Admitted.fetch_add(1);
          std::lock_guard<std::mutex> Lock(NumbersMu);
          Numbers.push_back(std::strtoull(
              R.Body.c_str() + std::strlen("serving generation "), nullptr,
              10));
        }
      }
    });
  }
  // One thread keeps querying throughout.
  std::atomic<bool> Done{false};
  std::atomic<int> Wrong{0};
  std::thread Querier([&] {
    Client C(testClientOpts(Sock));
    std::string Error;
    while (!Done.load()) {
      WireLookup R;
      if (C.lookup(Corpus[7], R, &Error) && !R.Present)
        Wrong.fetch_add(1);
    }
  });
  for (std::thread &T : Threads)
    T.join();
  Done.store(true);
  Querier.join();

  EXPECT_EQ(Admitted.load(), Hammers * ReloadsEach);
  EXPECT_EQ(Wrong.load(), 0);
  // Generation numbers are published under one lock: the final number
  // is exactly initial + admitted, monotonic throughout.
  EXPECT_EQ(D.Srv.generations().currentNumber(),
            1u + static_cast<uint64_t>(Admitted.load()));
  // Each reload reports the number it published -- read under that lock,
  // never from a generation a racing reload may already have freed -- so
  // the replies name 2..1+admitted exactly once each.
  std::sort(Numbers.begin(), Numbers.end());
  ASSERT_EQ(Numbers.size(), static_cast<size_t>(Admitted.load()));
  for (size_t I = 0; I != Numbers.size(); ++I)
    EXPECT_EQ(Numbers[I], 2 + I);

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Layer 3: hostile clients and lifecycle
//===----------------------------------------------------------------------===//

TEST(Indexd, ChaosSuiteAllModesPass) {
  std::vector<std::string> Corpus = makeCorpus(20, 21);
  const std::string Path = "indexd_test_chaos.hmai";
  const std::string Sock = "indexd_test_chaos.sock";
  writeIndexFileFor(Corpus, Path);

  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);

  std::string Log;
  int Failures = runChaos(testClientOpts(Sock), "all",
                          /*ServerRequestTimeoutMs=*/400, Log);
  EXPECT_EQ(Failures, 0) << Log;
  EXPECT_NE(Log.find("PASS torn"), std::string::npos) << Log;
  EXPECT_NE(Log.find("PASS flood"), std::string::npos) << Log;

  std::remove(Path.c_str());
}

TEST(Indexd, GracefulShutdownDrainsAndUnlinksSocket) {
  std::vector<std::string> Corpus = makeCorpus(15, 8);
  const std::string Path = "indexd_test_drain.hmai";
  const std::string Sock = "indexd_test_drain.sock";
  writeIndexFileFor(Corpus, Path);

  auto Opts = testOpts(Path, Sock);
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  Client C(testClientOpts(Sock));
  WireLookup R;
  ASSERT_TRUE(C.lookup(Corpus[0], R, &Error)) << Error;
  EXPECT_TRUE(R.Present);

  // The Shutdown *op* drains the daemon: requests already answered stay
  // answered, waitForExit returns the clean exit code, and the socket
  // path is gone afterwards.
  ASSERT_TRUE(C.shutdownServer(&Error)) << Error;
  EXPECT_EQ(Srv.waitForExit(), 0);
  EXPECT_FALSE(Srv.running());

  ClientOptions NoRetry = testClientOpts(Sock);
  NoRetry.ConnectRetries = 1;
  Client C2(NoRetry);
  EXPECT_FALSE(C2.ping(&Error));

  std::remove(Path.c_str());
}

TEST(Indexd, RestartOverStaleSocketFileServesAgain) {
  std::vector<std::string> Corpus = makeCorpus(15, 4);
  const std::string Path = "indexd_test_restart.hmai";
  const std::string Sock = "indexd_test_restart.sock";
  writeIndexFileFor(Corpus, Path);

  // First life: serve, then die *without* graceful cleanup (simulated
  // kill -9: we skip the drain and just leak the socket inode).
  {
    std::string Error;
    ASSERT_TRUE(writeFileReplacing(Sock, "stale socket placeholder", &Error))
        << Error; // Any leftover inode at the path.
  }

  // Second life: must bind over the stale path and serve.
  DaemonGuard D(testOpts(Path, Sock));
  ASSERT_TRUE(D.Started);
  Client C(testClientOpts(Sock));
  std::string Error;
  WireLookup R;
  ASSERT_TRUE(C.lookup(Corpus[3], R, &Error)) << Error;
  EXPECT_TRUE(R.Present);

  std::remove(Path.c_str());
}

TEST(Indexd, RequestsDuringDrainAreAnsweredThenConnectionCloses) {
  std::vector<std::string> Corpus = makeCorpus(15, 6);
  const std::string Path = "indexd_test_drainreq.hmai";
  const std::string Sock = "indexd_test_drainreq.sock";
  writeIndexFileFor(Corpus, Path);

  auto Opts = testOpts(Path, Sock);
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  // Client A parks an open connection, then the daemon starts draining.
  Client A(testClientOpts(Sock));
  ASSERT_TRUE(A.ping(&Error)) << Error;
  Srv.requestStop();

  // The drain must complete regardless of A's open connection, inside
  // the drain bound (waitForExit blocks until then).
  EXPECT_EQ(Srv.waitForExit(), 0);

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Layer 4: degraded mode -- a rejected reload never takes the daemon down
//===----------------------------------------------------------------------===//

namespace {

/// Delete every file in \p Dir, then the directory itself (segmented
/// test fixtures; file set varies with compaction timing).
void removeDirTree(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (D) {
    std::vector<std::string> Names;
    while (struct dirent *E = ::readdir(D)) {
      const std::string N = E->d_name;
      if (N != "." && N != "..")
        Names.push_back(N);
    }
    ::closedir(D);
    for (const std::string &N : Names)
      std::remove((Dir + "/" + N).c_str());
  }
  ::rmdir(Dir.c_str());
}

/// Poll \p Pred every millisecond for up to \p BoundMs. True if it held.
template <typename Pred> bool eventually(int BoundMs, Pred &&P) {
  for (int Waited = 0; Waited < BoundMs; ++Waited) {
    if (P())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return P();
}

} // namespace

TEST(Indexd, DegradedModeRetriesRejectedReloadAndRecovers) {
  std::vector<std::string> Corpus = makeCorpus(30, 41);
  std::vector<std::string> NewCorpus = makeCorpus(30, 42);
  const std::string Path = "indexd_test_degraded.hmai";
  const std::string Candidate = "indexd_test_degraded_next.hmai";
  const std::string Sock = "indexd_test_degraded.sock";
  writeIndexFileFor(Corpus, Path);
  {
    std::string Error;
    ASSERT_TRUE(writeFileReplacing(Candidate, "garbage, not an index",
                                   &Error))
        << Error;
  }

  ServerOptions O = testOpts(Path, Sock);
  O.ReloadRetryBaseMs = 5;
  O.ReloadRetryMaxMs = 40;
  O.ReloadRetryLimit = 100000; // keep retrying for the whole test
  DaemonGuard D(O);
  ASSERT_TRUE(D.Started);
  Client C(testClientOpts(Sock));
  std::string Error;

  WireLookup Truth;
  ASSERT_TRUE(C.lookup(Corpus[0], Truth, &Error)) << Error;
  ASSERT_TRUE(Truth.Present);

  // Three consecutive operator reloads of a corrupt candidate: each is
  // rejected, the old generation answers identically after every one.
  for (int I = 0; I != 3; ++I) {
    Reply R;
    ASSERT_TRUE(C.reload(Candidate, R, &Error)) << Error;
    EXPECT_EQ(R.S, Status::ReloadRejected) << statusName(R.S);
    WireLookup Again;
    ASSERT_TRUE(C.lookup(Corpus[0], Again, &Error)) << Error;
    EXPECT_TRUE(Again.Present);
    EXPECT_EQ(Again.Hash, Truth.Hash);
    EXPECT_EQ(Again.CanonicalBytes, Truth.CanonicalBytes);
  }
  EXPECT_TRUE(D.Srv.degraded());
  EXPECT_FALSE(D.Srv.lastReloadError().empty());
  EXPECT_EQ(D.Srv.generations().currentNumber(), 1u);

  // The accept thread keeps retrying the failed candidate on its own
  // (jittered exponential backoff), and the retries keep failing -- the
  // daemon stays degraded but serving.
  EXPECT_TRUE(eventually(5000, [&] { return D.Srv.reloadRetries() >= 2; }))
      << "no automatic retries observed";
  EXPECT_TRUE(D.Srv.degraded());

  // Both stats surfaces show the state.
  std::string Stats;
  ASSERT_TRUE(C.stats(StatsFormat::Text, Stats, &Error)) << Error;
  EXPECT_NE(Stats.find("degraded: 1"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("reload_retries: "), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("last_reload_error: "), std::string::npos) << Stats;
  std::string Prom;
  ASSERT_TRUE(C.stats(StatsFormat::Prom, Prom, &Error)) << Error;
  EXPECT_NE(Prom.find("hma_indexd_degraded"), std::string::npos);
  EXPECT_NE(Prom.find("hma_indexd_reload_retries_total"), std::string::npos);

  // Fix the candidate in place (atomic replace). The next automatic
  // retry passes the admission gate, swaps the generation, and clears
  // the degraded state -- no operator involved.
  writeIndexFileFor(NewCorpus, Candidate);
  EXPECT_TRUE(eventually(5000, [&] { return !D.Srv.degraded(); }))
      << "degraded state never cleared: " << D.Srv.lastReloadError();
  EXPECT_GE(D.Srv.generations().currentNumber(), 2u);
  EXPECT_TRUE(D.Srv.lastReloadError().empty());

  WireLookup FromNew;
  ASSERT_TRUE(C.lookup(NewCorpus[0], FromNew, &Error)) << Error;
  EXPECT_TRUE(FromNew.Present);
  ASSERT_TRUE(C.stats(StatsFormat::Text, Stats, &Error)) << Error;
  EXPECT_NE(Stats.find("degraded: 0"), std::string::npos) << Stats;

  std::remove(Path.c_str());
  std::remove(Candidate.c_str());
}

TEST(Indexd, SighupReloadRacesCompactorManifestSwap) {
  std::vector<std::string> Base = makeCorpus(24, 51);
  const std::string Dir = "indexd_test_race.segidx";
  const std::string Sock = "indexd_test_race.sock";
  removeDirTree(Dir);
  {
    AlphaHashIndex<> BaseIdx({/*Shards=*/8, HashSchema::DefaultSeed});
    BaseIdx.insertBatch(Base, 1);
    ASSERT_TRUE(createSegmentDir(Dir, BaseIdx).Ok);
  }

  ServerOptions O = testOpts(Dir, Sock);
  O.ReloadRetryBaseMs = 2; // a racy rejection must heal itself quickly
  O.ReloadRetryMaxMs = 10;
  O.ReloadRetryLimit = 100000;
  DaemonGuard D(O);
  ASSERT_TRUE(D.Started);
  Client C(testClientOpts(Sock));
  std::string Error;

  std::vector<WireLookup> Truth(Base.size());
  for (size_t I = 0; I != Base.size(); ++I) {
    ASSERT_TRUE(C.lookup(Base[I], Truth[I], &Error)) << Error;
    ASSERT_TRUE(Truth[I].Present);
  }

  auto numSegments = [&] {
    std::string Bytes;
    SegmentManifest M;
    if (!readFileBytes(manifestPathFor(Dir), Bytes, nullptr) ||
        !SegmentManifest::decode(Bytes, M))
      return size_t(0); // mid-swap read; caller just polls again
    return M.Segments.size();
  };

  // A live compactor (poll 1ms, trigger at 2 segments) swaps the
  // manifest out from under SIGHUP reloads. Each round appends one
  // delta -- only ever while a single segment is listed, so the
  // append's read-modify-write cannot interleave with a compaction --
  // then hammers reloads while the compactor merges 2 -> 1. A reload
  // that catches the window where the old manifest's segments are
  // already deleted is *rejected* (and retried); what it must never do
  // is serve a torn view or wrong bytes.
  SegmentCompactor<Hash128>::Options COpts;
  COpts.TriggerSegments = 2;
  COpts.PollMs = 1;
  SegmentCompactor<Hash128> Compactor(Dir, COpts);

  ExprContext Ctx;
  Rng R(99);
  SegmentAppendOptions AOpts;
  AOpts.Shards = 8;
  for (int Round = 0; Round != 12; ++Round) {
    ASSERT_TRUE(eventually(5000, [&] { return numSegments() == 1; }))
        << "compactor never quiesced: " << Compactor.lastError();
    std::vector<std::string> Delta;
    for (int I = 0; I != 3; ++I)
      Delta.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 14)));
    ASSERT_TRUE(appendSegment<Hash128>(Dir, Delta, AOpts).Ok);

    for (int Shot = 0; Shot != 10; ++Shot) {
      D.Srv.requestReload();
      const size_t Q = (Round * 10 + Shot) % Base.size();
      WireLookup Got;
      ASSERT_TRUE(C.lookup(Base[Q], Got, &Error)) << Error;
      ASSERT_TRUE(Got.Present) << "round " << Round << " shot " << Shot;
      EXPECT_EQ(Got.Hash, Truth[Q].Hash);
      EXPECT_EQ(Got.CanonicalBytes, Truth[Q].CanonicalBytes);
    }
  }
  ASSERT_TRUE(eventually(5000, [&] { return numSegments() == 1; }))
      << "compactor never finished: " << Compactor.lastError();
  Compactor.stop();
  EXPECT_GE(Compactor.compactions(), 12u) << Compactor.lastError();

  // Settle: any racy rejection must have healed (automatic retry), and
  // a final reload of the fully-compacted directory must succeed.
  EXPECT_TRUE(eventually(5000, [&] { return !D.Srv.degraded(); }))
      << "daemon stuck degraded: " << D.Srv.lastReloadError();
  Reply Final;
  ASSERT_TRUE(C.reload(Dir, Final, &Error)) << Error;
  EXPECT_TRUE(Final.ok()) << statusName(Final.S) << ": " << Final.Body;
  EXPECT_FALSE(D.Srv.degraded());
  for (size_t I = 0; I != Base.size(); ++I) {
    WireLookup Got;
    ASSERT_TRUE(C.lookup(Base[I], Got, &Error)) << Error;
    ASSERT_TRUE(Got.Present);
    EXPECT_EQ(Got.Hash, Truth[I].Hash);
    EXPECT_EQ(Got.CanonicalBytes, Truth[I].CanonicalBytes);
  }

  removeDirTree(Dir);
}

//===----------------------------------------------------------------------===//
// Layer 5: the byte read path's canonicalization fallback, on every backend
//===----------------------------------------------------------------------===//

TEST(ByteReadPath, MixedBlobsAnswerIdenticallyOnEveryBackendAndTheWire) {
  // A corpus of three kinds of query blob: proven (alpha-renamed
  // members, fresh terms), non-proven (shadowed binders, a binder name
  // used free, repeated name-table spellings) and malformed. The byte
  // read path proves the first kind and canonicalizes the second; every
  // backend and the wire must answer each query byte-identically to the
  // reference model built from the decoder alone, with malformed blobs as
  // misses, and so must every backend's Expr adapter. Every backend's
  // batch also reports ReadBatchStats on the one batch read path.
  ExprContext Ctx;
  Rng R(2026);
  std::vector<std::string> Base, Delta;
  for (int I = 0; I != 40; ++I)
    Base.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 20)));
  for (int I = 0; I != 20; ++I) {
    const Expr *E = genShadowHeavy(Ctx, R, 12, 3);
    (I % 2 ? Base : Delta).push_back(serializeExpr(Ctx, E));
  }
  for (int I = 0; I != 10; ++I)
    Delta.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 20)));
  // Tiny members, so the repeated-spelling queries below hit: their
  // canonical copies are short enough for the small-string buffer.
  for (const char *Src : {"(lam (x) x)", "(lam (p q) q)", "(f f)"})
    Base.push_back(serializeExpr(Ctx, parseT(Ctx, Src)));
  // Shadowed members: an outer binder the inner one hides.
  auto Shadowed = [&](const Expr *E) {
    return Ctx.lam(Ctx.name("s"), Ctx.lam(Ctx.name("s"), E));
  };
  for (size_t I = 0; I != 10; ++I) {
    DeserializeResult D = deserializeExpr(Ctx, Base[I]);
    ASSERT_TRUE(D.ok());
    Delta.push_back(serializeExpr(Ctx, Shadowed(D.E)));
  }
  std::vector<std::string> All = Base;
  All.insert(All.end(), Delta.begin(), Delta.end());

  std::vector<std::string> Queries;
  for (const std::string &B : All) {
    DeserializeResult D = deserializeExpr(Ctx, B);
    ASSERT_TRUE(D.ok());
    const Expr *E = alphaRename(Ctx, R, D.E);
    Queries.push_back(serializeExpr(Ctx, E));
    Queries.push_back(serializeExpr(Ctx, Shadowed(E)));
    // A binder name that also occurs free.
    Queries.push_back(serializeExpr(
        Ctx, Ctx.app(Ctx.lam(Ctx.name("u"), E), Ctx.var(Ctx.name("u")))));
  }
  // Repeated spellings: (lam (a) a), (lam (a) (lam (a) a)) and (f f)
  // with two table entries for one spelling.
  Queries.push_back(handBlob({"a", "a"}, {TagLam, 0, TagVar, 1}));
  Queries.push_back(handBlob({"a", "a"}, {TagLam, 0, TagLam, 1, TagVar, 0}));
  Queries.push_back(handBlob({"f", "f"}, {TagApp, TagVar, 0, TagVar, 1}));
  for (int I = 0; I != 10; ++I)
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 20)));
  // Malformed.
  Queries.push_back(Base.front().substr(0, Base.front().size() - 1));
  Queries.push_back(Base.front() + '\0');
  Queries.push_back(handBlob({"x"}, {TagLam, 0, TagVar, 1}));
  Queries.push_back("HMA1");
  Queries.emplace_back();
  // The largest term first (a proven miss), so a batch worker's first
  // chunk warms its hasher for every later query.
  {
    Rng Big(77);
    Queries.insert(Queries.begin(),
                   serializeExpr(Ctx, genBalanced(Ctx, Big, 400)));
  }

  // The reference: the model of a one-thread ingest of the corpus.
  using Answers = std::vector<std::optional<LookupResult<Hash128>>>;
  ReferenceIndex<Hash128> Reference;
  for (const std::string &B : All)
    ASSERT_TRUE(Reference.insert(B));
  Answers Expect;
  for (const std::string &Q : Queries)
    Expect.push_back(Reference.lookup(Q));
  // A backend's Expr adapter, per decodable query.
  auto ExprPath = [&](const IndexReader<Hash128> &Index) {
    Answers Out;
    for (const std::string &Q : Queries) {
      ExprContext QCtx;
      DeserializeResult D = deserializeExpr(QCtx, Q);
      Out.push_back(D.ok() ? Index.lookup(QCtx, D.E) : std::nullopt);
    }
    return Out;
  };
  AlphaHashIndex<> Live({8, HashSchema::DefaultSeed});
  Live.insertBatch(All, 1);
  expectSameLookupAnswers(ExprPath(Live), Expect, "live expr");
  size_t NonProven = 0, NonProvenHits = 0, Malformed = 0, Hits = 0;
  for (size_t I = 0; I != Queries.size(); ++I) {
    ExprContext QCtx;
    DeserializeResult D = deserializeExpr(QCtx, Queries[I]);
    Malformed += !D.ok();
    Hits += Expect[I].has_value();
    if (D.ok() && !D.DistinctBinders) {
      ++NonProven;
      NonProvenHits += Expect[I].has_value();
    }
  }
  EXPECT_EQ(Malformed, 5u);
  EXPECT_FALSE(Expect.front().has_value());
  EXPECT_GE(Hits, All.size());
  EXPECT_GE(NonProvenHits, 13u);
  EXPECT_GE(NonProven, All.size() + 3);

  const auto Canonicalized = [] {
    const obs::Snapshot S = obs::Registry::global().snapshot();
    const obs::CounterRow *C = S.counter("hma_query_canonicalized_total");
    return C ? C->Value : 0;
  };
  // One batch path for every backend: answers as expected, hits counted
  // from them, and no pool allocation past a worker's first chunk (on
  // one worker, whose first chunk holds the largest term).
  auto ExpectBatch = [&](const IndexReader<Hash128> &Index,
                         const Answers &Want, const std::string &What) {
    for (unsigned Threads : {1u, 3u}) {
      const std::string Tag = What + " batch, threads=" +
                              std::to_string(Threads);
      IndexReader<Hash128>::ReadBatchStats BS;
      const Answers Got = Index.lookupBatch(Queries, Threads, &BS);
      expectSameLookupAnswers(Got, Want, Tag);
      uint64_t GotHits = 0;
      for (const auto &A : Got)
        GotHits += A.has_value();
      EXPECT_EQ(BS.Hits, GotHits) << Tag;
      if (Threads == 1) {
        // The largest term's maps do reach the pool, so a steady count
        // of 0 means the warm-up covered every later query.
        EXPECT_GT(BS.PoolNodesAllocated, 0u) << Tag;
        EXPECT_EQ(BS.SteadyPoolNodesAllocated, 0u) << Tag;
      }
    }
  };
  const uint64_t Before = Canonicalized();
  ExpectBatch(Live, Expect, "live");
  if (obs::Enabled) {
    EXPECT_EQ(Canonicalized() - Before, 2 * NonProven); // two batches
  }
  for (size_t I = 0; I != Queries.size(); ++I) {
    std::vector<std::optional<LookupResult<Hash128>>> One = {
        Live.lookupSerialized(Queries[I])};
    expectSameLookupAnswers(One, {Expect[I]},
                            "live single " + std::to_string(I));
  }

  // Mapped: one HMAI file of the same corpus, ingested the same way, so
  // even the representatives' bytes match the live index.
  const std::string Path = "indexd_test_fallback.hmai";
  writeIndexFileFor(All, Path, 8);
  auto Mapped = MappedIndex<Hash128>::open(Path);
  ASSERT_TRUE(Mapped.ok()) << Mapped.Error;
  expectSameLookupAnswers(ExprPath(*Mapped.Reader), Expect, "mapped expr");
  ExpectBatch(*Mapped.Reader, Expect, "mapped");

  // Segmented: the base and the delta as two segments.
  const std::string Dir = "indexd_test_fallback.segidx";
  removeDirTree(Dir);
  {
    AlphaHashIndex<> BaseIdx({8, HashSchema::DefaultSeed});
    BaseIdx.insertBatch(Base, 1);
    ASSERT_TRUE(createSegmentDir(Dir, BaseIdx).Ok);
    SegmentAppendOptions AOpts;
    AOpts.Shards = 4;
    ASSERT_TRUE(appendSegment<Hash128>(Dir, Delta, AOpts).Ok);
  }
  // Each blob is canonicalized on its own, so the delta's
  // representatives are the ones a single ingest of the corpus keeps.
  auto Seg = SegmentedIndex<Hash128>::open(Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  ASSERT_EQ(Seg.Reader->set().numSegments(), 2u);
  expectSameLookupAnswers(ExprPath(*Seg.Reader), Expect, "segmented expr");
  ExpectBatch(*Seg.Reader, Expect, "segmented");

  // Over the wire, from both the file and the directory.
  for (const std::string &Served : {Path, Dir}) {
    const std::string Sock = "indexd_test_fallback.sock";
    DaemonGuard D(testOpts(Served, Sock));
    ASSERT_TRUE(D.Started);
    Client C(testClientOpts(Sock));
    std::string Error;
    std::vector<WireLookup> Got;
    ASSERT_TRUE(C.lookupBatch(Queries, Got, &Error)) << Error;
    ASSERT_EQ(Got.size(), Expect.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      WireLookup One;
      ASSERT_TRUE(C.lookup(Queries[I], One, &Error)) << Error;
      for (const WireLookup &W : {Got[I], One}) {
        ASSERT_EQ(W.Present, Expect[I].has_value()) << Served << " query " << I;
        if (!W.Present)
          continue;
        EXPECT_EQ(W.Hash, Expect[I]->Hash) << Served << " query " << I;
        EXPECT_EQ(W.Count, Expect[I]->Count) << Served << " query " << I;
        EXPECT_EQ(W.CanonicalBytes, std::string(Expect[I]->CanonicalBytes))
            << Served << " query " << I;
      }
    }
  }
  std::remove(Path.c_str());
  removeDirTree(Dir);
}

#endif // sockets
