//===- tools/hma.cpp - Command-line driver ------------------------------------===//
///
/// \file
/// A small command-line front end over the library:
///
///   hma hash    [file]                  root + per-subexpression hashes
///   hma classes [file]                  repeated alpha-equivalence classes
///   hma cse     [file]                  rewrite and print
///   hma eval    [file]                  run the reference evaluator
///   hma debruijn [file]                 de Bruijn rendering (Section 2.4)
///   hma gen --family balanced|unbalanced|arith --size N [--seed S]
///           [--count K]                 K expressions, one per line
///   hma bench-expr [file]               hash with all four algorithms
///   hma index build <corpus> [--threads T] [--shards S] [--out FILE]
///   hma index query <corpus> [--expr E | --expr-file F | --batch FILE]
///   hma index stats <corpus> [--threads T] [--shards S]
///   hma index open <path> [stats | query ...] [--out FILE [--shards S]]
///   hma index update <dir> <corpus> [--threads T] [--shards S]
///   hma index compact <dir>
///   hma index gc <dir> [--min-age-seconds N]
///   hma index fsck <path> [--repair]
///
/// Expressions are read from the file argument or stdin. A corpus is
/// either a text file with one expression per line or a binary "HMAC"
/// container. `index build --out` writes a binary "HMAI" *index* file
/// (classes + counts + stats); `index open` serves queries from it, or
/// from a segment directory, without re-ingesting anything, over the
/// zero-copy mmap'd readers (`openIndex`: tables verified up front). A
/// single file is a read-only build output; an index that grows is a
/// segment directory (`index build --segmented`), which `index update`
/// appends to and `index compact` merges. Exit status is non-zero on parse/usage
/// errors, with a byte-offset diagnostic.
///
//===----------------------------------------------------------------------===//

#include "ast/DeBruijn.h"
#include "ast/Evaluator.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "ast/Uniquify.h"
#include "baselines/DeBruijnHasher.h"
#include "baselines/LocallyNamelessHasher.h"
#include "baselines/StructuralHasher.h"
#include "core/AlphaHasher.h"
#include "ast/Serialize.h"
#include "cse/CSE.h"
#include "eqclass/EquivClasses.h"
#include "gen/RandomExpr.h"
#include "index/AlphaHashIndex.h"
#include "index/CorpusIO.h"
#include "index/Fsck.h"
#include "index/IndexIO.h"
#include "index/IndexReader.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentManifest.h"
#include "index/SegmentSet.h"
#include "index/StatsReport.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <csignal>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

using namespace hma;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hma <command> [file]\n"
      "  hash       print the alpha-hash of the expression and of every\n"
      "             repeated subexpression\n"
      "  classes    print all alpha-equivalence classes with >= 2 members\n"
      "  cse        eliminate common subexpressions and print the result\n"
      "  eval       evaluate (builtins: add sub mul div neg min max)\n"
      "  debruijn   print the de Bruijn rendering\n"
      "  gen        --family balanced|unbalanced|arith --size N [--seed S]\n"
      "             [--count K] (K expressions, one per line)\n"
      "  bench-expr time all four hashing algorithms on the input\n"
      "  index build <corpus> [--threads T] [--shards S] [--out FILE]\n"
      "             [--segmented]\n"
      "             intern a corpus modulo alpha; --out persists the\n"
      "             index (classes+counts+stats) as a binary HMAI file.\n"
      "             --segmented makes --out a *directory* (MANIFEST +\n"
      "             HMAI segment files) whose updates append in\n"
      "             O(delta) instead of rewriting the index\n"
      "  index query <corpus> [--expr E | --expr-file F | --batch FILE]\n"
      "             build, then look expressions up (default: stdin).\n"
      "             --batch FILE bulk-queries a whole corpus of\n"
      "             expressions on --threads shared-lock readers\n"
      "  index stats <corpus> [--threads T] [--shards S] [--json | --prom]\n"
      "             build, then print schema/collision/shard diagnostics\n"
      "             (--json: machine-readable report incl. per-shard\n"
      "             totals and obs metrics; --prom: Prometheus text\n"
      "             exposition; both also work after `index open <file>\n"
      "             stats`)\n"
      "  index open <path> [stats | query [--expr E | --expr-file F |\n"
      "             --batch FILE]] [--out FILE [--shards S]]\n"
      "             reopen an HMAI file or segment directory (no\n"
      "             re-ingest), deep-verify it, and print its summary,\n"
      "             full stats, or serve queries from it over the\n"
      "             zero-copy mmap'd reader. --out rebuilds a verified\n"
      "             single file at FILE first (--shards re-stripes it)\n"
      "  index update <dir> <corpus> [--threads T] [--shards S]\n"
      "             [--json] [--auto-compact N] [--crash-after-segment]\n"
      "             append the corpus to a segment directory as one new\n"
      "             segment -- O(delta), existing segments untouched;\n"
      "             striped like the newest segment unless --shards is\n"
      "             given. A single HMAI file is read-only: rebuild it\n"
      "             with `index build`, or grow a `build --segmented`\n"
      "             directory instead.\n"
      "             --auto-compact N compacts when the directory reaches\n"
      "             N segments; --json emits a machine summary on\n"
      "             stdout (narrative goes to stderr);\n"
      "             --crash-after-segment stops after the segment write,\n"
      "             before the manifest swap (torn-append simulation,\n"
      "             exit 3)\n"
      "  index compact <dir>\n"
      "             merge every segment of a segmented index into one\n"
      "             and swap the manifest atomically; old readers keep\n"
      "             serving their generation\n"
      "  index gc <dir> [--min-age-seconds N]\n"
      "             delete segment files the manifest does not reference\n"
      "             and stale *.tmp files (leftovers of a crash between\n"
      "             segment write and manifest swap). Files younger than\n"
      "             --min-age-seconds (default 60) are left alone -- they\n"
      "             may be a concurrent append's in-flight segment; 0\n"
      "             disables the guard (offline maintenance only)\n"
      "  index fsck <path> [--repair]\n"
      "             check a single-file or segmented index: manifest\n"
      "             checksum, every referenced segment (full record +\n"
      "             sidecar validation), debris vs damage. --repair\n"
      "             deletes *debris only* (stale tmp files, unreferenced\n"
      "             segments); damage is reported, never deleted. Exit 0\n"
      "             healthy (or fully repaired), 1 repairable debris\n"
      "             remains, 2 committed state damaged\n"
      "  indexd <file> --socket PATH [--port N] [--threads T]\n"
      "             [--request-timeout-ms N] [--idle-timeout-ms N]\n"
      "             [--drain-timeout-ms N] [--max-frame-bytes N]\n"
      "             [--reload-retry-base-ms N] [--reload-retry-max-ms N]\n"
      "             [--reload-retry-limit N]\n"
      "             serve an HMAI file or segment directory over a\n"
      "             Unix-domain socket (and optional loopback TCP port)\n"
      "             until SIGTERM; only a stale socket at PATH is\n"
      "             replaced. The index and every SIGHUP or\n"
      "             `index ctl reload` pass the deep-verify admission\n"
      "             gate before they serve; a rejected file\n"
      "             keeps the old generation serving (degraded mode,\n"
      "             `hma_indexd_degraded` = 1) while the daemon retries\n"
      "             the candidate with jittered exponential backoff\n"
      "             (--reload-retry-* tune it; limit 0 disables).\n"
      "             Wire protocol: tools/README.md\n"
      "  index query --connect SOCK [--expr E | --expr-file F |\n"
      "             --batch FILE] [--timeout-ms N] [--retries N]\n"
      "             run queries against a live `hma indexd` instead of\n"
      "             a local file\n"
      "  index ctl <ping|stats|reload|shutdown> [file] --connect SOCK\n"
      "             control a live daemon (reload: re-admit [file] or\n"
      "             the currently served file; stats honors --json/\n"
      "             --prom)\n"
      "  index chaos --connect SOCK [--script M1,M2,...]\n"
      "             [--server-timeout-ms N]\n"
      "             hostile-client fault injection against a live\n"
      "             daemon (torn, slowloris, oversized, short, garbage,\n"
      "             badversion, badop, hangup, flood; default: all).\n"
      "             Exit 0 iff the daemon survived every offence\n"
      "  prom-lint  [file]\n"
      "             validate Prometheus text exposition format (reads\n"
      "             stdin without a file; used by CI on --prom output)\n"
      "Every `index` subcommand also accepts --trace-out FILE: collect\n"
      "Chrome trace_event JSON (chrome://tracing, Perfetto) over the\n"
      "whole command -- batch chunk spans, save/open/verify phases.\n"
      "Expressions are read from [file] or stdin. A corpus is one\n"
      "expression per line, or a binary HMAC container.\n");
  return 2;
}

/// Parse \p Arg, the value of \p Flag, as a whole unsigned decimal in
/// [\p Min, \p Max]. Text that is not entirely digits (`abc`, `4x`,
/// `-1`, empty) is an error, never a silent 0 or numeric prefix: a
/// misread `--min-age-seconds` would disable gc's in-flight guard.
/// Prints the flag's error and returns false when \p Arg does not parse.
template <typename T>
bool parseUnsigned(const char *Flag, const char *Arg, uint64_t Min,
                   uint64_t Max, T &Out) {
  errno = 0;
  char *End = nullptr;
  const unsigned long long V = std::strtoull(Arg, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Arg[0])) || *End != '\0' ||
      errno == ERANGE || V < Min || V > Max) {
    std::fprintf(stderr, "error: %s must be an integer in [%llu, %llu]\n",
                 Flag, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
    return false;
  }
  Out = static_cast<T>(V);
  return true;
}

bool readInput(const char *Path, std::string &Out) {
  if (Path) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path);
      return false;
    }
    try {
      Out.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
    } catch (const std::ios_base::failure &E) {
      // A directory opens but does not read (EISDIR): report it like any
      // other unreadable input instead of terminating.
      std::fprintf(stderr, "error: cannot read '%s': %s\n", Path,
                   E.code().message().c_str());
      return false;
    }
    return true;
  }
  std::ostringstream Buf;
  Buf << std::cin.rdbuf();
  Out = Buf.str();
  return true;
}

const Expr *parseInput(ExprContext &Ctx, const std::string &Src) {
  ParseResult R = parseExpr(Ctx, Src);
  if (!R.ok()) {
    std::fprintf(stderr, "parse error at byte %zu: %s\n", R.ErrorPos,
                 R.Error.c_str());
    return nullptr;
  }
  return R.E;
}

int cmdHash(ExprContext &Ctx, const Expr *E) {
  E = uniquifyBinders(Ctx, E);
  AlphaHasher<Hash128> Hasher(Ctx);
  std::vector<Hash128> Hashes = Hasher.hashAll(E);
  std::printf("%s  %s\n", Hashes[E->id()].toHex().c_str(),
              printExpr(Ctx, E).c_str());
  for (ClassView Class : groupSubexpressionsByHash(E, Hashes)) {
    if (Class.size() < 2 || Class.front() == E)
      continue;
    std::printf("%s  %zux  %s\n",
                Hashes[Class.front()->id()].toHex().c_str(), Class.size(),
                printExpr(Ctx, Class.front()).c_str());
  }
  return 0;
}

int cmdClasses(ExprContext &Ctx, const Expr *E) {
  E = uniquifyBinders(Ctx, E);
  AlphaHasher<Hash128> Hasher(Ctx);
  std::vector<Hash128> Hashes = Hasher.hashAll(E);
  EquivClassList Classes = groupSubexpressionsByHash(E, Hashes);
  PartitionStats Stats = partitionStats(Classes);
  std::printf("%zu subexpressions, %zu classes, %zu repeated\n",
              Stats.NumSubexpressions, Stats.NumClasses,
              Stats.NumRepeatedClasses);
  for (ClassView Class : Classes) {
    if (Class.size() < 2)
      continue;
    std::printf("  %zux  %s\n", Class.size(),
                printExpr(Ctx, Class.front()).c_str());
  }
  return 0;
}

int cmdCse(ExprContext &Ctx, const Expr *E) {
  CSEResult R = eliminateCommonSubexpressions(Ctx, E);
  std::printf("%s\n", printExpr(Ctx, R.Root).c_str());
  std::fprintf(stderr, "; %u -> %u nodes, %u lets, %u occurrences, %u "
                       "rounds\n",
               R.SizeBefore, R.SizeAfter, R.LetsInserted,
               R.OccurrencesReplaced, R.Rounds);
  return 0;
}

int cmdEval(ExprContext &Ctx, const Expr *E) {
  EvalResult R = evaluate(Ctx, E);
  switch (R.S) {
  case EvalResult::Status::Int:
    std::printf("%lld\n", static_cast<long long>(R.Int));
    return 0;
  case EvalResult::Status::Closure:
    std::printf("<closure>\n");
    return 0;
  case EvalResult::Status::Error:
    std::fprintf(stderr, "evaluation error: %s\n", R.Message.c_str());
    return 1;
  }
  return 1;
}

int cmdDeBruijn(ExprContext &Ctx, const Expr *E) {
  std::printf("%s\n", toDeBruijnString(Ctx, E).c_str());
  return 0;
}

int cmdGen(ExprContext &, int Argc, char **Argv) {
  const char *Family = "balanced";
  uint32_t Size = 100;
  uint64_t Seed = 0;
  uint64_t Count = 1;
  for (int I = 2; I < Argc; ++I) {
    auto Want = [&](const char *Flag) {
      return std::strcmp(Argv[I], Flag) == 0 && I + 1 < Argc;
    };
    if (Want("--family"))
      Family = Argv[++I];
    else if (Want("--size")) {
      if (!parseUnsigned("--size", Argv[++I], 0, UINT32_MAX, Size))
        return 2;
    } else if (Want("--seed")) {
      if (!parseUnsigned("--seed", Argv[++I], 0, UINT64_MAX, Seed))
        return 2;
    } else if (Want("--count")) {
      if (!parseUnsigned("--count", Argv[++I], 1, INT64_MAX, Count))
        return 2;
    } else
      return usage();
  }
  Rng R(Seed);
  for (uint64_t K = 0; K != Count; ++K) {
    // Fresh context per expression: `--count` corpora can be large, and
    // one line never needs another line's names or ids.
    ExprContext Ctx;
    const Expr *E = nullptr;
    if (std::strcmp(Family, "balanced") == 0)
      E = genBalanced(Ctx, R, Size);
    else if (std::strcmp(Family, "unbalanced") == 0)
      E = genUnbalanced(Ctx, R, Size);
    else if (std::strcmp(Family, "arith") == 0)
      E = genArithmetic(Ctx, R, Size);
    else
      return usage();
    std::printf("%s\n", printExpr(Ctx, E).c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// hma index build|query|stats
//===----------------------------------------------------------------------===//

struct IndexArgs {
  const char *Sub = nullptr;
  const char *Path = nullptr;       ///< Corpus (build/query/stats) or HMAI file.
  const char *CorpusPath = nullptr; ///< `update`'s second positional.
  const char *OpenSub = nullptr;    ///< `open`'s optional "stats" / "query".
  const char *OutPath = nullptr;
  const char *ExprText = nullptr;
  const char *ExprFile = nullptr;
  const char *BatchFile = nullptr;
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  unsigned Shards = 64;
  bool ShardsSet = false; ///< --shards given explicitly (open --out and
                          ///< update re-stripe only on request).
  bool Segmented = false; ///< --segmented: build a segment directory.
  unsigned AutoCompact = 0; ///< --auto-compact: compact at N segments.
  bool CrashAfterSegment = false; ///< --crash-after-segment: stop an
                                  ///< update at the crash window (CI's
                                  ///< torn-append simulation; exit 3).
  bool Repair = false;    ///< --repair: fsck deletes repairable debris.
  unsigned GcMinAge = 60; ///< --min-age-seconds: gc's in-flight guard.
  bool GcMinAgeSet = false; ///< --min-age-seconds given explicitly.
  bool Json = false;      ///< --json: machine-readable stats report.
  bool Prom = false;      ///< --prom: Prometheus text exposition.
  const char *TraceOut = nullptr; ///< --trace-out: Chrome trace JSON path.
  const char *Connect = nullptr;  ///< --connect: indexd Unix socket path.
  unsigned ConnectPort = 0;       ///< --port: indexd loopback TCP port.
  unsigned TimeoutMs = 10000;     ///< --timeout-ms: client op deadline.
  unsigned Retries = 5;           ///< --retries: client connect attempts.
  const char *ChaosScript = nullptr;   ///< --script: chaos mode list.
  unsigned ServerTimeoutMs = 2000;     ///< --server-timeout-ms: the
                                       ///< daemon's request deadline, so
                                       ///< chaos knows how long to wait.

  /// True when stdout must stay machine-readable (narrative summaries go
  /// to stderr instead).
  bool machineOutput() const { return Json || Prom; }
  std::FILE *narrate() const { return machineOutput() ? stderr : stdout; }
};

/// Parse `--threads/--shards/--out/--expr/--expr-file/--batch` starting
/// at Argv[\p First].
bool parseIndexFlags(int Argc, char **Argv, int First, IndexArgs &A) {
  auto Positive = [](const char *Flag, const char *Arg, uint64_t Max,
                     unsigned &Out) {
    return parseUnsigned(Flag, Arg, 1, Max, Out);
  };
  for (int I = First; I < Argc; ++I) {
    auto Want = [&](const char *Flag) {
      return std::strcmp(Argv[I], Flag) == 0 && I + 1 < Argc;
    };
    if (Want("--threads")) {
      if (!Positive("--threads", Argv[++I], 1024, A.Threads))
        return false;
    } else if (Want("--shards")) {
      if (!Positive("--shards", Argv[++I],
                    AlphaHashIndex<Hash128>::MaxShards, A.Shards))
        return false;
      A.ShardsSet = true;
    } else if (std::strcmp(Argv[I], "--segmented") == 0)
      A.Segmented = true;
    else if (Want("--auto-compact")) {
      if (!Positive("--auto-compact", Argv[++I], 1 << 20, A.AutoCompact))
        return false;
    } else if (std::strcmp(Argv[I], "--crash-after-segment") == 0)
      A.CrashAfterSegment = true;
    else if (std::strcmp(Argv[I], "--repair") == 0)
      A.Repair = true;
    else if (Want("--min-age-seconds")) {
      // 0 is meaningful here (disable the in-flight guard), so this
      // flag cannot go through Positive.
      if (!parseUnsigned("--min-age-seconds", Argv[++I], 0, 86400 * 365,
                         A.GcMinAge))
        return false;
      A.GcMinAgeSet = true;
    }
    else if (std::strcmp(Argv[I], "--json") == 0)
      A.Json = true;
    else if (std::strcmp(Argv[I], "--prom") == 0)
      A.Prom = true;
    else if (Want("--trace-out"))
      A.TraceOut = Argv[++I];
    else if (Want("--connect"))
      A.Connect = Argv[++I];
    else if (Want("--port")) {
      if (!Positive("--port", Argv[++I], 65535, A.ConnectPort))
        return false;
    } else if (Want("--timeout-ms")) {
      if (!Positive("--timeout-ms", Argv[++I], 3600000, A.TimeoutMs))
        return false;
    } else if (Want("--retries")) {
      if (!Positive("--retries", Argv[++I], 1000, A.Retries))
        return false;
    } else if (Want("--script"))
      A.ChaosScript = Argv[++I];
    else if (Want("--server-timeout-ms")) {
      if (!Positive("--server-timeout-ms", Argv[++I], 3600000,
                    A.ServerTimeoutMs))
        return false;
    } else if (Want("--out"))
      A.OutPath = Argv[++I];
    else if (Want("--expr"))
      A.ExprText = Argv[++I];
    else if (Want("--expr-file"))
      A.ExprFile = Argv[++I];
    else if (Want("--batch"))
      A.BatchFile = Argv[++I];
    else
      return false;
  }
  return true;
}

bool parseIndexArgs(int Argc, char **Argv, IndexArgs &A) {
  if (Argc < 3)
    return false;
  A.Sub = Argv[2];
  int First;
  if (std::strcmp(A.Sub, "chaos") == 0) {
    // `index chaos --connect S [--script M]`: flags only.
    First = 3;
  } else if (std::strcmp(A.Sub, "ctl") == 0) {
    // `index ctl <ping|stats|reload|shutdown> [file] --connect S`.
    if (Argc < 4 || Argv[3][0] == '-')
      return false;
    A.Path = Argv[3]; // The control action.
    First = 4;
    if (Argc >= 5 && Argv[4][0] != '-') {
      A.CorpusPath = Argv[4]; // reload's optional index-file argument.
      First = 5;
    }
  } else if (std::strcmp(A.Sub, "query") == 0 && Argc >= 4 &&
             Argv[3][0] == '-') {
    // `index query --connect S ...`: no corpus positional; the daemon
    // already holds the index.
    First = 3;
  } else {
    if (Argc < 4)
      return false;
    A.Path = Argv[3];
    First = 4;
    if (std::strcmp(A.Sub, "update") == 0) {
      if (Argc < 5)
        return false;
      A.CorpusPath = Argv[4];
      First = 5;
    } else if (std::strcmp(A.Sub, "open") == 0 && Argc >= 5 &&
               Argv[4][0] != '-') {
      A.OpenSub = Argv[4];
      First = 5;
    }
  }
  return parseIndexFlags(Argc, Argv, First, A);
}

/// Read a corpus file, refusing `HMAI` index files with a pointer to the
/// right subcommand (their magic makes the mistake cheap to diagnose).
bool readCorpus(const char *Path, CorpusLoadResult &Corpus) {
  std::string Bytes;
  if (!readInput(Path, Bytes))
    return false;
  if (isIndexFile(Bytes)) {
    std::fprintf(stderr,
                 "corpus error: '%s' is an HMAI index file, not a corpus; "
                 "use `hma index open`\n",
                 Path ? Path : "<stdin>");
    return false;
  }
  Corpus = loadCorpus(Bytes);
  if (!Corpus.ok()) {
    std::fprintf(stderr, "corpus error: %s\n", Corpus.Error.c_str());
    return false;
  }
  return true;
}

/// Load + ingest a corpus into a fresh index, printing the one-line
/// build summary.
bool buildIndex(const IndexArgs &A, AlphaHashIndex<Hash128> &Index) {
  CorpusLoadResult Corpus;
  if (!readCorpus(A.Path, Corpus))
    return false;
  auto Start = std::chrono::steady_clock::now();
  auto Batch = Index.insertBatch(Corpus.Blobs, A.Threads);
  auto End = std::chrono::steady_clock::now();
  double Sec = std::chrono::duration<double>(End - Start).count();

  IndexStats S = Index.stats();
  std::fprintf(A.narrate(),
               "%zu expressions -> %zu classes (%llu duplicates merged, "
               "%llu decode errors)\n",
               Corpus.Blobs.size(), Index.numClasses(),
               static_cast<unsigned long long>(S.Duplicates),
               static_cast<unsigned long long>(Batch.DecodeErrors));
  std::fprintf(A.narrate(),
               "ingest: %u threads, %u shards, %.3f s, %.0f exprs/sec\n",
               A.Threads, Index.numShards(), Sec,
               Sec > 0 ? static_cast<double>(Batch.Ingested) / Sec : 0.0);
  return true;
}

/// The compatibility surface of an index: two indexes (or files) can be
/// compared by hash iff both lines match.
void printSchema(const IndexReader<Hash128> &Index) {
  std::printf("schema seed:         0x%016llx\n",
              static_cast<unsigned long long>(Index.schema().seed()));
  std::printf("hash bits:           %u\n", HashWidth<Hash128>::Bits);
}

bool writeOutIndex(const IndexArgs &A, const AlphaHashIndex<Hash128> &Index,
                   const char *Path) {
  std::string Error;
  const uint64_t Bytes = saveIndexFile(Index, Path, &Error);
  if (Bytes == 0) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  std::fprintf(A.narrate(), "wrote index: %zu classes (%llu bytes) to %s\n",
               Index.numClasses(), static_cast<unsigned long long>(Bytes),
               Path);
  return true;
}

int cmdIndexBuild(const IndexArgs &A) {
  AlphaHashIndex<Hash128> Index({A.Shards, HashSchema::DefaultSeed});
  if (!buildIndex(A, Index))
    return 1;
  if (A.Segmented) {
    // `build --segmented --out DIR`: seed a segment directory instead of
    // a single HMAI file; `update` on it is O(delta) from then on.
    if (!A.OutPath) {
      std::fprintf(stderr, "error: --segmented requires --out DIR\n");
      return 2;
    }
    SegmentAppendResult R = createSegmentDir(A.OutPath, Index);
    if (!R.Ok) {
      std::fprintf(stderr, "error: %s\n", R.Error.c_str());
      return 1;
    }
    std::fprintf(A.narrate(),
                 "wrote segmented index: %llu classes to %s (segment %s)\n",
                 static_cast<unsigned long long>(R.ClassesAfter), A.OutPath,
                 R.SegmentName.c_str());
    return 0;
  }
  if (A.OutPath && !writeOutIndex(A, Index, A.OutPath))
    return 1;
  return 0;
}

/// `hma index query <corpus> --batch FILE`: bulk-lookup a whole corpus of
/// query expressions over the backend's thread-pooled read path.
int cmdIndexQueryBatch(const IndexArgs &A, IndexReader<Hash128> &Index) {
  CorpusLoadResult Queries;
  if (!readCorpus(A.BatchFile, Queries))
    return 1;

  auto Start = std::chrono::steady_clock::now();
  auto Results = Index.lookupBatch(Queries.Blobs, A.Threads);
  auto End = std::chrono::steady_clock::now();
  double Sec = std::chrono::duration<double>(End - Start).count();

  uint64_t Hits = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    if (Results[I]) {
      ++Hits;
      std::printf("%zu present count=%llu hash=%s\n", I,
                  static_cast<unsigned long long>(Results[I]->Count),
                  Results[I]->Hash.toHex().c_str());
    } else {
      std::printf("%zu absent\n", I);
    }
  }
  std::printf("batch query: %zu queries, %llu present, %u threads, "
              "%.3f s, %.0f queries/sec\n",
              Results.size(), static_cast<unsigned long long>(Hits),
              A.Threads, Sec,
              Sec > 0 ? static_cast<double>(Results.size()) / Sec : 0.0);
  return 0;
}

/// Look one expression (--expr / --expr-file / stdin) or a --batch corpus
/// up in an already-populated index (live or mapped). Shared by `query`
/// and `open query`.
int runQueries(const IndexArgs &A, IndexReader<Hash128> &Index) {
  if (A.BatchFile)
    return cmdIndexQueryBatch(A, Index);

  std::string QuerySrc;
  if (A.ExprText)
    QuerySrc = A.ExprText;
  else if (!readInput(A.ExprFile, QuerySrc)) // nullptr reads stdin
    return 1;

  ExprContext Ctx;
  const Expr *Q = parseInput(Ctx, QuerySrc);
  if (!Q)
    return 1;

  auto Hit = Index.lookup(Ctx, Q);
  if (!Hit) {
    std::printf("absent\n");
    return 1;
  }
  std::printf("present  count=%llu  hash=%s\n",
              static_cast<unsigned long long>(Hit->Count),
              Hit->Hash.toHex().c_str());
  ExprContext CanonCtx;
  DeserializeResult Canon = deserializeExpr(CanonCtx, Hit->CanonicalBytes);
  if (Canon.ok())
    std::printf("canonical: %s\n", printExpr(CanonCtx, Canon.E).c_str());
  return 0;
}

int cmdIndexQuery(const IndexArgs &A) {
  AlphaHashIndex<Hash128> Index({A.Shards, HashSchema::DefaultSeed});
  if (!buildIndex(A, Index))
    return 1;
  return runQueries(A, Index);
}

/// Schema, collision, shard-occupancy and largest-class diagnostics.
/// Shared by `stats` (freshly built) and `open stats` (reopened or
/// mapped).
void printStatsReport(const IndexReader<Hash128> &Index) {
  printSchema(Index);
  IndexStats S = Index.stats();
  std::printf("fallback checks:     %llu\n",
              static_cast<unsigned long long>(S.FallbackChecks));
  std::printf("verified collisions: %llu\n",
              static_cast<unsigned long long>(S.VerifiedCollisions));

  std::vector<size_t> Loads = Index.shardLoads();
  size_t Total = std::accumulate(Loads.begin(), Loads.end(), size_t(0));
  size_t Occupied = 0;
  size_t MaxLoad = 0;
  for (size_t L : Loads) {
    Occupied += L != 0;
    MaxLoad = std::max(MaxLoad, L);
  }
  std::printf("shards: %zu/%u occupied, mean %.1f classes, max %zu\n",
              Occupied, Index.numShards(),
              Loads.empty() ? 0.0
                            : static_cast<double>(Total) / Loads.size(),
              MaxLoad);
  std::printf("retained: %zu bytes of canonical blobs (%.1f per class)\n",
              Index.retainedBytes(),
              Index.numClasses()
                  ? static_cast<double>(Index.retainedBytes()) /
                        static_cast<double>(Index.numClasses())
                  : 0.0);

  // Top-5 selection through the interface: copies only the winners'
  // blobs, so the mapped backend never materializes its bytes region.
  auto Largest = Index.largestClasses(5);
  if (!Largest.empty() && Largest.front().Count > 1)
    std::printf("largest classes:\n");
  for (const auto &C : Largest) {
    if (C.Count < 2)
      break;
    ExprContext Ctx;
    DeserializeResult R = deserializeExpr(Ctx, C.CanonicalBytes);
    std::printf("  %llux  %s\n", static_cast<unsigned long long>(C.Count),
                R.ok() ? printExpr(Ctx, R.E).c_str() : "<undecodable>");
  }
}

//===----------------------------------------------------------------------===//
// Machine-readable stats: --json and --prom
//===----------------------------------------------------------------------===//

/// Stats in whichever format the flags chose. The --json/--prom bodies
/// live in index/StatsReport.{h,cpp} so `hma indexd` serves the exact
/// same reports over its Stats wire op.
void emitStatsReport(const IndexArgs &A, const IndexReader<Hash128> &Index) {
  if (A.Json) {
    std::string J = renderIndexStatsJson(Index);
    std::fwrite(J.data(), 1, J.size(), stdout);
  } else if (A.Prom) {
    std::string Text = renderIndexStatsProm(Index);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
  } else {
    printStatsReport(Index);
  }
}

int cmdIndexStats(const IndexArgs &A) {
  AlphaHashIndex<Hash128> Index({A.Shards, HashSchema::DefaultSeed});
  if (!buildIndex(A, Index))
    return 1;
  emitStatsReport(A, Index);
  return 0;
}

/// Admit \p A.Path through \ref openIndex (open + deep verify), printing
/// the one-line open summary and a warning per orphan segment file.
std::unique_ptr<IndexReader<Hash128>> openVerifiedIndex(const IndexArgs &A) {
  auto Start = std::chrono::steady_clock::now();
  OpenedIndex<Hash128> R = openIndex<Hash128>(A.Path);
  if (!R.ok()) {
    std::fprintf(stderr, "index error: %s (byte %zu)\n", R.Error.c_str(),
                 R.ErrorPos);
    return nullptr;
  }
  auto End = std::chrono::steady_clock::now();
  std::fprintf(A.narrate(),
               "opened %s (%s): %zu classes, %llu members, %u shards, "
               "%.6f s (zero-copy, tables verified)\n",
               A.Path, R.Reader->backendName(), R.Reader->numClasses(),
               static_cast<unsigned long long>(R.Reader->stats().Inserted),
               R.Reader->numShards(),
               std::chrono::duration<double>(End - Start).count());
  for (const std::string &Orphan : R.Orphans)
    std::fprintf(stderr,
                 "warning: unreferenced segment file '%s' (crash "
                 "leftover; `hma index gc %s` removes it)\n",
                 Orphan.c_str(), A.Path);
  return std::move(R.Reader);
}

/// Rebuild a live index from a verified reader, re-striped over
/// `--shards` if given explicitly (placement is a pure function of the
/// hash, so that is always safe): how `open --out` re-saves a file.
std::unique_ptr<AlphaHashIndex<Hash128>>
restoreIndex(const IndexArgs &A, const IndexReader<Hash128> &Reader) {
  return AlphaHashIndex<Hash128>::restore(
      {A.ShardsSet ? A.Shards : Reader.numShards(), Reader.schema().seed()},
      Reader.snapshot(), Reader.stats());
}

int cmdIndexOpen(const IndexArgs &A) {
  bool IsQuery = A.OpenSub && std::strcmp(A.OpenSub, "query") == 0;
  bool IsStats = A.OpenSub && std::strcmp(A.OpenSub, "stats") == 0;
  if (A.OpenSub && !IsQuery && !IsStats)
    return usage(); // reject a bogus subcommand before loading anything
  if ((A.ExprText || A.ExprFile || A.BatchFile) && !IsQuery) {
    // `open F --batch Q` (without the `query` word) must not silently
    // succeed while ignoring the flags.
    std::fprintf(stderr,
                 "error: --expr/--expr-file/--batch require `index open "
                 "<file> query ...`\n");
    return 2;
  }
  if (A.ShardsSet && !A.OutPath) {
    // A served file keeps its own striping; re-striping only means
    // something for the file --out writes.
    std::fprintf(stderr, "error: --shards re-stripes the file written by "
                         "--out; give --out FILE\n");
    return 2;
  }
  auto Serve = [&](IndexReader<Hash128> &Index) {
    if (IsStats)
      emitStatsReport(A, Index);
    else if (IsQuery)
      return runQueries(A, Index);
    else
      printSchema(Index);
    return 0;
  };
  // Re-saving is a single-file operation (compact first to get one).
  if (A.OutPath && isSegmentDir(A.Path)) {
    std::fprintf(stderr,
                 "error: --shards/--out do not apply to a segmented "
                 "index; `hma index compact %s` first\n",
                 A.Path);
    return 2;
  }
  auto Index = openVerifiedIndex(A);
  if (!Index)
    return 1;
  // `open F --shards 8 --out G` is the re-shard tool: rebuild from the
  // verified reader and persist, then serve F as usual.
  if (A.OutPath && !writeOutIndex(A, *restoreIndex(A, *Index), A.OutPath))
    return 1;
  return Serve(*Index);
}

/// `update --json`'s machine summary: one JSON object on stdout (all
/// narrative goes to stderr), so scripted pipelines can parse the
/// outcome without scraping prose.
void emitUpdateJson(const SegmentAppendResult &R) {
  std::printf("{\"classes_before\":%llu,\"classes_after\":%llu,"
              "\"mode\":\"segmented\",\"segment\":\"%s\","
              "\"delta_classes\":%llu,\"fresh\":%llu}\n",
              static_cast<unsigned long long>(R.ClassesBefore),
              static_cast<unsigned long long>(R.ClassesAfter),
              R.SegmentName.c_str(),
              static_cast<unsigned long long>(R.DeltaClasses),
              static_cast<unsigned long long>(R.Fresh));
}

/// `update` appends to a segment directory: O(delta), never a rewrite.
/// A single HMAI file is a read-only build output and is refused.
int cmdIndexUpdate(const IndexArgs &A) {
  if (!isSegmentDir(A.Path)) {
    std::fprintf(stderr,
                 "error: '%s' is not a segment directory; a single HMAI "
                 "file is read-only (rebuild it with `hma index build`, or "
                 "create a growable index with `hma index build <corpus> "
                 "--segmented --out DIR`)\n",
                 A.Path);
    return 2;
  }
  CorpusLoadResult Corpus;
  if (!readCorpus(A.CorpusPath, Corpus))
    return 1;
  SegmentAppendOptions Opts;
  Opts.Threads = A.Threads;
  Opts.Shards = A.ShardsSet ? A.Shards : 0; // 0: the newest segment's
  Opts.AbortAfterSegmentWrite = A.CrashAfterSegment;
  auto Start = std::chrono::steady_clock::now();
  SegmentAppendResult R = appendSegment<Hash128>(A.Path, Corpus.Blobs, Opts);
  auto End = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  if (R.Aborted) {
    // The deliberate torn-append state: segment written, manifest not
    // swapped. Distinct exit status so CI can assert this path ran.
    std::fprintf(stderr, "update aborted at crash window: segment %s "
                         "written, manifest not swapped\n",
                 R.SegmentName.c_str());
    return 3;
  }
  std::fprintf(A.narrate(),
               "update: %llu -> %llu classes (segment %s: %llu classes, "
               "%llu fresh, %.3f s)\n",
               static_cast<unsigned long long>(R.ClassesBefore),
               static_cast<unsigned long long>(R.ClassesAfter),
               R.SegmentName.c_str(),
               static_cast<unsigned long long>(R.DeltaClasses),
               static_cast<unsigned long long>(R.Fresh),
               std::chrono::duration<double>(End - Start).count());
  if (A.AutoCompact) {
    typename SegmentSet<Hash128>::OpenResult Set =
        SegmentSet<Hash128>::open(A.Path);
    if (Set.ok() && Set.Set->numSegments() >= A.AutoCompact) {
      SegmentCompactResult C = compactSegments<Hash128>(A.Path);
      if (!C.Ok) {
        std::fprintf(stderr, "error: %s\n", C.Error.c_str());
        return 1;
      }
      std::fprintf(A.narrate(), "compacted: %llu segments -> 1\n",
                   static_cast<unsigned long long>(C.SegmentsBefore));
    }
  }
  if (A.Json)
    emitUpdateJson(R);
  return 0;
}

/// `hma index compact <dir>`: merge every segment into one.
int cmdIndexCompact(const IndexArgs &A) {
  auto Start = std::chrono::steady_clock::now();
  SegmentCompactResult R = compactSegments<Hash128>(A.Path);
  auto End = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  std::fprintf(A.narrate(),
               "compacted %s: %llu segments -> %llu (%llu classes, %.3f s)\n",
               A.Path, static_cast<unsigned long long>(R.SegmentsBefore),
               static_cast<unsigned long long>(R.SegmentsAfter),
               static_cast<unsigned long long>(R.Classes),
               std::chrono::duration<double>(End - Start).count());
  return 0;
}

/// `hma index gc <dir>`: delete segment files the manifest does not
/// reference (crash-window leftovers).
int cmdIndexGc(const IndexArgs &A) {
  std::string Error;
  GcOptions Opts;
  Opts.MinAgeSeconds = A.GcMinAge;
  std::vector<std::string> Removed = gcSegmentDir(A.Path, &Error, Opts);
  if (!Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  for (const std::string &Name : Removed)
    std::printf("removed %s\n", Name.c_str());
  std::fprintf(A.narrate(), "gc: %zu orphan segment(s) removed\n",
               Removed.size());
  return 0;
}

/// `hma index fsck <path> [--repair]`: validate the committed state and
/// classify crash debris. Exit 0 when the index is healthy (or --repair
/// removed all debris), 1 when repairable debris remains, 2 when the
/// committed state itself is damaged.
int cmdIndexFsck(const IndexArgs &A) {
  FsckOptions Opts;
  Opts.Repair = A.Repair;
  FsckReport R = fsckIndex(A.Path, Opts);
  std::fputs(R.render(A.Path).c_str(), stdout);
  if (!R.Serviceable)
    return 2;
  return R.hasRepairableDebris() ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Networked mode: `hma indexd` and the `--connect` client commands
//===----------------------------------------------------------------------===//

serve::ClientOptions clientOptions(const IndexArgs &A) {
  serve::ClientOptions O;
  O.UnixSocketPath = A.Connect ? A.Connect : "";
  O.TcpPort = static_cast<uint16_t>(A.ConnectPort);
  O.TimeoutMs = static_cast<int>(A.TimeoutMs);
  O.ConnectRetries = static_cast<int>(A.Retries);
  return O;
}

void printWireLookup(size_t I, const serve::WireLookup &R, bool Numbered) {
  if (!R.Present) {
    if (Numbered)
      std::printf("%zu absent\n", I);
    else
      std::printf("absent\n");
    return;
  }
  if (Numbered) {
    std::printf("%zu present count=%llu hash=%s\n", I,
                static_cast<unsigned long long>(R.Count),
                R.Hash.toHex().c_str());
    return;
  }
  std::printf("present  count=%llu  hash=%s\n",
              static_cast<unsigned long long>(R.Count),
              R.Hash.toHex().c_str());
  ExprContext CanonCtx;
  DeserializeResult Canon = deserializeExpr(CanonCtx, R.CanonicalBytes);
  if (Canon.ok())
    std::printf("canonical: %s\n", printExpr(CanonCtx, Canon.E).c_str());
}

/// `hma index query --connect SOCK ...`: the daemon-backed twin of
/// \ref runQueries -- same flags, same output shapes, network transport.
int cmdIndexQueryConnect(const IndexArgs &A) {
  serve::Client C(clientOptions(A));
  std::string Error;

  if (A.BatchFile) {
    CorpusLoadResult Queries;
    if (!readCorpus(A.BatchFile, Queries))
      return 1;
    auto Start = std::chrono::steady_clock::now();
    std::vector<serve::WireLookup> Results;
    if (!C.lookupBatch(Queries.Blobs, Results, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    auto End = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(End - Start).count();
    uint64_t Hits = 0;
    for (size_t I = 0; I != Results.size(); ++I) {
      Hits += Results[I].Present;
      printWireLookup(I, Results[I], /*Numbered=*/true);
    }
    std::printf("batch query: %zu queries, %llu present, over %s, %.3f s, "
                "%.0f queries/sec\n",
                Results.size(), static_cast<unsigned long long>(Hits),
                A.Connect ? A.Connect : "tcp", Sec,
                Sec > 0 ? static_cast<double>(Results.size()) / Sec : 0.0);
    return 0;
  }

  std::string QuerySrc;
  if (A.ExprText)
    QuerySrc = A.ExprText;
  else if (!readInput(A.ExprFile, QuerySrc))
    return 1;
  ExprContext Ctx;
  const Expr *Q = parseInput(Ctx, QuerySrc);
  if (!Q)
    return 1;
  serve::WireLookup R;
  if (!C.lookup(serializeExpr(Ctx, Q), R, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  printWireLookup(0, R, /*Numbered=*/false);
  return R.Present ? 0 : 1;
}

/// `hma index ctl <ping|stats|reload|shutdown> [file] --connect SOCK`.
int cmdIndexCtl(const IndexArgs &A) {
  const char *Action = A.Path;
  serve::Client C(clientOptions(A));
  std::string Error;

  if (std::strcmp(Action, "ping") == 0) {
    if (!C.ping(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (std::strcmp(Action, "stats") == 0) {
    serve::StatsFormat F = A.Json   ? serve::StatsFormat::Json
                           : A.Prom ? serve::StatsFormat::Prom
                                    : serve::StatsFormat::Text;
    std::string Report;
    if (!C.stats(F, Report, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fwrite(Report.data(), 1, Report.size(), stdout);
    return 0;
  }
  if (std::strcmp(Action, "reload") == 0) {
    serve::Reply R;
    if (!C.reload(A.CorpusPath ? A.CorpusPath : "", R, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("%s\n", R.Body.c_str());
    return R.ok() ? 0 : 1;
  }
  if (std::strcmp(Action, "shutdown") == 0) {
    if (!C.shutdownServer(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("shutdown requested\n");
    return 0;
  }
  std::fprintf(stderr,
               "error: unknown ctl action '%s' (ping|stats|reload|"
               "shutdown)\n",
               Action);
  return 2;
}

/// `hma index chaos --connect SOCK [--script MODES]`: the scriptable
/// misbehaving client. Exit 0 iff the daemon survived every offence with
/// the right reaction.
int cmdIndexChaos(const IndexArgs &A) {
  std::string Log;
  int Failures =
      serve::runChaos(clientOptions(A), A.ChaosScript ? A.ChaosScript : "all",
                      static_cast<int>(A.ServerTimeoutMs), Log);
  std::fwrite(Log.data(), 1, Log.size(), stdout);
  if (Failures != 0) {
    std::fprintf(stderr, "chaos: %d mode(s) failed\n", Failures);
    return 1;
  }
  std::printf("chaos: all modes passed\n");
  return 0;
}

/// The daemon itself is a top-level command (`hma indexd`, not `hma
/// index d`): it never returns until drained.
serve::Server *ActiveServer = nullptr;

extern "C" void indexdSignalHandler(int Signo) {
  // Async-signal-safe by construction: one pipe write.
  if (ActiveServer)
    ActiveServer->notifySignal(Signo);
}

int cmdIndexd(int Argc, char **Argv) {
  if (Argc < 3 || Argv[2][0] == '-')
    return usage();
  serve::ServerOptions O;
  O.IndexPath = Argv[2];
  auto Positive = [](const char *Flag, const char *Arg, uint64_t Max,
                     long long &Out) {
    return parseUnsigned(Flag, Arg, 1, Max, Out);
  };
  for (int I = 3; I < Argc; ++I) {
    auto Want = [&](const char *Flag) {
      return std::strcmp(Argv[I], Flag) == 0 && I + 1 < Argc;
    };
    long long V = 0;
    if (Want("--socket"))
      O.UnixSocketPath = Argv[++I];
    else if (Want("--port")) {
      if (!Positive("--port", Argv[++I], 65535, V))
        return 2;
      O.TcpPort = static_cast<uint16_t>(V);
    } else if (Want("--threads")) {
      if (!Positive("--threads", Argv[++I], 1024, V))
        return 2;
      O.Threads = static_cast<unsigned>(V);
    } else if (Want("--request-timeout-ms")) {
      if (!Positive("--request-timeout-ms", Argv[++I], 3600000, V))
        return 2;
      O.RequestTimeoutMs = static_cast<int>(V);
    } else if (Want("--idle-timeout-ms")) {
      if (!Positive("--idle-timeout-ms", Argv[++I], 86400000, V))
        return 2;
      O.IdleTimeoutMs = static_cast<int>(V);
    } else if (Want("--drain-timeout-ms")) {
      if (!Positive("--drain-timeout-ms", Argv[++I], 3600000, V))
        return 2;
      O.DrainTimeoutMs = static_cast<int>(V);
    } else if (Want("--max-frame-bytes")) {
      if (!Positive("--max-frame-bytes", Argv[++I],
                    serve::FrameBytesCeiling, V))
        return 2;
      O.MaxFrameBytes = static_cast<size_t>(V);
    } else if (Want("--reload-retry-base-ms")) {
      if (!Positive("--reload-retry-base-ms", Argv[++I], 3600000, V))
        return 2;
      O.ReloadRetryBaseMs = static_cast<int>(V);
    } else if (Want("--reload-retry-max-ms")) {
      if (!Positive("--reload-retry-max-ms", Argv[++I], 86400000, V))
        return 2;
      O.ReloadRetryMaxMs = static_cast<int>(V);
    } else if (Want("--reload-retry-limit")) {
      // 0 is meaningful: disable automatic retries (degraded mode then
      // persists until an operator reload succeeds).
      if (!parseUnsigned("--reload-retry-limit", Argv[++I], 0, 1000000, V))
        return 2;
      O.ReloadRetryLimit = static_cast<unsigned>(V);
    } else
      return usage();
  }
  if (O.UnixSocketPath.empty()) {
    std::fprintf(stderr, "error: hma indexd requires --socket PATH\n");
    return 2;
  }

  serve::Server Srv(std::move(O));
  std::string Error;
  if (!Srv.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  ActiveServer = &Srv;
  std::signal(SIGTERM, indexdSignalHandler);
  std::signal(SIGINT, indexdSignalHandler);
  std::signal(SIGHUP, indexdSignalHandler);
  std::fprintf(stderr, "hma indexd: serving generation %llu on '%s'\n",
               static_cast<unsigned long long>(
                   Srv.generations().currentNumber()),
               Argv[2]);
  int Rc = Srv.waitForExit();
  ActiveServer = nullptr;
  std::fprintf(stderr, "hma indexd: drained after %llu requests\n",
               static_cast<unsigned long long>(Srv.requestsServed()));
  return Rc;
}

int cmdIndex(int Argc, char **Argv) {
  IndexArgs A;
  if (!parseIndexArgs(Argc, Argv, A))
    return usage();
  // The networked subcommands and flags pair up strictly: `ctl`/`chaos`
  // are meaningless without a daemon, and --connect means nothing to the
  // in-process subcommands.
  bool IsNetworked = std::strcmp(A.Sub, "ctl") == 0 ||
                     std::strcmp(A.Sub, "chaos") == 0 ||
                     (std::strcmp(A.Sub, "query") == 0 &&
                      (A.Connect || A.ConnectPort));
  if (IsNetworked && !A.Connect && !A.ConnectPort) {
    std::fprintf(stderr, "error: `index %s` requires --connect SOCK (or "
                         "--port N)\n",
                 A.Sub);
    return 2;
  }
  if ((A.Connect || A.ConnectPort) && !IsNetworked) {
    std::fprintf(stderr, "error: --connect/--port apply to `index query`, "
                         "`index ctl`, and `index chaos` only\n");
    return 2;
  }
  // Only `build` and `open` write a file; a segmented `update` appends
  // in place, and a single file is never updated.
  if (A.OutPath && std::strcmp(A.Sub, "build") != 0 &&
      std::strcmp(A.Sub, "open") != 0) {
    std::fprintf(stderr,
                 "error: --out applies to `index build` and `index open` "
                 "only\n");
    return 2;
  }
  // --json/--prom reshape the stats report (and `update` emits a --json
  // summary); anywhere else they would be silently swallowed.
  bool IsStatsReport =
      std::strcmp(A.Sub, "stats") == 0 ||
      (std::strcmp(A.Sub, "open") == 0 && A.OpenSub &&
       std::strcmp(A.OpenSub, "stats") == 0) ||
      (std::strcmp(A.Sub, "ctl") == 0 && A.Path &&
       std::strcmp(A.Path, "stats") == 0);
  bool IsUpdate = std::strcmp(A.Sub, "update") == 0;
  if (A.Prom && !IsStatsReport) {
    std::fprintf(stderr, "error: --prom applies to `index stats` and "
                         "`index open <file> stats` only\n");
    return 2;
  }
  if (A.Json && !IsStatsReport && !IsUpdate) {
    std::fprintf(stderr, "error: --json applies to `index stats`, `index "
                         "open <file> stats`, and `index update` only\n");
    return 2;
  }
  if (A.Json && A.Prom) {
    std::fprintf(stderr, "error: --json and --prom are mutually exclusive\n");
    return 2;
  }
  // The segment-lifecycle flags pair with their own subcommands.
  if (A.Segmented && std::strcmp(A.Sub, "build") != 0) {
    std::fprintf(stderr, "error: --segmented applies to `index build` "
                         "only\n");
    return 2;
  }
  if ((A.AutoCompact || A.CrashAfterSegment) && !IsUpdate) {
    std::fprintf(stderr, "error: --auto-compact/--crash-after-segment "
                         "apply to `index update` only\n");
    return 2;
  }
  if (A.Repair && std::strcmp(A.Sub, "fsck") != 0) {
    std::fprintf(stderr, "error: --repair applies to `index fsck` only\n");
    return 2;
  }
  if (A.GcMinAgeSet && std::strcmp(A.Sub, "gc") != 0) {
    std::fprintf(stderr,
                 "error: --min-age-seconds applies to `index gc` only\n");
    return 2;
  }

  if (A.TraceOut)
    obs::TraceSink::global().enable();
  int Rc;
  if (std::strcmp(A.Sub, "build") == 0)
    Rc = cmdIndexBuild(A);
  else if (std::strcmp(A.Sub, "query") == 0)
    Rc = IsNetworked ? cmdIndexQueryConnect(A) : cmdIndexQuery(A);
  else if (std::strcmp(A.Sub, "ctl") == 0)
    Rc = cmdIndexCtl(A);
  else if (std::strcmp(A.Sub, "chaos") == 0)
    Rc = cmdIndexChaos(A);
  else if (std::strcmp(A.Sub, "stats") == 0)
    Rc = cmdIndexStats(A);
  else if (std::strcmp(A.Sub, "open") == 0)
    Rc = cmdIndexOpen(A);
  else if (std::strcmp(A.Sub, "update") == 0)
    Rc = cmdIndexUpdate(A);
  else if (std::strcmp(A.Sub, "compact") == 0)
    Rc = cmdIndexCompact(A);
  else if (std::strcmp(A.Sub, "gc") == 0)
    Rc = cmdIndexGc(A);
  else if (std::strcmp(A.Sub, "fsck") == 0)
    Rc = cmdIndexFsck(A);
  else
    return usage();
  if (A.TraceOut) {
    obs::TraceSink &Sink = obs::TraceSink::global();
    Sink.disable();
    std::string Error;
    if (!Sink.writeJson(A.TraceOut, &Error)) {
      std::fprintf(stderr, "trace error: %s\n", Error.c_str());
      return Rc ? Rc : 1;
    }
    std::fprintf(stderr, "trace: wrote %zu events to %s\n", Sink.numEvents(),
                 A.TraceOut);
  }
  return Rc;
}

/// `hma prom-lint [file]`: validate Prometheus text exposition read from
/// \p file or stdin. CI lints `hma index stats --prom` output with this,
/// so exposition bugs fail the pipeline rather than the scrape.
int cmdPromLint(int Argc, char **Argv) {
  const char *Path = Argc >= 3 ? Argv[2] : nullptr;
  std::string Text;
  if (!readInput(Path, Text))
    return 1;
  std::string Error;
  if (!obs::validatePrometheusText(Text, &Error)) {
    std::fprintf(stderr, "prom-lint: %s: %s\n", Path ? Path : "<stdin>",
                 Error.c_str());
    return 1;
  }
  std::printf("prom-lint: %s: OK\n", Path ? Path : "<stdin>");
  return 0;
}

template <typename Hasher>
double timeHashAll(const ExprContext &Ctx, const Expr *E) {
  auto Start = std::chrono::steady_clock::now();
  Hasher H(Ctx);
  H.hashAll(E);
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

int cmdBenchExpr(ExprContext &Ctx, const Expr *E) {
  E = uniquifyBinders(Ctx, E);
  std::printf("n = %u nodes\n", E->treeSize());
  std::printf("%-18s %10.3f ms\n", "Structural*",
              timeHashAll<StructuralHasher<Hash128>>(Ctx, E) * 1e3);
  std::printf("%-18s %10.3f ms\n", "De Bruijn*",
              timeHashAll<DeBruijnHasher<Hash128>>(Ctx, E) * 1e3);
  std::printf("%-18s %10.3f ms\n", "Locally Nameless",
              timeHashAll<LocallyNamelessHasher<Hash128>>(Ctx, E) * 1e3);
  std::printf("%-18s %10.3f ms\n", "Ours",
              timeHashAll<AlphaHasher<Hash128>>(Ctx, E) * 1e3);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  ExprContext Ctx;
  const char *Cmd = Argv[1];

  if (std::strcmp(Cmd, "gen") == 0)
    return cmdGen(Ctx, Argc, Argv);
  if (std::strcmp(Cmd, "index") == 0)
    return cmdIndex(Argc, Argv);
  if (std::strcmp(Cmd, "indexd") == 0)
    return cmdIndexd(Argc, Argv);
  if (std::strcmp(Cmd, "prom-lint") == 0)
    return cmdPromLint(Argc, Argv);

  const char *Path = Argc >= 3 ? Argv[2] : nullptr;
  std::string Source;
  if (!readInput(Path, Source))
    return 1;
  const Expr *E = parseInput(Ctx, Source);
  if (!E)
    return 1;

  if (std::strcmp(Cmd, "hash") == 0)
    return cmdHash(Ctx, E);
  if (std::strcmp(Cmd, "classes") == 0)
    return cmdClasses(Ctx, E);
  if (std::strcmp(Cmd, "cse") == 0)
    return cmdCse(Ctx, E);
  if (std::strcmp(Cmd, "eval") == 0)
    return cmdEval(Ctx, E);
  if (std::strcmp(Cmd, "debruijn") == 0)
    return cmdDeBruijn(Ctx, E);
  if (std::strcmp(Cmd, "bench-expr") == 0)
    return cmdBenchExpr(Ctx, E);
  return usage();
}
