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
///   hma index build <corpus> [--threads T] [--shards S] [--out FILE]
///   hma index open <path> [stats | query ...] [--out FILE [--shards S]]
///   hma index update <dir> <corpus> [--threads T] [--shards S]
///   hma index compact <dir>
///   hma index gc <dir> [--min-age-seconds N]
///   hma index fsck <path> [--repair]
///   hma indexd <path> --socket PATH     serve an index over a socket
///   hma index query|ctl|chaos --connect PATH   talk to a running indexd
///   hma prom-lint [file]                lint Prometheus text
///
/// Each command's positionals and flags are declared once, in `Commands`
/// (flags in `Flags`); one parser checks the command line against that
/// row and refuses anything else with exit 2 before doing any work.
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
#include <pthread.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
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
      "  index build <corpus> [--threads T] [--shards S] [--out FILE]\n"
      "             [--segmented]\n"
      "             intern a corpus modulo alpha; --out persists the\n"
      "             index (classes+counts+stats) as a binary HMAI file.\n"
      "             --segmented makes --out a *directory* (MANIFEST +\n"
      "             HMAI segment files) whose updates append in\n"
      "             O(delta) instead of rewriting the index\n"
      "  index open <path> [stats [--json | --prom] |\n"
      "             query [--expr E | --batch FILE] [--threads T]]\n"
      "             [--out FILE [--shards S]]\n"
      "             reopen an HMAI file or segment directory (no\n"
      "             re-ingest), deep-verify it, and print its summary,\n"
      "             full stats, or look expressions up (default: stdin)\n"
      "             over the zero-copy mmap'd reader. stats --json is a\n"
      "             machine-readable report incl. per-shard totals and\n"
      "             obs metrics, --prom Prometheus text exposition.\n"
      "             --batch FILE bulk-queries a whole corpus on --threads\n"
      "             readers. --out rebuilds a verified single file at\n"
      "             FILE first (--shards re-stripes it)\n"
      "  index update <dir> <corpus> [--threads T] [--shards S]\n"
      "             [--json]\n"
      "             append the corpus to a segment directory as one new\n"
      "             segment -- O(delta), existing segments untouched;\n"
      "             striped like the newest segment unless --shards is\n"
      "             given. A single HMAI file is read-only: rebuild it\n"
      "             with `index build`, or grow a `build --segmented`\n"
      "             directory instead.\n"
      "             --json emits a machine summary on stdout\n"
      "             (narrative goes to stderr)\n"
      "  index compact <dir>\n"
      "             merge every segment of a segmented index into one\n"
      "             and swap the manifest atomically; old readers keep\n"
      "             serving their generation\n"
      "  index gc <dir> [--min-age-seconds N]\n"
      "             delete segment files the manifest does not reference\n"
      "             and the writers' stale MANIFEST.tmp / seg-*.hmai.tmp\n"
      "             (leftovers of a crash between segment write and\n"
      "             manifest swap). Files younger than\n"
      "             --min-age-seconds (default 60) are left alone -- they\n"
      "             may be a concurrent append's in-flight segment; 0\n"
      "             disables the guard (offline maintenance only)\n"
      "  index fsck <path> [--repair]\n"
      "             check a single-file or segmented index: damaged iff\n"
      "             `index open` refuses it (same gate, same message),\n"
      "             else list its debris. --repair deletes *debris\n"
      "             only* (writers' stale tmp files, unreferenced\n"
      "             segments); damage is reported, never deleted. Exit 0\n"
      "             healthy (or fully repaired), 1 repairable debris\n"
      "             remains, 2 committed state damaged\n"
      "  indexd <path> --socket PATH [--threads T]\n"
      "             [--request-timeout-ms N]\n"
      "             serve an HMAI file or segment directory over a\n"
      "             Unix-domain socket until SIGTERM; only a stale\n"
      "             socket at PATH is replaced. The index and every\n"
      "             SIGHUP or `index ctl reload` pass the deep-verify\n"
      "             admission gate before they serve; a rejected file\n"
      "             keeps the old generation serving (degraded mode,\n"
      "             `hma_indexd_degraded` = 1) while the daemon retries\n"
      "             the candidate with jittered exponential backoff.\n"
      "             Wire protocol: tools/README.md\n"
      "  index query --connect SOCK [--expr E | --batch FILE]\n"
      "             [--retries N]\n"
      "             run queries against a live `hma indexd`\n"
      "  index ctl <ping | stats [--json | --prom] | reload [file] |\n"
      "             shutdown> --connect SOCK [--retries N]\n"
      "             control a live daemon (reload: re-admit [file] or\n"
      "             the currently served file; stats honors --json/\n"
      "             --prom)\n"
      "  index chaos --connect SOCK [--retries N]\n"
      "             hostile-client fault injection against a daemon\n"
      "             started with --request-timeout-ms 2000 (torn,\n"
      "             slowloris, oversized, short, garbage, badversion,\n"
      "             badop, hangup, flood). Exit 0 iff the daemon\n"
      "             survived every offence\n"
      "  prom-lint  [file]\n"
      "             validate Prometheus text exposition format (reads\n"
      "             stdin without a file)\n"
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
bool parseUnsigned(const char *Flag, const char *Arg, uint64_t Min,
                   uint64_t Max, uint64_t &Out) {
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
  Out = V;
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

//===----------------------------------------------------------------------===//
// Flags and parsed arguments
//===----------------------------------------------------------------------===//

/// Every flag `hma` knows, in `Flags` order.
enum class Opt : unsigned {
  Family, Size, Seed, Count,
  Threads, Shards, Out, Segmented, Repair, MinAgeSeconds,
  Json, Prom, TraceOut, Connect, Retries, Expr, Batch,
  Socket, RequestTimeoutMs,
};

struct FlagSpec {
  const char *Name;
  enum Kind { Switch, Text, Number } K; ///< Switch takes no value.
  uint64_t Min = 0, Max = 0;            ///< A Number's range.
};

/// Each flag once, in `Opt` order; a Number's value goes through
/// parseUnsigned.
constexpr FlagSpec Flags[] = {
    {"--family", FlagSpec::Text},
    {"--size", FlagSpec::Number, 0, UINT32_MAX},
    {"--seed", FlagSpec::Number, 0, UINT64_MAX},
    {"--count", FlagSpec::Number, 1, INT64_MAX},
    {"--threads", FlagSpec::Number, 1, 1024},
    {"--shards", FlagSpec::Number, 1, AlphaHashIndex<Hash128>::MaxShards},
    {"--out", FlagSpec::Text},
    {"--segmented", FlagSpec::Switch},
    {"--repair", FlagSpec::Switch},
    // 0 is meaningful here: it disables gc's in-flight guard.
    {"--min-age-seconds", FlagSpec::Number, 0, 86400 * 365},
    {"--json", FlagSpec::Switch},
    {"--prom", FlagSpec::Switch},
    {"--trace-out", FlagSpec::Text},
    {"--connect", FlagSpec::Text},
    {"--retries", FlagSpec::Number, 1, 1000},
    {"--expr", FlagSpec::Text},
    {"--batch", FlagSpec::Text},
    {"--socket", FlagSpec::Text},
    {"--request-timeout-ms", FlagSpec::Number, 1, 3600000},
};
constexpr size_t NumFlags = std::size(Flags);
static_assert(NumFlags == static_cast<size_t>(Opt::RequestTimeoutMs) + 1,
              "Flags and Opt disagree");

/// A command line parsed against its row of `Commands`: the positionals
/// (the words in the row name's `<...>` slots, then the rest) and each
/// given flag. A flag's default lives with the code that reads it.
struct Args {
  std::vector<const char *> Pos;
  const char *Text[NumFlags] = {}; ///< As given; a switch's is its name.
  uint64_t Num[NumFlags] = {};     ///< A Number flag's value.

  bool has(Opt O) const { return text(O) != nullptr; }
  const char *text(Opt O) const { return Text[static_cast<size_t>(O)]; }
  uint64_t num(Opt O, uint64_t Default) const {
    return has(O) ? Num[static_cast<size_t>(O)] : Default;
  }
  const char *arg(size_t I) const { return I < Pos.size() ? Pos[I] : nullptr; }
  /// `index` workers: --threads, else every hardware thread.
  unsigned threads() const {
    return static_cast<unsigned>(
        num(Opt::Threads, std::max(1u, std::thread::hardware_concurrency())));
  }

  /// Narrative summaries go to stderr when stdout must stay
  /// machine-readable.
  std::FILE *narrate() const {
    return has(Opt::Json) || has(Opt::Prom) ? stderr : stdout;
  }
};

/// The commands over one expression, read from [file] or stdin.
template <int (*Run)(ExprContext &, const Expr *)>
int onExpr(const Args &A) {
  std::string Source;
  if (!readInput(A.arg(0), Source))
    return 1;
  ExprContext Ctx;
  const Expr *E = parseInput(Ctx, Source);
  return E ? Run(Ctx, E) : 1;
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

int cmdGen(const Args &A) {
  const char *Family = A.has(Opt::Family) ? A.text(Opt::Family) : "balanced";
  const auto Size = static_cast<uint32_t>(A.num(Opt::Size, 100));
  const uint64_t Count = A.num(Opt::Count, 1);
  Rng R(A.num(Opt::Seed, 0));
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
// hma index build|open|update|compact|gc|fsck
//===----------------------------------------------------------------------===//

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

/// The compatibility surface of an index: two indexes (or files) can be
/// compared by hash iff both lines match.
void printSchema(const IndexReader<Hash128> &Index) {
  std::printf("schema seed:         0x%016llx\n",
              static_cast<unsigned long long>(Index.schema().seed()));
  std::printf("hash bits:           %u\n", HashWidth<Hash128>::Bits);
}

bool writeOutIndex(const Args &A, const AlphaHashIndex<Hash128> &Index,
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

/// `hma index build <corpus>`: load + ingest a corpus into a fresh index,
/// print the one-line build summary, and persist it with --out.
int cmdIndexBuild(const Args &A) {
  AlphaHashIndex<Hash128> Index(
      {static_cast<unsigned>(A.num(Opt::Shards, 64)), HashSchema::DefaultSeed});
  CorpusLoadResult Corpus;
  if (!readCorpus(A.arg(0), Corpus))
    return 1;
  auto Start = std::chrono::steady_clock::now();
  auto Batch = Index.insertBatch(Corpus.Blobs, A.threads());
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
               A.threads(), Index.numShards(), Sec,
               Sec > 0 ? static_cast<double>(Batch.Ingested) / Sec : 0.0);
  const char *Out = A.text(Opt::Out);
  if (A.has(Opt::Segmented)) {
    // `build --segmented --out DIR`: seed a segment directory instead of
    // a single HMAI file; `update` on it is O(delta) from then on.
    SegmentAppendResult R = createSegmentDir(Out, Index);
    if (!R.Ok) {
      std::fprintf(stderr, "error: %s\n", R.Error.c_str());
      return 1;
    }
    std::fprintf(A.narrate(),
                 "wrote segmented index: %llu classes to %s (segment %s)\n",
                 static_cast<unsigned long long>(R.ClassesAfter), Out,
                 R.SegmentName.c_str());
    return 0;
  }
  if (Out && !writeOutIndex(A, Index, Out))
    return 1;
  return 0;
}

using Answer = std::optional<LookupResult<Hash128>>;

/// One answer: a numbered line of a batch, or a single query's answer
/// with its canonical rendering.
void printAnswer(size_t I, const Answer &R, bool Numbered) {
  if (!R) {
    if (Numbered)
      std::printf("%zu absent\n", I);
    else
      std::printf("absent\n");
    return;
  }
  if (Numbered) {
    std::printf("%zu present count=%llu hash=%s\n", I,
                static_cast<unsigned long long>(R->Count),
                R->Hash.toHex().c_str());
    return;
  }
  std::printf("present  count=%llu  hash=%s\n",
              static_cast<unsigned long long>(R->Count),
              R->Hash.toHex().c_str());
  ExprContext CanonCtx;
  DeserializeResult Canon = deserializeExpr(CanonCtx, R->CanonicalBytes);
  if (Canon.ok())
    std::printf("canonical: %s\n", printExpr(CanonCtx, Canon.E).c_str());
}

/// The query front end of `open <path> query` and `query --connect`: a
/// --batch corpus goes to \p Batch (blobs -> answers), one expression
/// (--expr, or stdin) to \p One; each returns false on an error it has
/// reported. \p Via names the readers on the batch summary line. Exit 1
/// when the one expression is absent.
template <typename BatchFn, typename OneFn>
int runQueries(const Args &A, const std::string &Via, BatchFn Batch,
               OneFn One) {
  if (A.has(Opt::Batch)) {
    CorpusLoadResult Queries;
    if (!readCorpus(A.text(Opt::Batch), Queries))
      return 1;
    auto Start = std::chrono::steady_clock::now();
    std::vector<Answer> Results;
    if (!Batch(Queries.Blobs, Results))
      return 1;
    auto End = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(End - Start).count();
    uint64_t Hits = 0;
    for (size_t I = 0; I != Results.size(); ++I) {
      Hits += Results[I].has_value();
      printAnswer(I, Results[I], /*Numbered=*/true);
    }
    std::printf("batch query: %zu queries, %llu present, %s, %.3f s, "
                "%.0f queries/sec\n",
                Results.size(), static_cast<unsigned long long>(Hits),
                Via.c_str(), Sec,
                Sec > 0 ? static_cast<double>(Results.size()) / Sec : 0.0);
    return 0;
  }

  std::string QuerySrc;
  if (A.has(Opt::Expr))
    QuerySrc = A.text(Opt::Expr);
  else if (!readInput(nullptr, QuerySrc)) // stdin
    return 1;
  ExprContext Ctx;
  const Expr *Q = parseInput(Ctx, QuerySrc);
  if (!Q)
    return 1;
  Answer R;
  if (!One(Ctx, Q, R))
    return 1;
  printAnswer(0, R, /*Numbered=*/false);
  return R ? 0 : 1;
}

/// Schema, collision, shard-occupancy and largest-class diagnostics:
/// `open stats`.
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
int emitStatsReport(const Args &A, const IndexReader<Hash128> &Index) {
  if (A.has(Opt::Json)) {
    std::string J = renderIndexStatsJson(Index);
    std::fwrite(J.data(), 1, J.size(), stdout);
  } else if (A.has(Opt::Prom)) {
    std::string Text = renderIndexStatsProm(Index);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
  } else {
    printStatsReport(Index);
  }
  return 0;
}

/// Admit the index at \p A's path through \ref openIndex (open + deep
/// verify), printing the one-line open summary and a warning per orphan
/// segment file.
std::unique_ptr<IndexReader<Hash128>> openVerifiedIndex(const Args &A) {
  auto Start = std::chrono::steady_clock::now();
  OpenedIndex<Hash128> R = openIndex<Hash128>(A.arg(0));
  if (!R.ok()) {
    std::fprintf(stderr, "index error: %s (byte %zu)\n", R.Error.c_str(),
                 R.ErrorPos);
    return nullptr;
  }
  auto End = std::chrono::steady_clock::now();
  std::fprintf(A.narrate(),
               "opened %s (%s): %zu classes, %llu members, %u shards, "
               "%.6f s (zero-copy, tables verified)\n",
               A.arg(0), R.Reader->backendName(), R.Reader->numClasses(),
               static_cast<unsigned long long>(R.Reader->stats().Inserted),
               R.Reader->numShards(),
               std::chrono::duration<double>(End - Start).count());
  for (const std::string &Orphan : R.Orphans)
    std::fprintf(stderr,
                 "warning: unreferenced segment file '%s' (crash "
                 "leftover; `hma index gc %s` removes it)\n",
                 Orphan.c_str(), A.arg(0));
  return std::move(R.Reader);
}

/// Rebuild a live index from a verified reader, re-striped over
/// `--shards` if given explicitly (placement is a pure function of the
/// hash, so that is always safe): how `open --out` re-saves a file.
std::unique_ptr<AlphaHashIndex<Hash128>>
restoreIndex(const Args &A, const IndexReader<Hash128> &Reader) {
  return AlphaHashIndex<Hash128>::restore(
      {static_cast<unsigned>(A.num(Opt::Shards, Reader.numShards())),
       Reader.schema().seed()},
      Reader.snapshot(), Reader.stats());
}

/// The `index open` rows: admit the index at \p A's path, rebuild it at
/// --out first if asked, then \p Serve it.
template <int (*Serve)(const Args &, const IndexReader<Hash128> &)>
int onOpened(const Args &A) {
  const char *Out = A.text(Opt::Out);
  // Re-saving is a single-file operation (compact first to get one).
  if (Out && isSegmentDir(A.arg(0))) {
    std::fprintf(stderr,
                 "error: --shards/--out do not apply to a segmented "
                 "index; `hma index compact %s` first\n",
                 A.arg(0));
    return 2;
  }
  auto Index = openVerifiedIndex(A);
  if (!Index)
    return 1;
  // `open F --shards 8 --out G` is the re-shard tool: rebuild from the
  // verified reader and persist, then serve F as usual.
  if (Out && !writeOutIndex(A, *restoreIndex(A, *Index), Out))
    return 1;
  return Serve(A, *Index);
}

int emitSchema(const Args &, const IndexReader<Hash128> &Index) {
  printSchema(Index);
  return 0;
}

int queryIndex(const Args &A, const IndexReader<Hash128> &Index) {
  return runQueries(
      A, std::to_string(A.threads()) + " threads",
      [&](const std::vector<std::string> &Blobs, std::vector<Answer> &Out) {
        Out = Index.lookupBatch(Blobs, A.threads());
        return true;
      },
      [&](ExprContext &Ctx, const Expr *Q, Answer &Out) {
        Out = Index.lookup(Ctx, Q);
        return true;
      });
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
int cmdIndexUpdate(const Args &A) {
  const char *Dir = A.arg(0);
  if (!isSegmentDir(Dir)) {
    std::fprintf(stderr,
                 "error: '%s' is not a segment directory; a single HMAI "
                 "file is read-only (rebuild it with `hma index build`, or "
                 "create a growable index with `hma index build <corpus> "
                 "--segmented --out DIR`)\n",
                 Dir);
    return 2;
  }
  CorpusLoadResult Corpus;
  if (!readCorpus(A.arg(1), Corpus))
    return 1;
  SegmentAppendOptions Opts;
  Opts.Threads = A.threads();
  // 0: striped like the newest segment.
  Opts.Shards = static_cast<unsigned>(A.num(Opt::Shards, 0));
  auto Start = std::chrono::steady_clock::now();
  SegmentAppendResult R = appendSegment<Hash128>(Dir, Corpus.Blobs, Opts);
  auto End = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
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
  if (A.has(Opt::Json))
    emitUpdateJson(R);
  return 0;
}

/// `hma index compact <dir>`: merge every segment into one.
int cmdIndexCompact(const Args &A) {
  auto Start = std::chrono::steady_clock::now();
  SegmentCompactResult R = compactSegments<Hash128>(A.arg(0));
  auto End = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  std::fprintf(A.narrate(),
               "compacted %s: %llu segments -> %llu (%llu classes, %.3f s)\n",
               A.arg(0), static_cast<unsigned long long>(R.SegmentsBefore),
               static_cast<unsigned long long>(R.SegmentsAfter),
               static_cast<unsigned long long>(R.Classes),
               std::chrono::duration<double>(End - Start).count());
  return 0;
}

/// `hma index gc <dir>`: delete segment files the manifest does not
/// reference (crash-window leftovers).
int cmdIndexGc(const Args &A) {
  std::string Error;
  GcOptions Opts;
  Opts.MinAgeSeconds = A.num(Opt::MinAgeSeconds, Opts.MinAgeSeconds);
  std::vector<std::string> Removed = gcSegmentDir(A.arg(0), &Error, Opts);
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

/// `hma index fsck <path> [--repair]`: judge the committed state with
/// the `index open` gate and classify crash debris. Exit 0 when the index is healthy (or --repair
/// removed all debris), 1 when repairable debris remains, 2 when the
/// committed state itself is damaged.
int cmdIndexFsck(const Args &A) {
  FsckOptions Opts;
  Opts.Repair = A.has(Opt::Repair);
  FsckReport R = fsckIndex(A.arg(0), Opts);
  std::fputs(R.render(A.arg(0)).c_str(), stdout);
  if (!R.Serviceable)
    return 2;
  return R.hasRepairableDebris() ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Networked mode: `hma indexd` and the `--connect` client commands
//===----------------------------------------------------------------------===//

serve::ClientOptions clientOptions(const Args &A) {
  serve::ClientOptions O;
  O.UnixSocketPath = A.text(Opt::Connect);
  O.ConnectRetries = static_cast<int>(A.num(Opt::Retries, O.ConnectRetries));
  return O;
}

/// `hma index query --connect SOCK ...`: the daemon-backed twin of
/// `open <path> query` -- same flags, same output shapes, over the
/// socket.
int cmdIndexQueryConnect(const Args &A) {
  serve::Client C(clientOptions(A));
  std::string Error;
  // The answers view the owning wire replies, which outlive the printing.
  std::vector<serve::WireLookup> Wire;
  auto View = [](const serve::WireLookup &W) -> Answer {
    if (!W.Present)
      return std::nullopt;
    return LookupResult<Hash128>{W.Hash, W.Count, W.CanonicalBytes};
  };
  auto Failed = [&] {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  };
  return runQueries(
      A, std::string("over ") + A.text(Opt::Connect),
      [&](const std::vector<std::string> &Blobs, std::vector<Answer> &Out) {
        if (!C.lookupBatch(Blobs, Wire, &Error))
          return Failed();
        for (const serve::WireLookup &W : Wire)
          Out.push_back(View(W));
        return true;
      },
      [&](ExprContext &Ctx, const Expr *Q, Answer &Out) {
        Wire.resize(1);
        if (!C.lookup(serializeExpr(Ctx, Q), Wire[0], &Error))
          return Failed();
        Out = View(Wire[0]);
        return true;
      });
}

/// `hma index ctl ping|stats|reload|shutdown --connect SOCK`: one control
/// request each; a transport failure exits 1.
int ctlFailed(const std::string &Error) {
  std::fprintf(stderr, "error: %s\n", Error.c_str());
  return 1;
}

int cmdCtlPing(const Args &A) {
  serve::Client C(clientOptions(A));
  std::string Error;
  if (!C.ping(&Error))
    return ctlFailed(Error);
  std::printf("pong\n");
  return 0;
}

int cmdCtlStats(const Args &A) {
  serve::Client C(clientOptions(A));
  std::string Error;
  serve::StatsFormat F = A.has(Opt::Json)   ? serve::StatsFormat::Json
                         : A.has(Opt::Prom) ? serve::StatsFormat::Prom
                                            : serve::StatsFormat::Text;
  std::string Report;
  if (!C.stats(F, Report, &Error))
    return ctlFailed(Error);
  std::fwrite(Report.data(), 1, Report.size(), stdout);
  return 0;
}

/// `ctl reload [file]`: re-admit \p file, or the currently served index.
int cmdCtlReload(const Args &A) {
  serve::Client C(clientOptions(A));
  std::string Error;
  serve::Reply R;
  if (!C.reload(A.arg(0) ? A.arg(0) : "", R, &Error))
    return ctlFailed(Error);
  std::printf("%s\n", R.Body.c_str());
  return R.ok() ? 0 : 1;
}

int cmdCtlShutdown(const Args &A) {
  serve::Client C(clientOptions(A));
  std::string Error;
  if (!C.shutdownServer(&Error))
    return ctlFailed(Error);
  std::printf("shutdown requested\n");
  return 0;
}

/// `hma index chaos --connect SOCK`: the misbehaving client, against a
/// daemon started with `--request-timeout-ms 2000` (the deadline chaos
/// waits out). Exit 0 iff the daemon survived every offence with the
/// right reaction.
int cmdIndexChaos(const Args &A) {
  std::string Log;
  int Failures = serve::runChaos(clientOptions(A),
                                 /*ServerRequestTimeoutMs=*/2000, Log);
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

int cmdIndexd(const Args &A) {
  serve::ServerOptions O;
  O.IndexPath = A.arg(0);
  O.UnixSocketPath = A.text(Opt::Socket);
  O.Threads = static_cast<unsigned>(A.num(Opt::Threads, O.Threads));
  O.RequestTimeoutMs =
      static_cast<int>(A.num(Opt::RequestTimeoutMs, O.RequestTimeoutMs));

  // Hold the daemon's signals until their handler is in place: a SIGTERM
  // that lands while the index loads, or just after the socket starts
  // accepting, must drain the daemon, not kill it. The threads start()
  // spawns inherit the mask, so only this thread takes the signals.
  sigset_t Signals;
  sigemptyset(&Signals);
  for (int Signo : {SIGTERM, SIGINT, SIGHUP})
    sigaddset(&Signals, Signo);
  pthread_sigmask(SIG_BLOCK, &Signals, nullptr);
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
  pthread_sigmask(SIG_UNBLOCK, &Signals, nullptr);
  std::fprintf(stderr, "hma indexd: serving generation %llu on '%s'\n",
               static_cast<unsigned long long>(
                   Srv.generations().currentNumber()),
               A.arg(0));
  int Rc = Srv.waitForExit();
  ActiveServer = nullptr;
  std::fprintf(stderr, "hma indexd: drained after %llu requests\n",
               static_cast<unsigned long long>(Srv.requestsServed()));
  return Rc;
}

/// `hma prom-lint [file]`: validate Prometheus text exposition read from
/// \p file or stdin. CI lints `hma index open <file> stats --prom` output
/// with this, so exposition bugs fail the pipeline rather than the
/// scrape.
int cmdPromLint(const Args &A) {
  const char *Path = A.arg(0);
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

//===----------------------------------------------------------------------===//
// The command table and its parser
//===----------------------------------------------------------------------===//

struct Command {
  const char *Name;          ///< Its words; a `<...>` word is a positional.
  unsigned MinArgs, MaxArgs; ///< Positionals, `<...>` words included.
  const char *Accepts;       ///< The flags it takes.
  int (*Run)(const Args &);
};

/// Every command once. Every `index` row takes --trace-out (Chrome trace
/// JSON over the whole command); a client of `indexd` needs --connect.
const Command Commands[] = {
    {"hash", 0, 1, "", onExpr<cmdHash>},
    {"classes", 0, 1, "", onExpr<cmdClasses>},
    {"cse", 0, 1, "", onExpr<cmdCse>},
    {"eval", 0, 1, "", onExpr<cmdEval>},
    {"debruijn", 0, 1, "", onExpr<cmdDeBruijn>},
    {"gen", 0, 0, "--family --size --seed --count", cmdGen},
    {"index build", 1, 1, "--threads --shards --out --segmented --trace-out",
     cmdIndexBuild},
    {"index open <path>", 1, 1, "--out --shards --trace-out",
     onOpened<emitSchema>},
    {"index open <path> stats", 1, 1,
     "--json --prom --out --shards --trace-out", onOpened<emitStatsReport>},
    {"index open <path> query", 1, 1,
     "--expr --batch --threads --out --shards --trace-out",
     onOpened<queryIndex>},
    {"index update", 2, 2, "--threads --shards --json --trace-out",
     cmdIndexUpdate},
    {"index compact", 1, 1, "--trace-out", cmdIndexCompact},
    {"index gc", 1, 1, "--min-age-seconds --trace-out", cmdIndexGc},
    {"index fsck", 1, 1, "--repair --trace-out", cmdIndexFsck},
    {"index query", 0, 0, "--connect --retries --expr --batch --trace-out",
     cmdIndexQueryConnect},
    {"index ctl ping", 0, 0, "--connect --retries --trace-out", cmdCtlPing},
    {"index ctl stats", 0, 0, "--connect --retries --json --prom --trace-out",
     cmdCtlStats},
    {"index ctl reload", 0, 1, "--connect --retries --trace-out", cmdCtlReload},
    {"index ctl shutdown", 0, 0, "--connect --retries --trace-out",
     cmdCtlShutdown},
    {"index chaos", 0, 0, "--connect --retries --trace-out", cmdIndexChaos},
    {"indexd", 1, 1, "--socket --threads --request-timeout-ms", cmdIndexd},
    {"prom-lint", 0, 1, "", cmdPromLint},
};

std::vector<std::string> wordsOf(const char *Text) {
  std::istringstream In(Text);
  return {std::istream_iterator<std::string>(In),
          std::istream_iterator<std::string>()};
}

bool accepts(const Command &C, Opt O) {
  std::vector<std::string> Names = wordsOf(C.Accepts);
  return std::find(Names.begin(), Names.end(),
                   Flags[static_cast<size_t>(O)].Name) != Names.end();
}

/// The flag rules beyond "does this row take the flag", all in one place.
bool checkFlagRules(const Command &Cmd, const Args &A) {
  const char *Error = nullptr;
  if (A.has(Opt::Json) && A.has(Opt::Prom))
    Error = "--json and --prom are mutually exclusive";
  else if (A.has(Opt::Expr) && A.has(Opt::Batch))
    Error = "--expr and --batch are mutually exclusive";
  else if (A.has(Opt::Segmented) && !A.has(Opt::Out))
    Error = "--segmented requires --out DIR";
  // A served index keeps its own striping: only the file --out writes
  // can be re-striped.
  else if (std::strncmp(Cmd.Name, "index open", 10) == 0 &&
           A.has(Opt::Shards) && !A.has(Opt::Out))
    Error = "--shards re-stripes the file written by --out; give --out FILE";
  if (Error) {
    std::fprintf(stderr, "error: %s\n", Error);
    return false;
  }
  // A daemon's clients need its socket, and the daemon one to serve on.
  for (Opt O : {Opt::Connect, Opt::Socket}) {
    if (accepts(Cmd, O) && (!A.has(O) || !*A.text(O))) {
      std::fprintf(stderr, "error: `%s` requires %s\n", Cmd.Name,
                   Flags[static_cast<size_t>(O)].Name);
      return false;
    }
  }
  return true;
}

/// Parse argv against the tables: the command's words and positionals
/// first, then flags. Null, with the reason printed, for a line to
/// refuse (exit 2 before any work).
const Command *parseCommandLine(int Argc, char **Argv, Args &A) {
  std::vector<const char *> Words;
  std::vector<std::pair<size_t, const char *>> Given; // Flag, value.
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0) {
      if (!Given.empty()) {
        std::fprintf(stderr, "error: unexpected argument '%s' after the "
                             "flags\n",
                     Argv[I]);
        return nullptr;
      }
      Words.push_back(Argv[I]);
      continue;
    }
    const FlagSpec *F =
        std::find_if(std::begin(Flags), std::end(Flags),
                     [&](const FlagSpec &F) {
                       return std::strcmp(F.Name, Argv[I]) == 0;
                     });
    if (F == std::end(Flags) || (F->K != FlagSpec::Switch && I + 1 == Argc)) {
      usage();
      return nullptr;
    }
    Given.emplace_back(F - Flags,
                       F->K == FlagSpec::Switch ? F->Name : Argv[++I]);
  }

  // The row whose whole name the words start with, the longest winning
  // (`index open F query` is not `index open F` plus a word). Otherwise
  // name the first unknown word after the deepest known prefix, with the
  // words that fit there: `unknown ctl action 'x' (ping|stats|...)`.
  const Command *Cmd = nullptr;
  size_t Len = 0, Known = 0;
  std::string Fits, Last;
  for (const Command &C : Commands) {
    std::vector<std::string> Name = wordsOf(C.Name);
    size_t N = 0;
    while (N != Name.size() && N != Words.size() &&
           (Name[N][0] == '<' || Name[N] == Words[N]))
      ++N;
    if (N == Name.size()) {
      if (N > Len)
        Cmd = &C, Len = N;
    } else if (N != 0 && N >= Known) {
      if (N > Known)
        Known = N, Fits.clear(), Last.clear();
      if (Name[N] != Last)
        Fits += "|" + (Last = Name[N]);
    }
  }
  if (!Cmd && (Known == 0 || Known == Words.size())) {
    usage();
    return nullptr;
  }
  if (!Cmd) {
    std::fprintf(stderr, "error: unknown %s action '%s' (%s)\n",
                 Words[Known - 1], Words[Known], Fits.c_str() + 1);
    return nullptr;
  }
  std::vector<std::string> Name = wordsOf(Cmd->Name);
  for (size_t I = 0; I != Words.size(); ++I)
    if (I >= Name.size() || Name[I][0] == '<')
      A.Pos.push_back(Words[I]);
  if (A.Pos.size() < Cmd->MinArgs) {
    usage();
    return nullptr;
  }
  if (A.Pos.size() > Cmd->MaxArgs) {
    std::fprintf(stderr, "error: unexpected argument '%s' to `%s`\n",
                 A.Pos[Cmd->MaxArgs], Cmd->Name);
    return nullptr;
  }

  for (auto [Flag, Value] : Given) {
    const FlagSpec &F = Flags[Flag];
    if (!accepts(*Cmd, static_cast<Opt>(Flag))) {
      std::string Rows;
      for (const Command &C : Commands)
        if (accepts(C, static_cast<Opt>(Flag)))
          Rows += (Rows.empty() ? "`" : ", `") + std::string(C.Name) + "`";
      std::fprintf(stderr, "error: %s applies to %s only\n", F.Name,
                   Rows.c_str());
      return nullptr;
    }
    if (F.K == FlagSpec::Number &&
        !parseUnsigned(F.Name, Value, F.Min, F.Max, A.Num[Flag]))
      return nullptr;
    A.Text[Flag] = Value;
  }
  return checkFlagRules(*Cmd, A) ? Cmd : nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  const Command *Cmd = parseCommandLine(Argc, Argv, A);
  if (!Cmd)
    return 2;
  const char *TraceOut = A.text(Opt::TraceOut);
  if (TraceOut)
    obs::TraceSink::global().enable();
  int Rc = Cmd->Run(A);
  if (!TraceOut)
    return Rc;
  obs::TraceSink &Sink = obs::TraceSink::global();
  Sink.disable();
  std::string Error;
  if (!Sink.writeJson(TraceOut, &Error)) {
    std::fprintf(stderr, "trace error: %s\n", Error.c_str());
    return Rc ? Rc : 1;
  }
  std::fprintf(stderr, "trace: wrote %zu events to %s\n", Sink.numEvents(),
               TraceOut);
  return Rc;
}
