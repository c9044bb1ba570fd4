//===- perfbench/src/main.cpp - Repo benchmark entry point -----------------===//
///
/// \file
/// `hma_perfbench --workload W --seed N --seconds S --trace 0|1`
///
/// Untraced (`--trace 0`): sets the workload's own phase up three times
/// (`setup_s` is the median), measures it and prints the end-to-end
/// metrics. Traced (`--trace 1`): sets all four phases up, walks each
/// under the span recorder, writes the spans as Chrome trace JSON and
/// prints the per-layer metrics -- every traced run must print all of
/// them, and each phase feeds its own. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}; the line before
/// it, prefixed `FACTS `, holds the host and run facts. Any wrong answer
/// makes the exit code 1.
///
/// Normally started through perfbench/run.py, which builds it first.
///
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "obs/Metrics.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics. An untraced run prints setup_s, cpu_ns_per_op,
/// peak_rss_mb and failed_frac, plus the named metrics of its own phase;
/// run.py passes on those BENCHMARK.json gates on and records the rest
/// (see README.md).
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ns_per_op", "ns"},
    {"lookup_qps", "1/s"},
    {"segmented_lookup_qps", "1/s"},
    {"serve_p50_us", "us"},
    {"serve_p99_us", "us"},
    {"serve_max_qps", "1/s"},
    {"subtree_nodes_s", "nodes/s"},
    {"ingest_exprs_s", "exprs/s"},
    {"append_p50_ms", "ms"},
    {"append_p90_ms", "ms"},
    {"index_bytes_per_class", "B/class"},
    {"peak_rss_mb", "MB"},
    {"failed_frac", "frac"},
};

/// Per-layer metrics, printed by a traced run.
const MetricSpec PerLayer[] = {
    {"ast.decode_ns_per_node", "ns/node"},
    {"ast.uniquify_ns_per_node", "ns/node"},
    {"ast.verify_decode_ns_per_node", "ns/node"},
    {"ast.alpha_equiv_ns_per_node", "ns/node"},
    {"core.hash_ns_per_node", "ns/node"},
    {"core.hashall_ns_per_node", "ns/node"},
    {"core.map_ops_per_node", "ops/node"},
    {"core.steady_pool_nodes", "count"},
    {"eqclass.group_ns_per_node", "ns/node"},
    {"index.probe_ns", "ns"},
    {"index.lookup_hashed_ns", "ns"},
    {"index.verifies_per_hit", "count"},
    {"index.verified_collisions", "count"},
    {"index.segments_per_lookup", "count"},
    {"index.open_verify_ms", "ms"},
    {"index.segment_open_ms", "ms"},
    {"index.stage_ns_per_expr", "ns/expr"},
    {"index.append_ms", "ms"},
    {"index.compact_ms", "ms"},
    {"index.save_ns_per_class", "ns/class"},
    {"support.write_bytes_per_input_byte", "ratio"},
    {"support.fsyncs_per_append", "count"},
    {"support.fsync_ms", "ms"},
    {"serve.wire_overhead_us", "us"},
    {"serve.encode_ns", "ns"},
    {"serve.parse_ns", "ns"},
    {"serve.generator_lag_us", "us"},
    {"serve.max_backlog", "count"},
    {"lookup.unattributed_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
};

struct WorkloadSpec {
  const char *Name;
  std::unique_ptr<Phase> (*Make)();
};

const WorkloadSpec Workloads[] = {
    {"lookup_mapped", makeLookupPhase},
    {"serve_open_loop", makeServePhase},
    {"subtree_hash", makeSubtreePhase},
    {"segment_churn", makeChurnPhase},
};

constexpr int SetupRepeats = 3;

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: hma_perfbench --workload "
               "lookup_mapped|serve_open_loop|subtree_hash|segment_churn "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n",
               Msg);
  std::exit(2);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

/// Filesystem type of the mount holding the current directory.
std::string filesystemOfCwd() {
  std::error_code Ec;
  const std::string Cwd = fs::canonical(fs::current_path(), Ec).string();
  std::ifstream Mounts("/proc/mounts");
  std::string Dev, Mnt, Type, Rest, Best = "unknown";
  size_t BestLen = 0;
  while (Mounts >> Dev >> Mnt >> Type && std::getline(Mounts, Rest)) {
    const bool Under = Cwd.compare(0, Mnt.size(), Mnt) == 0 &&
                       (Cwd.size() == Mnt.size() || Mnt == "/" ||
                        Cwd[Mnt.size()] == '/');
    if (Under && Mnt.size() >= BestLen) {
      BestLen = Mnt.size();
      Best = Type;
    }
  }
  return Best;
}

std::string l3Size() {
  std::ifstream F("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string S;
  return (F >> S) ? S : "unknown";
}

/// Peak resident set since the last \ref resetPeakRss (VmHWM), in MB.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Restart peak-RSS tracking from the current RSS (Linux clear_refs 5).
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, GitSha = "unknown";
  uint64_t Seed = 0;
  double Seconds = 0;
  int TraceFlag = -1;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      Workload = V;
    else if (A == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::atof(V);
    else if (A == "--trace")
      TraceFlag = std::atoi(V);
    else if (A == "--git-sha")
      GitSha = V;
    else
      usage(("unknown flag " + A).c_str());
  }
  const WorkloadSpec *Spec = nullptr;
  for (const WorkloadSpec &W : Workloads)
    if (Workload == W.Name)
      Spec = &W;
  if (!Spec)
    usage("unknown or missing --workload");
  if (Seconds <= 0 || (TraceFlag != 0 && TraceFlag != 1))
    usage("--seconds must be positive and --trace 0 or 1");
  const bool Traced = TraceFlag == 1;

  const std::string WorkDir =
      ".bench_build/work/run-" + std::to_string(::getpid());
  fs::create_directories(WorkDir);

  Checks Check;
  Metrics Out, Facts;
  Tracer Trace;
  RunEnv Env;
  Env.Seed = Seed;
  Env.WorkDir = WorkDir;
  Env.Check = &Check;
  Env.Out = &Out;
  Env.Facts = &Facts;
  Env.Trace = &Trace;

  int Exit = 0;
  try {
    if (Traced) {
      Env.WorkDir = WorkDir + "/traced";
      fs::create_directories(Env.WorkDir);
      std::vector<std::unique_ptr<Phase>> Phases;
      for (const WorkloadSpec &W : Workloads) {
        Phases.push_back(W.Make());
        Phases.back()->setup(Env);
      }
      Env.Seconds = Seconds / double(Phases.size());
      Trace.On = true;
      for (auto &P : Phases)
        P->trace(Env);
      Trace.On = false;
    } else {
      std::unique_ptr<Phase> P;
      std::vector<double> SetupTimes;
      for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
        P.reset();      // tear the previous repetition down first
        malloc_trim(0); // ... and hand its memory back, so peaks compare
        std::error_code Ec;
        fs::remove_all(Env.WorkDir, Ec);
        Env.WorkDir = WorkDir + "/rep" + std::to_string(Rep);
        fs::create_directories(Env.WorkDir);
        if (Rep == SetupRepeats - 1)
          resetPeakRss(); // the peak covers the kept set-up and the run
        const uint64_t T0 = nowNs();
        P = Spec->Make();
        P->setup(Env);
        SetupTimes.push_back(secondsSince(T0));
      }
      Out.set("setup_s", median(SetupTimes));
      Env.Seconds = Seconds;
      P->measure(Env);
      P.reset();
      Out.set("peak_rss_mb", peakRssMb());
    }
    Out.set("failed_frac", Check.Attempted ? double(Check.Failed) /
                                                 double(Check.Attempted)
                                           : 1.0);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    Exit = 3;
  }
  std::error_code Ec;
  fs::remove_all(WorkDir, Ec);
  if (Exit)
    return Exit;

  std::string TracePath;
  if (Traced) {
    fs::create_directories(".bench_build/traces");
    TracePath = ".bench_build/traces/" + Workload + "-seed" +
                std::to_string(Seed) + ".json";
    if (!Trace.writeChromeJson(TracePath)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
      return 3;
    }
  }

  // Host and run facts.
  std::string F = "{";
  auto Fact = [&](const std::string &K, const std::string &V) {
    F += (F.size() > 1 ? "," : "") + jsonString(K) + ":" + V;
  };
  Fact("workload", jsonString(Workload));
  Fact("seed", std::to_string(Seed));
  Fact("seconds", jsonNumber(Seconds));
  Fact("traced", Traced ? "true" : "false");
  Fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  Fact("l3", jsonString(l3Size()));
  Fact("build_type", jsonString(PERFBENCH_BUILD_TYPE));
  Fact("obs_compiled_in", hma::obs::Enabled ? "true" : "false");
  Fact("compiler", jsonString(std::string("g++ ") + __VERSION__));
  Fact("git_sha", jsonString(GitSha));
  Fact("filesystem", jsonString(filesystemOfCwd()));
  Fact("fsync_policy",
       jsonString("library default: tmp write, fsync, rename, fsync dir"));
  Fact("trace_file", jsonString(TracePath));
  for (const auto &[K, V] : Facts.Values)
    Fact(K, jsonNumber(V));
  F += "}";
  std::printf("FACTS %s\n", F.c_str());

  // The result line.
  const bool Correct = Check.Failed == 0;
  std::string R = "{\"correct\":" + std::string(Correct ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(Check.Attempted) +
                  ",\"failed\":" + std::to_string(Check.Failed) +
                  ",\"metrics\":{";
  bool First = true;
  auto Emit = [&](const MetricSpec &M) { // the metrics this run measured
    for (const auto &[K, V] : Out.Values)
      if (K == M.Name) {
        R += (First ? "" : ",") + jsonString(M.Name) + ":{\"value\":" +
             jsonNumber(V) + ",\"unit\":" + jsonString(M.Unit) + "}";
        First = false;
      }
  };
  if (Traced)
    for (const MetricSpec &M : PerLayer)
      Emit(M);
  else
    for (const MetricSpec &M : EndToEnd)
      Emit(M);
  R += "}}";
  std::printf("%s\n", R.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
