//===- perfbench/src/Common.h - Shared plumbing of the repo benchmark ------===//
///
/// \file
/// Clocks, statistics, correctness accounting, metric collection and the
/// in-memory span recorder shared by the four benchmark phases
/// (LookupPhase, ServePhase, SubtreePhase, ChurnPhase).
///
/// Two clocks: wall time (\ref nowNs) for what a caller waits, and CPU
/// time (\ref processCpuNs, \ref threadCpuNs) for what the work costs.
/// On a shared virtual machine the CPU clocks leave out the time the
/// hypervisor gives to other guests (steal time) and the time a thread
/// waits for a core, so they follow the code's own cost more steadily
/// than wall time does; a change in how fast the host runs memory-bound
/// code still shows in both (see README.md).
///
/// The span recorder is the benchmark's own: spans are taken around the
/// calls the benchmark makes into the library (decode, uniquify, hash,
/// probe, ...), never inside it. Each span keeps its name, start, end,
/// parent and request id; \ref Tracer::selfNanos subtracts the children a
/// span covers, and \ref Tracer::writeChromeJson dumps everything as
/// Chrome trace_event JSON at exit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

inline uint64_t cpuClockNs(clockid_t Clock) {
  timespec T;
  clock_gettime(Clock, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(T.tv_nsec);
}

/// CPU time of every thread of the process, including exited ones.
inline uint64_t processCpuNs() { return cpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread.
inline uint64_t threadCpuNs() { return cpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

/// Quantile \p Q in [0, 1] of \p V by linear interpolation (sorts a copy).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

/// Log-uniform integer in [Lo, Hi].
inline uint32_t logUniform(hma::Rng &R, uint32_t Lo, uint32_t Hi) {
  const double U = static_cast<double>(R.below(1u << 30)) / double(1u << 30);
  const double L = std::log(double(Lo)), H = std::log(double(Hi) + 1);
  return std::min<uint32_t>(Hi, static_cast<uint32_t>(std::exp(L + U * (H - L))));
}

/// Operations attempted and answers found wrong, over the whole run.
/// Every phase routes its independent answer checks through \ref expect.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void expect(bool Ok, const char *What) {
    if (Ok)
      return;
    if (++Failed <= 10)
      std::fprintf(stderr, "perfbench: check failed: %s\n", What);
  }
};

/// Named metric values of one run, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, double>> Values;

  void set(const std::string &Name, double V) {
    for (auto &[N, Old] : Values)
      if (N == Name) {
        Old = V;
        return;
      }
    Values.emplace_back(Name, V);
  }
};

/// In-memory span recorder (off unless the run is traced).
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Start = 0;
    uint64_t End = 0;
    int32_t Parent = -1;
    uint64_t Req = 0;
    bool Replica = false;
  };

  /// RAII span; a no-op when the tracer is off.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Req = 0, bool Replica = false)
        : T(T), Idx(T.On ? T.begin(Name, Req, Replica) : -1) {}
    ~Scope() {
      if (Idx >= 0)
        T.end(Idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Idx;
  };

  bool On = false;

  int32_t begin(const char *Name, uint64_t Req, bool Replica) {
    Span S;
    S.Name = Name;
    S.Parent = Current;
    S.Req = Req;
    S.Replica = Replica;
    Spans.push_back(S);
    Current = static_cast<int32_t>(Spans.size() - 1);
    Spans.back().Start = nowNs();
    return Current;
  }

  void end(int32_t Idx) {
    Spans[static_cast<size_t>(Idx)].End = nowNs();
    Current = Spans[static_cast<size_t>(Idx)].Parent;
  }

  /// Self time (span duration minus the part its children cover) and
  /// span count, summed per span name.
  std::map<std::string, std::pair<double, uint64_t>> selfNanos() const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.End - S.Start;
    std::map<std::string, std::pair<double, uint64_t>> Out;
    for (size_t I = 0; I != Spans.size(); ++I) {
      auto &Slot = Out[Spans[I].Name];
      const uint64_t Dur = Spans[I].End - Spans[I].Start;
      Slot.first += static_cast<double>(Dur - std::min(Dur, ChildNs[I]));
      Slot.second += 1;
    }
    return Out;
  }

  /// Write every span as Chrome trace_event JSON. False on I/O failure.
  bool writeChromeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    const uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    std::fputs("{\"traceEvents\":[\n", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu}}\n",
                   I ? "," : "", S.Name, S.Replica ? "replica" : "call",
                   static_cast<double>(S.Start - Base) * 1e-3,
                   static_cast<double>(S.End - S.Start) * 1e-3, I, S.Parent,
                   static_cast<unsigned long long>(S.Req));
    }
    std::fputs("],\"displayTimeUnit\":\"ns\"}\n", F);
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  int32_t Current = -1;
};

/// Everything a phase needs from the run: its seed, the time it may
/// measure for, and the shared sinks.
struct RunEnv {
  uint64_t Seed = 1;
  double Seconds = 1;
  std::string WorkDir; ///< Scratch directory inside the checkout.
  Checks *Check = nullptr;
  Metrics *Out = nullptr;
  Metrics *Facts = nullptr;
  Tracer *Trace = nullptr;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
