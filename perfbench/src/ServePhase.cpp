//===- perfbench/src/ServePhase.cpp - Open-loop lookups over the socket ----===//
///
/// \file
/// An in-process `serve::Server` (2 workers) serves a 2^16-class index of
/// ~24-node terms. One generator thread sends single `Lookup` frames,
/// 50/50 hits and misses, pipelined over 2 Unix-socket connections at
/// fixed intervals. Each request is timed from when it was *due*, so a
/// stall also charges the requests queued behind it; the generator's own
/// lateness and the peak number of outstanding requests are recorded
/// per step.
///
/// Rates: a fixed reference rate (about an eighth of capacity on a 4-core
/// host; nearer capacity, latency follows the host's noise rather than
/// the code) gives `serve_p50_us` / `serve_p99_us` and `cpu_ns_per_op`,
/// the CPU time the server's threads spend per request (the process's
/// CPU time minus the generator thread's); a ladder of rates 5% apart is
/// bisected for `serve_max_qps`, the highest rung whose p99 stays within
/// 1 ms with every reply correct and no backlog beyond 1 ms of work.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Phases.h"

#include "ast/Serialize.h"
#include "core/AlphaHasher.h"
#include "index/MappedIndex.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <cerrno>
#include <cmath>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace hma;

namespace perfbench {
namespace {

constexpr double RefRate = 10000;    ///< Reference rate, requests/s.
constexpr double LadderBase = 2000;  ///< Lowest ladder rung, requests/s.
constexpr double LadderStep = 1.05;  ///< Ratio between adjacent rungs.
constexpr int LadderRungs = 96;      ///< 2k .. ~216k requests/s.
constexpr double LimitUs = 1000;     ///< p99 latency limit.
constexpr unsigned Connections = 2;
constexpr int Rounds = 4;   ///< Reference steps and a bisection per round.
constexpr int RefSteps = 8; ///< Reference-rate steps per round.

struct StepResult {
  double P50Us = 0, P99Us = 0, LagP99Us = 0;
  double ServerCpuNs = 0; ///< Server threads' CPU time per request.
  uint64_t MaxBacklog = 0;
  uint64_t Sent = 0, Answered = 0, Wrong = 0;
  bool Met = false;
};

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

class ServePhase : public Phase {
public:
  ~ServePhase() override {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
    if (Daemon) {
      Daemon->requestStop();
      Daemon->waitForExit();
    }
  }

  const char *name() const override { return "serve"; }

  void setup(RunEnv &Env) override {
    if (!serve::serverSupported())
      fail("serve: no Unix sockets on this platform");
    Corpus C = makeBalancedCorpus(Env.Seed ^ 0x5345525645ULL, size_t(1) << 16,
                                  20, 28, 4);
    Q = makeQueries(C.Blobs, 8192, Env.Seed ^ 0x5345525645ULL);
    const std::string Path = Env.WorkDir + "/serve.hmai";
    std::string Error;
    NumClasses = writeIndexFile(C.Blobs, Path, 4, &Error);
    if (!NumClasses)
      fail("serve: " + Error);
    StoredNodes = C.Nodes;
    auto Open = MappedIndex<>::open(Path);
    if (!Open.ok())
      fail("serve: open: " + Open.Error);
    Reader = std::move(Open.Reader);
    HmaiBytes = Reader->imageBytes().size();
    for (const std::string &B : Q.Blobs)
      Frames.push_back(serve::encodeRequest(serve::Op::Lookup, B));

    serve::ServerOptions SO;
    SO.IndexPath = Path;
    SO.UnixSocketPath = Env.WorkDir + "/s.sock";
    SO.Threads = 2;
    Daemon = std::make_unique<serve::Server>(SO);
    if (!Daemon->start(&Error)) {
      Daemon.reset();
      fail("serve: start: " + Error);
    }
    SocketPath = SO.UnixSocketPath;
    Conns.resize(Connections);
    for (Conn &Cn : Conns)
      if ((Cn.Fd = connectUnix(SocketPath)) < 0)
        fail("serve: cannot connect to " + SocketPath);
  }

  /// Half the time at the reference rate, half bisecting the ladder, in
  /// rounds so that both halves see the whole run.
  void measure(RunEnv &Env) override {
    AnswerChecker Check(Q);
    warm(Env, Check);
    std::vector<double> CpuNs, P50, P99, MaxRates;
    const double Half = 0.5 * Env.Seconds / Rounds;
    for (int Round = 0; Round != Rounds; ++Round) {
      for (int S = 0; S != RefSteps; ++S) {
        StepResult R = step(Env, Check, RefRate, Half / RefSteps);
        CpuNs.push_back(R.ServerCpuNs);
        P50.push_back(R.P50Us);
        P99.push_back(R.P99Us);
      }
      MaxRates.push_back(ladder(Env, Check, Half));
    }
    Env.Out->set("cpu_ns_per_op", median(CpuNs));
    Env.Out->set("serve_p50_us", median(P50));
    Env.Out->set("serve_p99_us", median(P99));
    Env.Out->set("serve_max_qps", median(MaxRates));
    recordFacts(Env);
  }

  void trace(RunEnv &Env) override {
    AnswerChecker Answers(Q);
    warm(Env, Answers);
    Tracer &T = *Env.Trace;
    serve::ClientOptions CO;
    CO.UnixSocketPath = SocketPath;
    serve::Client Cl(CO);
    std::string Error;
    if (!Cl.connect(&Error))
      fail("serve: client connect: " + Error);
    ExprContext Boot;
    AlphaHasher<Hash128> Hasher(Boot, Reader->schema());
    DecodeScratch Scratch;
    std::vector<double> RoundTrip, InProcess;
    const size_t N = std::min<size_t>(Q.Blobs.size(), 4000);
    for (size_t I = 0; I != N; ++I) {
      Tracer::Scope Root(T, "serve.request", I);
      std::string Frame;
      {
        Tracer::Scope S(T, "serve.encode", I);
        Frame = serve::encodeRequest(serve::Op::Lookup, Q.Blobs[I]);
      }
      serve::Reply Rep;
      uint64_t T0 = nowNs();
      {
        Tracer::Scope S(T, "serve.roundtrip", I);
        if (!Cl.call(serve::Op::Lookup, Q.Blobs[I], Rep, &Error))
          fail("serve: call: " + Error);
      }
      RoundTrip.push_back(double(nowNs() - T0) * 1e-3);
      serve::WireLookup W;
      bool Parsed = false;
      {
        Tracer::Scope S(T, "serve.parse", I);
        std::string_view Body = Rep.Body;
        Parsed = Rep.ok() && serve::takeWireLookup(Body, W);
      }
      ++Env.Check->Attempted;
      Env.Check->expect(
          Parsed && Answers.check(I, W.Present ? std::optional<std::string_view>(
                                                     W.CanonicalBytes)
                                               : std::nullopt),
          "serve: traced answer");
      T0 = nowNs();
      {
        Tracer::Scope S(T, "serve.inprocess", I, /*Replica=*/true);
        ExprContext Ctx;
        DeserializeResult D = deserializeExpr(Ctx, Q.Blobs[I]);
        (void)Reader->lookup(Ctx, D.E, Hasher, Scratch);
        Hasher.rebind(Boot);
      }
      InProcess.push_back(double(nowNs() - T0) * 1e-3);
    }
    Cl.close();
    T.On = false;
    StepResult R = step(Env, Answers, RefRate, 0.5 * Env.Seconds);
    T.On = true;

    auto Self = T.selfNanos();
    Env.Out->set("serve.wire_overhead_us", median(RoundTrip) - median(InProcess));
    Env.Out->set("serve.encode_ns", Self["serve.encode"].first / double(N));
    Env.Out->set("serve.parse_ns", Self["serve.parse"].first / double(N));
    Env.Out->set("serve.generator_lag_us", R.LagP99Us);
    Env.Out->set("serve.max_backlog", double(R.MaxBacklog));
    recordFacts(Env);
  }

private:
  struct Pending {
    uint64_t Due;
    uint32_t Query;
  };
  struct Conn {
    int Fd = -1;
    std::string Out, In;
    std::vector<Pending> Queue; ///< FIFO: replies arrive in request order.
    size_t Head = 0;
  };

  /// Send every query once, pipelined, so the answer cache and the
  /// server's scratch are warm before anything is timed.
  void warm(RunEnv &Env, AnswerChecker &Check) {
    step(Env, Check, RefRate, double(Q.Blobs.size()) / RefRate);
  }

  /// Bisect the rate ladder for the highest rung that meets the limit
  /// (rung 0 is taken as met; the ladder's top is never reached here).
  double ladder(RunEnv &Env, AnswerChecker &Check, double Budget) {
    int Lo = 0, Hi = LadderRungs;
    const double StepSecs = Budget / std::ceil(std::log2(LadderRungs));
    while (Hi - Lo > 1) {
      const int Mid = (Lo + Hi) / 2;
      const double Rate = LadderBase * std::pow(LadderStep, Mid);
      (step(Env, Check, Rate, StepSecs).Met ? Lo : Hi) = Mid;
    }
    return LadderBase * std::pow(LadderStep, Lo);
  }

  /// One open-loop step: \p Rate requests/s for \p Seconds.
  StepResult step(RunEnv &Env, AnswerChecker &Check, double Rate,
                  double Seconds) {
    StepResult R;
    const uint64_t Total = std::max<uint64_t>(1, uint64_t(Rate * Seconds));
    const double Interval = 1e9 / Rate;
    const uint64_t BacklogLimit =
        std::max<uint64_t>(8, uint64_t(Rate * LimitUs * 1e-6));
    std::vector<double> Lat, Lag;
    Lat.reserve(Total);
    Lag.reserve(Total);
    for (Conn &C : Conns) {
      C.Queue.clear();
      C.Head = 0;
    }
    const uint64_t Cpu0 = processCpuNs() - threadCpuNs();
    const uint64_t Start = nowNs();
    const uint64_t Deadline = Start + uint64_t(Seconds * 1e9) + 2000000000ULL;
    bool Overloaded = false;
    uint64_t BacklogAtEnd = 0;
    while (R.Answered < R.Sent || R.Sent < Total) {
      uint64_t Now = nowNs();
      if (Now > Deadline)
        fail("serve: replies stopped arriving");
      while (!Overloaded && R.Sent < Total &&
             Start + uint64_t(double(R.Sent) * Interval) <= Now) {
        const uint64_t Due = Start + uint64_t(double(R.Sent) * Interval);
        const uint32_t Qi = uint32_t(QueryCursor++ % Q.Blobs.size());
        Conn &C = Conns[R.Sent % Connections];
        C.Out += Frames[Qi];
        C.Queue.push_back(Pending{Due, Qi});
        Lag.push_back(double(Now - Due) * 1e-3);
        ++R.Sent;
        R.MaxBacklog = std::max(R.MaxBacklog, R.Sent - R.Answered);
        if (R.Sent - R.Answered > 8 * BacklogLimit)
          Overloaded = true; // already failed; stop adding load and drain
      }
      if (R.Sent == Total || Overloaded)
        BacklogAtEnd = std::max(BacklogAtEnd, R.Sent - R.Answered);
      for (Conn &C : Conns) {
        flush(C);
        receive(Env, Check, C, R, Lat);
      }
      if (Overloaded && R.Answered == R.Sent)
        break;
    }
    R.ServerCpuNs = double(processCpuNs() - threadCpuNs() - Cpu0) /
                    double(std::max<uint64_t>(1, R.Answered));
    R.P50Us = quantile(Lat, 0.5);
    R.P99Us = quantile(Lat, 0.99);
    R.LagP99Us = quantile(Lag, 0.99);
    R.Met = !Overloaded && R.Wrong == 0 && R.P99Us <= LimitUs &&
            BacklogAtEnd <= BacklogLimit;
    return R;
  }

  void flush(Conn &C) {
    size_t Off = 0;
    while (Off < C.Out.size()) {
      ssize_t W = ::send(C.Fd, C.Out.data() + Off, C.Out.size() - Off,
                         MSG_NOSIGNAL);
      if (W > 0) {
        Off += size_t(W);
        continue;
      }
      if (W < 0 && errno == EINTR)
        continue;
      if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      fail("serve: send failed");
    }
    C.Out.erase(0, Off);
  }

  void receive(RunEnv &Env, AnswerChecker &Check, Conn &C, StepResult &R,
               std::vector<double> &Lat) {
    char Buf[65536];
    for (;;) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N > 0) {
        C.In.append(Buf, size_t(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      fail("serve: connection closed by the server");
    }
    const uint64_t Now = nowNs();
    size_t Off = 0;
    while (C.In.size() - Off >= serve::FrameHeaderBytes) {
      const uint64_t Len = iio::getWordLE(C.In.data() + Off, 4);
      if (C.In.size() - Off < serve::FrameHeaderBytes + Len)
        break;
      std::string_view Payload(C.In.data() + Off + serve::FrameHeaderBytes,
                               size_t(Len));
      Off += serve::FrameHeaderBytes + size_t(Len);
      if (C.Head == C.Queue.size())
        fail("serve: reply without a request");
      const Pending P = C.Queue[C.Head++];
      Lat.push_back(double(Now - P.Due) * 1e-3);
      ++R.Answered;
      serve::WireLookup W;
      std::string_view Body = Payload.substr(std::min<size_t>(2, Len));
      const bool Ok =
          Len >= 2 &&
          static_cast<serve::Status>(Payload[1]) == serve::Status::Ok &&
          serve::takeWireLookup(Body, W) &&
          Check.check(P.Query, W.Present ? std::optional<std::string_view>(
                                               W.CanonicalBytes)
                                         : std::nullopt);
      ++Env.Check->Attempted;
      Env.Check->expect(Ok, "serve: wire answer");
      R.Wrong += !Ok;
    }
    C.In.erase(0, Off);
  }

  void recordFacts(RunEnv &Env) const {
    Env.Facts->set("serve.classes", double(NumClasses));
    Env.Facts->set("serve.stored_nodes", double(StoredNodes));
    Env.Facts->set("serve.hmai_bytes", double(HmaiBytes));
    Env.Facts->set("serve.ref_rate", RefRate);
  }

  QuerySet Q;
  std::vector<std::string> Frames;
  uint64_t NumClasses = 0, StoredNodes = 0, HmaiBytes = 0;
  uint64_t QueryCursor = 0;
  std::unique_ptr<MappedIndex<>> Reader;
  std::unique_ptr<serve::Server> Daemon;
  std::string SocketPath;
  std::vector<Conn> Conns;
};

} // namespace

std::unique_ptr<Phase> makeServePhase() {
  return std::make_unique<ServePhase>();
}

} // namespace perfbench
