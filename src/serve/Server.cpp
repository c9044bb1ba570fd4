//===- serve/Server.cpp - hma indexd: fault-tolerant serving daemon ---------===//
//
// Implementation notes (the design rationale lives in Server.h):
//
//  - One accept thread owns the listener plus the signal self-pipe and
//    hands accepted fds to workers round-robin through small mutexed
//    queues, waking each worker via its wake pipe.
//  - Workers are poll(2) loops. Every fd is non-blocking; reads and
//    writes retry on EINTR and stop on EAGAIN. A worker owns its
//    connections outright -- no cross-thread connection state, so the
//    only synchronisation on the request path is the generation pin.
//  - Timeouts are enforced from the poll tick, not per-syscall: each
//    connection records when activity last happened and when its current
//    partial frame started, both on the tick's clock; the tick sweeps
//    both against the configured deadlines.
//  - Drain: the accept thread closes the listener and exits; workers
//    answer every complete frame already buffered, flush, close, and
//    force-close whatever remains at the drain deadline.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ast/Serialize.h"
#include "core/AlphaHasher.h"
#include "index/ShardStore.h"
#include "index/StatsReport.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <optional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace hma;
using namespace hma::serve;

bool hma::serve::serverSupported() { return true; }

namespace {

/// Per-connection write-buffer cap: a peer that stops reading its
/// replies stops having its requests read (backpressure).
constexpr size_t MaxWriteBufferBytes = size_t(32) << 20;

//===----------------------------------------------------------------------===//
// EINTR-safe syscall shims
//===----------------------------------------------------------------------===//

int pollRetry(pollfd *Fds, nfds_t N, int TimeoutMs) {
  for (;;) {
    int R = ::poll(Fds, N, TimeoutMs);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

#ifdef MSG_NOSIGNAL
constexpr int SendFlags = MSG_NOSIGNAL;
#else
constexpr int SendFlags = 0; // SIGPIPE is ignored process-wide anyway.
#endif

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct ServerMetrics {
  obs::Counter Requests = obs::Counter::get(
      "hma_indexd_requests_total", "Wire requests answered (any status)");
  obs::Counter Connections = obs::Counter::get(
      "hma_indexd_connections_total", "Connections accepted over daemon life");
  obs::Gauge ActiveConnections = obs::Gauge::get(
      "hma_indexd_active_connections", "Connections currently open");
  obs::Counter Malformed = obs::Counter::get(
      "hma_indexd_malformed_frames_total",
      "Frames rejected as malformed / oversized / wrong version or op");
  obs::Counter DeadlineKills = obs::Counter::get(
      "hma_indexd_deadline_kills_total",
      "Connections killed by the partial-frame (slow-loris) deadline");
  obs::Counter IdleCloses = obs::Counter::get(
      "hma_indexd_idle_closes_total", "Connections closed for idleness");
  obs::Histogram RequestNs = obs::Histogram::get(
      "hma_indexd_request_ns", "Wire request handling latency, ns");
  obs::Counter BytesRead = obs::Counter::get(
      "hma_indexd_bytes_read_total", "Payload bytes read from clients");
  obs::Counter BytesWritten = obs::Counter::get(
      "hma_indexd_bytes_written_total", "Reply bytes written to clients");
  obs::Gauge DegradedGauge = obs::Gauge::get(
      "hma_indexd_degraded",
      "1 while the daemon serves an old generation after a rejected reload");
  obs::Counter ReloadRetries = obs::Counter::get(
      "hma_indexd_reload_retries_total",
      "Automatic reload retry attempts after a rejected reload");

  static ServerMetrics &get() {
    static ServerMetrics M;
    return M;
  }
};

//===----------------------------------------------------------------------===//
// Per-connection state
//===----------------------------------------------------------------------===//

struct Conn {
  int Fd = -1;
  std::string In;  ///< Unparsed request bytes (partial frames included).
  std::string Out; ///< Reply bytes not yet flushed to the socket.
  uint64_t LastActivityNs = 0;
  uint64_t FrameStartNs = 0; ///< When the pending partial frame began (0: none).
  bool CloseAfterFlush = false;
};

/// Per-worker request scratch: the warm hasher + verify scratch the
/// batch driver would give one worker, kept across requests. The hasher
/// is recreated only when a reload changes the schema seed; it stays
/// bound to the boot context, because the byte read path reads none.
struct ReqScratch {
  ExprContext Boot;
  std::unique_ptr<AlphaHasher<Hash128>> Hasher;
  uint64_t Seed = 0;
  DecodeScratch Scratch;

  AlphaHasher<Hash128> &hasherFor(const HashSchema &Schema) {
    if (!Hasher || Seed != Schema.seed()) {
      Hasher = std::make_unique<AlphaHasher<Hash128>>(Boot, Schema);
      Seed = Schema.seed();
    }
    return *Hasher;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Server::Impl
//===----------------------------------------------------------------------===//

struct Server::Impl {
  ServerOptions Opts;
  GenerationCell Cell;

  std::atomic<bool> Started{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> Exited{false};
  std::atomic<uint64_t> DrainDeadlineNs{0};
  std::atomic<uint64_t> Requests{0};

  // Degraded mode: a rejected reload leaves the old generation serving
  // and schedules retries of the failed candidate on the accept thread.
  std::atomic<bool> Degraded{false};
  std::atomic<uint64_t> ReloadRetriesTotal{0};
  std::atomic<uint64_t> NextRetryNs{0}; ///< Next retry due time (0: none).
  std::mutex ReloadMu;           ///< Guards the four fields below.
  std::string LastReloadError;   ///< Last admission-gate diagnostic.
  std::string PendingReloadPath; ///< The candidate the retries target.
  unsigned RetryAttempt = 0;     ///< Attempts made this failure episode.
  uint64_t JitterState = 0;      ///< xorshift64* state for retry jitter.

  int SignalRead = -1, SignalWrite = -1; ///< Self-pipe (handler -> accept).
  int ListenFd = -1;
  std::thread AcceptThread;

  struct Worker {
    Impl *S = nullptr;
    unsigned Id = 0;
    int WakeRead = -1, WakeWrite = -1;
    std::mutex Mu;
    std::vector<int> Incoming; ///< Accepted fds awaiting adoption.
    std::thread Thread;
  };
  std::vector<std::unique_ptr<Worker>> Workers;
  unsigned NextWorker = 0;

  std::mutex ExitMu;
  bool Joined = false;

  explicit Impl(ServerOptions O) : Opts(std::move(O)) {
    if (Opts.Threads < 1)
      Opts.Threads = 1;
    if (Opts.ReloadRetryBaseMs < 1)
      Opts.ReloadRetryBaseMs = 1;
    if (Opts.ReloadRetryMaxMs < Opts.ReloadRetryBaseMs)
      Opts.ReloadRetryMaxMs = Opts.ReloadRetryBaseMs;
    JitterState = obs::nowNanos() | 1; // Any odd value seeds xorshift.
  }

  ~Impl() {
    if (Started.load()) {
      requestStopInternal(); // Idempotent; destruction must never hang.
      waitForExit();
    }
    closeFd(SignalRead);
    closeFd(SignalWrite);
  }

  //===--------------------------------------------------------------------===//
  // Lifecycle
  //===--------------------------------------------------------------------===//

  bool start(std::string *Error) {
    auto Fail = [&](const std::string &Msg) {
      if (Error)
        *Error = Msg;
      closeFd(ListenFd);
      closeFd(SignalRead);
      closeFd(SignalWrite);
      for (auto &W : Workers) {
        closeFd(W->WakeRead);
        closeFd(W->WakeWrite);
      }
      Workers.clear();
      return false;
    };

    if (Opts.UnixSocketPath.empty())
      return Fail("indexd requires a --socket path");

    // Admission-gate the initial index exactly like a reload: a daemon
    // must never come up serving a file it would reject on SIGHUP.
    LoadOutcome Boot = Cell.load(Opts.IndexPath);
    if (!Boot.Ok)
      return Fail(Boot.Message);

    // A dead peer must surface as EPIPE on write, never as a fatal
    // signal mid-reply.
    ::signal(SIGPIPE, SIG_IGN);

    int Pipe[2];
    if (::pipe(Pipe) != 0)
      return Fail("indexd: pipe() failed: " + std::string(strerror(errno)));
    SignalRead = Pipe[0];
    SignalWrite = Pipe[1];
    // The write end is hit from signal handlers: it must never block.
    if (!setNonBlocking(SignalRead) || !setNonBlocking(SignalWrite))
      return Fail("indexd: could not configure the signal pipe");

    // The listener. Unlink a stale socket first: a daemon that crashed
    // leaves the inode behind, and refusing to restart over it would
    // turn one crash into a permanent outage. Anything else at the path
    // is not ours to delete.
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixSocketPath.size() >= sizeof(Addr.sun_path))
      return Fail("indexd: socket path too long: " + Opts.UnixSocketPath);
    std::memcpy(Addr.sun_path, Opts.UnixSocketPath.c_str(),
                Opts.UnixSocketPath.size() + 1);
    struct stat St;
    if (::lstat(Opts.UnixSocketPath.c_str(), &St) == 0) {
      if (!S_ISSOCK(St.st_mode))
        return Fail("indexd: '" + Opts.UnixSocketPath +
                    "' exists and is not a socket; refusing to replace it");
      ::unlink(Opts.UnixSocketPath.c_str());
    }
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Fail("indexd: socket() failed: " + std::string(strerror(errno)));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0)
      return Fail("indexd: bind('" + Opts.UnixSocketPath +
                  "') failed: " + std::string(strerror(errno)));
    if (::listen(ListenFd, 128) != 0 || !setNonBlocking(ListenFd))
      return Fail("indexd: listen failed: " + std::string(strerror(errno)));

    for (unsigned I = 0; I != Opts.Threads; ++I) {
      auto W = std::make_unique<Worker>();
      W->S = this;
      W->Id = I;
      int WPipe[2];
      if (::pipe(WPipe) != 0)
        return Fail("indexd: worker pipe failed: " +
                    std::string(strerror(errno)));
      W->WakeRead = WPipe[0];
      W->WakeWrite = WPipe[1];
      if (!setNonBlocking(W->WakeRead) || !setNonBlocking(W->WakeWrite))
        return Fail("indexd: could not configure a worker wake pipe");
      Workers.push_back(std::move(W));
    }

    // Threads spawn last so no failure path has to unwind them.
    for (auto &W : Workers)
      W->Thread = std::thread([this, WP = W.get()] { workerLoop(*WP); });
    AcceptThread = std::thread([this] { acceptLoop(); });
    Started.store(true);
    return true;
  }

  void notifySignal(int Signo) {
    // Async-signal-safe: one write(2) to a non-blocking pipe. A full
    // pipe just means a wake is already pending.
    char B = Signo == SIGHUP ? 'H' : 'T';
    if (SignalWrite >= 0)
      (void)::write(SignalWrite, &B, 1);
  }

  int waitForExit() {
    std::lock_guard<std::mutex> Lock(ExitMu);
    if (!Joined) {
      if (AcceptThread.joinable())
        AcceptThread.join();
      for (auto &W : Workers)
        if (W->Thread.joinable())
          W->Thread.join();
      for (auto &W : Workers) {
        closeFd(W->WakeRead);
        closeFd(W->WakeWrite);
      }
      ::unlink(Opts.UnixSocketPath.c_str());
      Joined = true;
      Exited.store(true);
    }
    return 0;
  }

  //===--------------------------------------------------------------------===//
  // Accept thread
  //===--------------------------------------------------------------------===//

  void beginDrain() {
    if (Draining.exchange(true))
      return;
    DrainDeadlineNs.store(obs::nowNanos() +
                          uint64_t(Opts.DrainTimeoutMs) * 1000000u);
    closeFd(ListenFd);
    wakeAllWorkers();
  }

  void wakeAllWorkers() {
    for (auto &W : Workers) {
      char B = 'w';
      (void)::write(W->WakeWrite, &B, 1);
    }
  }

  void handToWorker(int Fd) {
    Worker &W = *Workers[NextWorker++ % Workers.size()];
    {
      std::lock_guard<std::mutex> Lock(W.Mu);
      W.Incoming.push_back(Fd);
    }
    char B = 'w';
    (void)::write(W.WakeWrite, &B, 1);
  }

  void acceptLoop() {
    for (;;) {
      // The listener is open until beginDrain, which ends this loop.
      pollfd Fds[2] = {{SignalRead, POLLIN, 0}, {ListenFd, POLLIN, 0}};
      // Poll no longer than the next scheduled reload retry needs.
      int TimeoutMs = 200;
      if (uint64_t Due = NextRetryNs.load()) {
        uint64_t Now = obs::nowNanos();
        TimeoutMs = Due <= Now ? 0
                               : static_cast<int>(std::min<uint64_t>(
                                     200, (Due - Now) / 1000000u + 1));
      }
      if (pollRetry(Fds, 2, TimeoutMs) < 0)
        break; // poll itself failing is unrecoverable; drain below.

      if (Fds[0].revents & POLLIN) {
        char Buf[64];
        ssize_t R;
        while ((R = ::read(SignalRead, Buf, sizeof(Buf))) > 0) {
          for (ssize_t I = 0; I != R; ++I) {
            if (Buf[I] == 'T')
              beginDrain();
            else if (Buf[I] == 'H')
              reloadCurrent();
          }
        }
      }
      if (Draining.load())
        break;
      maybeRetryReload();

      if (Fds[1].revents & (POLLIN | POLLERR))
        acceptAll();
    }
    beginDrain(); // Idempotent; covers the poll-failure exit.
  }

  void acceptAll() {
    for (;;) {
      int CFd = ::accept(ListenFd, nullptr, nullptr);
      if (CFd < 0) {
        if (errno == EINTR)
          continue;
        return; // EAGAIN or a transient error; next poll retries.
      }
      if (!setNonBlocking(CFd)) {
        ::close(CFd);
        continue;
      }
      ServerMetrics::get().Connections.add(1);
      ServerMetrics::get().ActiveConnections.add(1);
      handToWorker(CFd);
    }
  }

  void reloadCurrent() {
    // A SIGHUP while degraded retries the candidate that failed (which
    // may be a new path `ctl reload <file>` asked for), not the path of
    // the generation still serving.
    std::string Path;
    {
      std::lock_guard<std::mutex> Lock(ReloadMu);
      Path = PendingReloadPath;
    }
    if (Path.empty())
      Path = Cell.currentPath();
    if (Path.empty())
      return;
    LoadOutcome R = Cell.load(Path);
    std::fprintf(stderr, "hma indexd: %s\n", R.Message.c_str());
    noteReloadOutcome(Path, R.Ok, R.Message, /*FromRetry=*/false);
  }

  /// Record a reload's outcome and (re)schedule the degraded-mode retry.
  /// Success clears the degraded state; failure enters (or stays in) it
  /// and books the next retry with jittered exponential backoff, until
  /// the per-episode attempt limit is spent. Callable from any thread.
  void noteReloadOutcome(const std::string &Path, bool Ok,
                         const std::string &Message, bool FromRetry) {
    std::lock_guard<std::mutex> Lock(ReloadMu);
    if (Ok) {
      if (Degraded.exchange(false))
        ServerMetrics::get().DegradedGauge.set(0);
      LastReloadError.clear();
      PendingReloadPath.clear();
      RetryAttempt = 0;
      NextRetryNs.store(0);
      return;
    }
    if (!Degraded.exchange(true))
      ServerMetrics::get().DegradedGauge.set(1);
    LastReloadError = Message;
    PendingReloadPath = Path;
    if (!FromRetry)
      RetryAttempt = 0; // An operator-initiated failure restarts the schedule.
    if (RetryAttempt >= Opts.ReloadRetryLimit) {
      NextRetryNs.store(0); // Auto-retry exhausted; stay degraded until
      return;               // an operator reload succeeds.
    }
    const uint64_t DelayMs = backoffMs(RetryAttempt);
    ++RetryAttempt;
    NextRetryNs.store(obs::nowNanos() + DelayMs * 1000000u);
  }

  /// Backoff for retry attempt \p Attempt (0-based): base * 2^attempt,
  /// capped, scaled by a jitter factor in [0.5, 1.5) so a fleet of
  /// daemons degraded by the same bad artifact does not hammer storage
  /// in lockstep. Caller holds ReloadMu (JitterState).
  uint64_t backoffMs(unsigned Attempt) {
    const uint64_t Base = static_cast<uint64_t>(Opts.ReloadRetryBaseMs);
    const uint64_t Cap = static_cast<uint64_t>(Opts.ReloadRetryMaxMs);
    const uint64_t Ideal =
        Attempt >= 20 ? Cap : std::min(Cap, Base << Attempt);
    JitterState ^= JitterState >> 12;
    JitterState ^= JitterState << 25;
    JitterState ^= JitterState >> 27;
    const uint64_t R = JitterState * 0x2545F4914F6CDD1Dull;
    const double Factor = 0.5 + double(R >> 11) * (1.0 / double(1ull << 53));
    const uint64_t Ms = static_cast<uint64_t>(double(Ideal) * Factor);
    return Ms ? Ms : 1;
  }

  /// Accept-thread tick: run the scheduled reload retry if it is due.
  void maybeRetryReload() {
    const uint64_t Due = NextRetryNs.load();
    if (Due == 0 || obs::nowNanos() < Due)
      return;
    std::string Path;
    {
      std::lock_guard<std::mutex> Lock(ReloadMu);
      Path = PendingReloadPath;
      NextRetryNs.store(0);
    }
    if (Path.empty())
      return;
    ReloadRetriesTotal.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().ReloadRetries.add(1);
    LoadOutcome R = Cell.load(Path);
    std::fprintf(stderr, "hma indexd: reload retry: %s\n", R.Message.c_str());
    noteReloadOutcome(Path, R.Ok, R.Message, /*FromRetry=*/true);
  }

  //===--------------------------------------------------------------------===//
  // Worker loop
  //===--------------------------------------------------------------------===//

  void closeConn(Conn &C) {
    closeFd(C.Fd);
    ServerMetrics::get().ActiveConnections.add(-1);
  }

  void workerLoop(Worker &W) {
    std::vector<Conn> Conns;
    std::vector<pollfd> Fds;
    ReqScratch Scratch;

    auto Adopt = [&] {
      std::vector<int> NewFds;
      {
        std::lock_guard<std::mutex> Lock(W.Mu);
        NewFds.swap(W.Incoming);
      }
      uint64_t Now = obs::nowNanos();
      for (int Fd : NewFds) {
        Conn C;
        C.Fd = Fd;
        C.LastActivityNs = Now;
        Conns.push_back(std::move(C));
      }
    };

    for (;;) {
      bool InDrain = Draining.load();
      if (InDrain) {
        Adopt(); // Adopt stragglers so they are drained, not leaked.
        // Answer whatever is already fully received, then close after
        // the flush; past the deadline, close unconditionally.
        bool PastDeadline = obs::nowNanos() >= DrainDeadlineNs.load();
        for (Conn &C : Conns) {
          if (C.Fd < 0)
            continue;
          if (PastDeadline) {
            closeConn(C);
            continue;
          }
          if (!C.CloseAfterFlush) {
            processInput(C, Scratch, obs::nowNanos());
            C.CloseAfterFlush = true;
          }
          if (C.Out.empty())
            closeConn(C);
        }
        Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                   [](const Conn &C) { return C.Fd < 0; }),
                    Conns.end());
        if (Conns.empty())
          break;
      }

      Fds.clear();
      Fds.push_back({W.WakeRead, POLLIN, 0});
      for (Conn &C : Conns) {
        short Events = 0;
        // Backpressure: a peer that is not reading its replies does not
        // get more of its requests read.
        if (!C.CloseAfterFlush && !InDrain &&
            C.Out.size() < MaxWriteBufferBytes)
          Events |= POLLIN;
        if (!C.Out.empty())
          Events |= POLLOUT;
        Fds.push_back({C.Fd, Events, 0});
      }

      int TimeoutMs = Conns.empty() ? 500 : 10;
      if (pollRetry(Fds.data(), Fds.size(), TimeoutMs) < 0)
        continue;

      if (Fds[0].revents & POLLIN) {
        char Buf[64];
        while (::read(W.WakeRead, Buf, sizeof(Buf)) > 0) {
        }
      }
      Adopt();

      uint64_t Now = obs::nowNanos();
      for (size_t I = 0; I != Conns.size() && I + 1 < Fds.size(); ++I) {
        Conn &C = Conns[I];
        short Re = Fds[I + 1].revents;
        if (C.Fd < 0 || Fds[I + 1].fd != C.Fd)
          continue; // Adoption appended; these get polled next tick.

        if (Re & (POLLERR | POLLNVAL)) {
          closeConn(C);
          continue;
        }
        if (Re & POLLIN) {
          if (!readAvailable(C, Scratch, Now)) {
            closeConn(C);
            continue;
          }
          C.LastActivityNs = Now;
        } else if (Re & POLLHUP) {
          // Peer went away with nothing readable left.
          closeConn(C);
          continue;
        }
        if (!C.Out.empty()) {
          // Flush eagerly rather than waiting a poll tick for POLLOUT:
          // the socket is almost always writable and replies should not
          // pay 10ms of added latency.
          if (!flushOutput(C)) {
            closeConn(C);
            continue;
          }
          C.LastActivityNs = Now;
        }
        if (C.CloseAfterFlush && C.Out.empty()) {
          closeConn(C);
          continue;
        }

        // Deadline sweep.
        if (!InDrain && C.Fd >= 0) {
          if (C.FrameStartNs != 0 &&
              Now - C.FrameStartNs >
                  uint64_t(Opts.RequestTimeoutMs) * 1000000u) {
            ServerMetrics::get().DeadlineKills.add(1);
            C.Out += encodeResponse(Status::Timeout,
                                    "request deadline exceeded mid-frame");
            (void)flushOutput(C);
            closeConn(C);
            continue;
          }
          if (C.Out.empty() && C.In.empty() &&
              Now - C.LastActivityNs >
                  uint64_t(Opts.IdleTimeoutMs) * 1000000u) {
            ServerMetrics::get().IdleCloses.add(1);
            closeConn(C);
            continue;
          }
        }
      }
      Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                 [](const Conn &C) { return C.Fd < 0; }),
                  Conns.end());
    }

    // Worker exit: whatever survived the drain deadline is force-closed
    // above; nothing to do. Scratch (hasher, contexts) unwinds here.
  }

  //===--------------------------------------------------------------------===//
  // Connection I/O
  //===--------------------------------------------------------------------===//

  /// Pull whatever the socket has, then handle complete frames. False
  /// means the connection is dead (hard error, or EOF with nothing left
  /// to send). A half-closing client -- full request, shutdown(WR),
  /// then read the reply -- still gets its answer. \p Now is the
  /// worker tick's clock, which the deadline sweep compares against.
  bool readAvailable(Conn &C, ReqScratch &Scratch, uint64_t Now) {
    bool Eof = false;
    char Buf[64 * 1024];
    for (;;) {
      ssize_t R = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (R > 0) {
        ServerMetrics::get().BytesRead.add(static_cast<uint64_t>(R));
        C.In.append(Buf, static_cast<size_t>(R));
        if (static_cast<size_t>(R) < sizeof(Buf))
          break;
        continue;
      }
      if (R == 0) {
        Eof = true;
        break;
      }
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      return false;
    }
    processInput(C, Scratch, Now);
    if (Eof) {
      C.CloseAfterFlush = true;
      if (C.Out.empty())
        return false;
    }
    return true;
  }

  /// Flush as much of Out as the socket takes. False on a dead peer.
  bool flushOutput(Conn &C) {
    size_t Off = 0;
    while (Off < C.Out.size()) {
      ssize_t R = ::send(C.Fd, C.Out.data() + Off, C.Out.size() - Off,
                         SendFlags);
      if (R > 0) {
        ServerMetrics::get().BytesWritten.add(static_cast<uint64_t>(R));
        Off += static_cast<size_t>(R);
        continue;
      }
      if (R < 0 && errno == EINTR)
        continue;
      if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      return false;
    }
    C.Out.erase(0, Off);
    return true;
  }

  /// Parse and answer every complete frame in C.In. A partial frame
  /// left over starts its deadline at \p Now, never later: a start
  /// stamped after the sweep's clock would make its unsigned age wrap
  /// and kill the frame on arrival.
  void processInput(Conn &C, ReqScratch &Scratch, uint64_t Now) {
    while (!C.CloseAfterFlush) {
      if (C.In.size() < FrameHeaderBytes) {
        C.FrameStartNs = C.In.empty() ? 0
                         : C.FrameStartNs ? C.FrameStartNs
                                          : Now;
        break;
      }
      uint64_t Len = iio::getWordLE(C.In.data(), 4);
      if (Len < 2 || Len > DefaultMaxFrameBytes) {
        // Answered from the header alone: an oversized declaration is
        // never buffered, a sub-minimal one can never hold version+op.
        ServerMetrics::get().Malformed.add(1);
        C.Out += encodeResponse(
            Len < 2 ? Status::Malformed : Status::TooLarge,
            Len < 2 ? "frame too short for version and op bytes"
                    : "declared frame length " + std::to_string(Len) +
                          " exceeds cap " +
                          std::to_string(DefaultMaxFrameBytes));
        C.CloseAfterFlush = true;
        break;
      }
      if (C.In.size() < FrameHeaderBytes + Len) {
        if (C.FrameStartNs == 0)
          C.FrameStartNs = Now;
        break;
      }
      std::string_view Payload(C.In.data() + FrameHeaderBytes,
                               static_cast<size_t>(Len));
      handleFrame(C, Payload, Scratch);
      C.In.erase(0, FrameHeaderBytes + static_cast<size_t>(Len));
      C.FrameStartNs = C.In.empty() ? 0 : Now;
      if (C.Out.size() >= MaxWriteBufferBytes)
        break; // Backpressure: flush before handling more.
    }
  }

  //===--------------------------------------------------------------------===//
  // Request dispatch
  //===--------------------------------------------------------------------===//

  void handleFrame(Conn &C, std::string_view Payload, ReqScratch &Scratch) {
    ServerMetrics &M = ServerMetrics::get();
    obs::ScopedTimer Timer(M.RequestNs);
    Requests.fetch_add(1, std::memory_order_relaxed);
    M.Requests.add(1);

    uint8_t Ver = static_cast<uint8_t>(Payload[0]);
    uint8_t Kind = static_cast<uint8_t>(Payload[1]);
    std::string_view Body = Payload.substr(2);

    auto Reject = [&](Status S, std::string_view Msg) {
      M.Malformed.add(1);
      C.Out += encodeResponse(S, Msg);
      C.CloseAfterFlush = true;
    };

    if (Ver != ProtocolVersion) {
      Reject(Status::BadVersion,
             "protocol version " + std::to_string(Ver) +
                 " not spoken (this daemon speaks " +
                 std::to_string(ProtocolVersion) + ")");
      return;
    }

    switch (static_cast<Op>(Kind)) {
    case Op::Ping:
      C.Out += encodeResponse(Status::Ok);
      return;

    case Op::Lookup: {
      GenerationRef Gen = Cell.acquire();
      if (!Gen) {
        C.Out += encodeResponse(Status::Internal, "no serving generation");
        return;
      }
      WireLookup R;
      answerOne(*Gen, Body, Scratch, R);
      std::string Reply;
      appendWireLookup(Reply, R);
      C.Out += encodeResponse(Status::Ok, Reply);
      return;
    }

    case Op::LookupBatch: {
      std::vector<std::string_view> Blobs;
      if (!parseBatchRequest(Body, Blobs)) {
        Reject(Status::Malformed, "batch body does not decode");
        return;
      }
      GenerationRef Gen = Cell.acquire();
      if (!Gen) {
        C.Out += encodeResponse(Status::Internal, "no serving generation");
        return;
      }
      std::string Reply;
      iio::putWordLE(Reply, Blobs.size(), 4);
      for (std::string_view Blob : Blobs) {
        WireLookup R;
        answerOne(*Gen, Blob, Scratch, R);
        appendWireLookup(Reply, R);
      }
      C.Out += encodeResponse(Status::Ok, Reply);
      return;
    }

    case Op::Stats: {
      if (Body.size() != 1) {
        Reject(Status::Malformed, "stats body must be one format byte");
        return;
      }
      GenerationRef Gen = Cell.acquire();
      if (!Gen) {
        C.Out += encodeResponse(Status::Internal, "no serving generation");
        return;
      }
      switch (static_cast<StatsFormat>(Body[0])) {
      case StatsFormat::Text:
        C.Out += encodeResponse(Status::Ok, statsText(*Gen));
        return;
      case StatsFormat::Json:
        C.Out += encodeResponse(Status::Ok, renderIndexStatsJson(*Gen->Index));
        return;
      case StatsFormat::Prom:
        C.Out += encodeResponse(Status::Ok, renderIndexStatsProm(*Gen->Index));
        return;
      }
      Reject(Status::Malformed, "unknown stats format byte");
      return;
    }

    case Op::Reload: {
      std::string_view PathView;
      std::string_view Rest = Body;
      if (!takeBlob(Rest, PathView) || !Rest.empty()) {
        Reject(Status::Malformed, "reload body does not decode");
        return;
      }
      if (Draining.load()) {
        C.Out += encodeResponse(Status::ShuttingDown, "draining; no reloads");
        return;
      }
      std::string Path =
          PathView.empty() ? Cell.currentPath() : std::string(PathView);
      // The load (open + deep verify) runs right here on the worker:
      // other workers keep serving off the pinned old generation, and a
      // rejection leaves everything exactly as it was.
      LoadOutcome R = Cell.load(Path);
      noteReloadOutcome(Path, R.Ok, R.Message, /*FromRetry=*/false);
      C.Out += encodeResponse(R.Ok ? Status::Ok : Status::ReloadRejected,
                              R.Message);
      return;
    }

    case Op::Shutdown:
      C.Out += encodeResponse(Status::Ok, "draining");
      C.CloseAfterFlush = true;
      requestStopInternal();
      return;
    }

    Reject(Status::BadOp, "unknown opcode " + std::to_string(Kind));
  }

  /// One lookup against a pinned generation. An undecodable expression
  /// is a miss (Present = false), mirroring lookupBatch's treatment of
  /// bad blobs -- a *well-framed* request with a bad payload is the
  /// query's problem, not the connection's.
  void answerOne(const Generation &Gen, std::string_view Blob,
                 ReqScratch &Scratch, WireLookup &R) {
    // The byte read path, with the worker's warm hasher and scratch.
    std::optional<LookupResult<Hash128>> Hit = Gen.Index->lookupSerialized(
        Blob, Scratch.hasherFor(Gen.Index->schema()), Scratch.Scratch);
    if (Hit) {
      R.Present = true;
      R.Hash = Hit->Hash;
      R.Count = Hit->Count;
      // Copy while the generation is pinned: the reply must never view a
      // mapping a swap could unmap.
      R.CanonicalBytes.assign(Hit->CanonicalBytes);
    }
  }

  std::string statsText(const Generation &Gen) {
    std::string S;
    auto Line = [&](const char *Key, const std::string &Val) {
      S += Key;
      S += ": ";
      S += Val;
      S += '\n';
    };
    Line("backend", Gen.Index->backendName());
    Line("path", Gen.Path);
    Line("generation", std::to_string(Gen.Number));
    Line("classes", std::to_string(Gen.Index->numClasses()));
    Line("shards", std::to_string(Gen.Index->numShards()));
    Line("members", std::to_string(Gen.Index->stats().Inserted));
    Line("requests_served", std::to_string(Requests.load()));
    Line("reloads_ok", std::to_string(Cell.loadsOk()));
    Line("reloads_rejected", std::to_string(Cell.loadsRejected()));
    Line("generations_retired", std::to_string(Cell.generationsRetired()));
    Line("degraded", Degraded.load() ? "1" : "0");
    Line("reload_retries", std::to_string(ReloadRetriesTotal.load()));
    {
      std::lock_guard<std::mutex> Lock(ReloadMu);
      Line("last_reload_error", LastReloadError);
    }
    return S;
  }

  void requestStopInternal() {
    char B = 'T';
    if (SignalWrite >= 0)
      (void)::write(SignalWrite, &B, 1);
  }
};


//===----------------------------------------------------------------------===//
// Server facade
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Opts) : I(std::make_unique<Impl>(std::move(Opts))) {}
Server::~Server() = default;

bool Server::start(std::string *Error) { return I->start(Error); }
void Server::notifySignal(int Signo) { I->notifySignal(Signo); }
void Server::requestStop() { I->requestStopInternal(); }
void Server::requestReload() {
  char B = 'H';
  if (I->SignalWrite >= 0)
    (void)::write(I->SignalWrite, &B, 1);
}
int Server::waitForExit() { return I->waitForExit(); }
bool Server::running() const {
  return I->Started.load() && !I->Exited.load();
}
GenerationCell &Server::generations() { return I->Cell; }
uint64_t Server::requestsServed() const { return I->Requests.load(); }
bool Server::degraded() const { return I->Degraded.load(); }
uint64_t Server::reloadRetries() const {
  return I->ReloadRetriesTotal.load();
}
std::string Server::lastReloadError() const {
  std::lock_guard<std::mutex> Lock(I->ReloadMu);
  return I->LastReloadError;
}
