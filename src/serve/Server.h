//===- serve/Server.h - hma indexd: fault-tolerant serving daemon -----------===//
///
/// \file
/// The long-lived serving daemon behind `hma indexd`: lookup /
/// lookupBatch / stats over a Unix-domain (and optional loopback TCP)
/// socket, speaking the length-prefixed protocol of serve/Protocol.h,
/// with hot index reload by refcounted generation swap
/// (serve/Generation.h).
///
/// Architecture:
///
///  - an **accept thread** owns the listening sockets and a self-pipe;
///    signal handlers (SIGTERM/SIGINT -> drain, SIGHUP -> reload) write
///    one byte to the pipe via \ref notifySignal, the only async-signal-
///    safe entry point. Accepted connections are handed round-robin to
///    the workers.
///  - a small **worker pool**: each worker runs a poll(2) loop over its
///    own connections plus a wake pipe. All I/O is non-blocking and
///    EINTR-safe; SIGPIPE is ignored process-wide. Each worker owns one
///    warm \ref AlphaHasher and one \ref DecodeScratch, and answers a
///    lookup on the same byte read path as an in-process `lookupBatch`
///    worker (\ref IndexReader::lookupSerialized), so the steady-state
///    request path allocates like one.
///  - requests pin the serving generation
///    (\ref GenerationCell::acquire) only while the reply is being
///    built; replies copy canonical bytes, so nothing on a connection
///    ever views a mapping that a swap could unmap.
///
/// Robustness posture (the headline, not an afterthought):
///
///  - frames are bounded (\ref ServerOptions::MaxFrameBytes): an
///    oversized declaration is answered from the 4 header bytes and the
///    connection closed, never buffered;
///  - malformed frames (bad version, unknown op, undecodable body) get a
///    clean error reply, then the connection closes;
///  - a partially-received frame older than
///    \ref ServerOptions::RequestTimeoutMs is a slow-loris: error reply,
///    close, `hma_indexd_deadline_kills_total` bumped. Idle connections
///    close after \ref ServerOptions::IdleTimeoutMs;
///  - per-connection write buffers are capped
///    (\ref ServerOptions::MaxWriteBufferBytes): a peer that stops
///    reading stops being read from (backpressure), and is closed if the
///    cap is exceeded outright;
///  - reloads (SIGHUP or the `Reload` op) run the deep-verify admission
///    gate; rejection keeps the old generation serving and counts
///    `hma_indexd_reload_rejected_total`;
///  - shutdown (SIGTERM/SIGINT or the `Shutdown` op) stops accepting,
///    answers everything already received, flushes, and exits 0 --
///    bounded by \ref ServerOptions::DrainTimeoutMs.
///
/// The class is a library object (the fault-injection harness in
/// tests/indexd_test.cpp runs it in-process); `tools/hma.cpp` wires it
/// to the `hma indexd` command and OS signals.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SERVE_SERVER_H
#define HMA_SERVE_SERVER_H

#include "serve/Generation.h"
#include "serve/Protocol.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace hma::serve {

/// True when this platform has the socket layer the daemon needs
/// (POSIX). On other platforms \ref Server::start fails with a
/// diagnostic instead of failing to compile.
bool serverSupported();

struct ServerOptions {
  std::string IndexPath;      ///< HMAI file served at startup.
  std::string UnixSocketPath; ///< Required; the daemon owns this path.
  uint16_t TcpPort = 0;       ///< Optional loopback TCP listener (0: off).
  unsigned Threads = 2;       ///< Worker pool size (>= 1).
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  int RequestTimeoutMs = 10000;   ///< Partial-frame (slow-loris) deadline.
  int IdleTimeoutMs = 60000;      ///< Close connections idle this long.
  int DrainTimeoutMs = 5000;      ///< Shutdown drain bound.
  size_t MaxWriteBufferBytes = size_t(32) << 20; ///< Backpressure cap.
  bool VerifyOnLoad = true; ///< Deep-verify admission gate (keep on).

  /// Degraded-mode retry schedule. A rejected reload never takes the
  /// daemon down: the old generation keeps serving (state `degraded`)
  /// and the accept thread retries the failed candidate with jittered
  /// exponential backoff -- base doubling up to the cap, at most
  /// \ref ReloadRetryLimit automatic attempts per failure episode
  /// (0 disables auto-retry; an operator reload always resets the
  /// schedule). Recovery is automatic: the first retry that passes the
  /// admission gate swaps the generation and clears the degraded state.
  int ReloadRetryBaseMs = 200;
  int ReloadRetryMaxMs = 30000;
  unsigned ReloadRetryLimit = 8;
};

/// The daemon. Construct, \ref start, then \ref waitForExit; see the
/// file comment for lifecycle details.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Load the initial index through the admission gate, bind the
  /// listeners, and spawn the accept/worker threads. False (with
  /// \p Error) on any failure; no threads are left running.
  bool start(std::string *Error);

  /// Async-signal-safe: forward \p Signo (SIGTERM/SIGINT/SIGHUP) to the
  /// accept thread via the self-pipe. Callable from a signal handler.
  void notifySignal(int Signo);

  /// Begin graceful shutdown (same as SIGTERM). Thread-safe.
  void requestStop();

  /// Trigger a reload of the current index path (same as SIGHUP).
  void requestReload();

  /// Block until the daemon has fully drained and every thread joined.
  /// Returns the process exit code (0 on a clean drain).
  int waitForExit();

  /// True once start() succeeded and until waitForExit() completes.
  bool running() const;

  /// The generation cell (tests pin/inspect generations through this).
  GenerationCell &generations();

  /// Total requests answered (any status). For tests and the stats op.
  uint64_t requestsServed() const;

  /// True while the daemon is serving an old generation because the
  /// last reload was rejected. Cleared by the next reload (manual or
  /// automatic retry) that passes the admission gate.
  bool degraded() const;

  /// Automatic reload retry attempts since startup.
  uint64_t reloadRetries() const;

  /// Diagnostic of the most recent failed reload (empty when healthy).
  std::string lastReloadError() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace hma::serve

#endif // HMA_SERVE_SERVER_H
