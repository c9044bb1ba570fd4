//===- serve/Client.h - hma indexd client + chaos harness -------------------===//
///
/// \file
/// The client side of the serve/Protocol.h wire protocol, in two
/// personalities:
///
///  - \ref Client: the well-behaved one. Connects to `hma indexd` over
///    its Unix-domain socket, with per-operation deadlines and
///    jittered exponential-backoff connect retries --
///    a daemon mid-restart is an expected condition, not an error.
///    Backs `hma index query --connect` and `hma index ctl`.
///
///  - \ref runChaos: the deliberately hostile one. A misbehaving
///    client that sends torn frames, oversized
///    declarations, wrong-version and unknown-op frames, byte-dripped
///    slow-loris requests, pipelined floods, and mid-frame hangups --
///    then *verifies the daemon's response to each offence* (correct
///    error status, connection closed, daemon still serving). The
///    fault-injection tests and `hma index chaos` both drive this one
///    function, so the CLI can reproduce exactly what CI asserts.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SERVE_CLIENT_H
#define HMA_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hma::serve {

struct ClientOptions {
  std::string UnixSocketPath; ///< The daemon's socket.
  int TimeoutMs = 10000;      ///< Per-operation deadline (send + reply).
  int ConnectRetries = 5;     ///< Connect attempts before giving up.
  int RetryBaseMs = 50;       ///< Backoff base; doubles per attempt + jitter.
};

/// One decoded response frame.
struct Reply {
  Status S = Status::Internal;
  std::string Body;
  bool ok() const { return S == Status::Ok; }
};

/// A connection to the daemon. Not thread-safe; one Client per thread.
class Client {
public:
  explicit Client(ClientOptions Opts);
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connect with jittered exponential backoff. False (with \p Error)
  /// once every retry is exhausted.
  bool connect(std::string *Error);
  void close();
  bool connected() const { return Fd >= 0; }

  /// One request/response round trip. Connects lazily if needed.
  /// False on a *transport* failure (timeout, dead socket); a non-Ok
  /// status from the server is a successful call with `!R.ok()`.
  bool call(Op O, std::string_view Body, Reply &R, std::string *Error);

  // Typed conveniences over call().
  bool ping(std::string *Error);
  bool lookup(std::string_view ExprBlob, WireLookup &Out, std::string *Error);
  bool lookupBatch(const std::vector<std::string> &Blobs,
                   std::vector<WireLookup> &Out, std::string *Error);
  bool stats(StatsFormat F, std::string &Report, std::string *Error);
  /// Empty \p Path reloads the file the daemon is already serving.
  bool reload(std::string_view Path, Reply &R, std::string *Error);
  bool shutdownServer(std::string *Error);

private:
  ClientOptions Opts;
  int Fd = -1;
};

/// Run the misbehaving client against a live daemon, every mode in turn:
///   torn       half a frame, then silence: expect a Timeout kill
///   slowloris  a frame dripped slower than the deadline: Timeout kill
///   oversized  a declared length above the cap: TooLarge, then close
///   short      a sub-minimal declared length: Malformed, then close
///   garbage    random-looking bytes: an error status, then close
///   badversion an unknown version byte: BadVersion, then close
///   badop      an unknown opcode: BadOp, then close
///   hangup     half a frame, then abrupt close: daemon must not care
///   flood      pipelined pings in one write: every one answered Ok
///
/// Each mode opens its own connection, commits its offence, verifies
/// the daemon's reaction, and finally pings over a *fresh* connection
/// to prove the daemon survived. \p ServerRequestTimeoutMs must match
/// the daemon's configured partial-frame deadline (torn/slowloris wait
/// it out). Appends one PASS/FAIL line per mode to \p Log; returns the
/// number of failed modes (0: the daemon behaved under every attack).
int runChaos(const ClientOptions &Opts, int ServerRequestTimeoutMs,
             std::string &Log);

} // namespace hma::serve

#endif // HMA_SERVE_CLIENT_H
