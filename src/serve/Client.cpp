//===- serve/Client.cpp - hma indexd client + chaos harness -----------------===//

#include "serve/Client.h"

#include <cstring>
#include <random>
#include <thread>

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace hma;
using namespace hma::serve;

namespace {

#ifdef MSG_NOSIGNAL
constexpr int SendFlags = MSG_NOSIGNAL;
#else
constexpr int SendFlags = 0;
#endif

void setError(std::string *Error, std::string Msg) {
  if (Error)
    *Error = std::move(Msg);
}

/// One connect attempt (no retries). Returns the fd or -1.
int connectOnce(const ClientOptions &Opts, std::string *Error) {
  // A client process should not die of SIGPIPE either.
  ::signal(SIGPIPE, SIG_IGN);
  if (Opts.UnixSocketPath.empty()) {
    setError(Error, "no --connect socket given");
    return -1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.UnixSocketPath.size() >= sizeof(Addr.sun_path)) {
    setError(Error, "socket path too long: " + Opts.UnixSocketPath);
    return -1;
  }
  std::memcpy(Addr.sun_path, Opts.UnixSocketPath.c_str(),
              Opts.UnixSocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Error, std::string("socket() failed: ") + strerror(errno));
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    setError(Error, "connect('" + Opts.UnixSocketPath +
                        "') failed: " + strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Write all of \p Bytes within \p TimeoutMs, EINTR/EAGAIN-safe.
bool sendAllFd(int Fd, std::string_view Bytes, int TimeoutMs,
               std::string *Error) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t R =
        ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, SendFlags);
    if (R > 0) {
      Off += static_cast<size_t>(R);
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd P{Fd, POLLOUT, 0};
      int PR = ::poll(&P, 1, TimeoutMs);
      if (PR > 0)
        continue;
      setError(Error, PR == 0 ? "send timed out" : "poll failed");
      return false;
    }
    setError(Error, std::string("send failed: ") + strerror(errno));
    return false;
  }
  return true;
}

/// Read exactly \p N bytes within \p TimeoutMs. Returns bytes read
/// (< N means EOF or timeout; check \p Error / \p TimedOut).
size_t recvExact(int Fd, char *Buf, size_t N, int TimeoutMs,
                 bool *TimedOut = nullptr) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::recv(Fd, Buf + Got, N - Got, 0);
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R == 0)
      return Got; // EOF
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd P{Fd, POLLIN, 0};
      int PR = ::poll(&P, 1, TimeoutMs);
      if (PR > 0)
        continue;
      if (TimedOut)
        *TimedOut = PR == 0;
      return Got;
    }
    return Got;
  }
  return Got;
}

/// Receive one protocol frame. False on EOF / timeout / transport error
/// or an oversized declared length.
bool recvFrameFd(int Fd, int TimeoutMs, uint8_t &Ver, uint8_t &Kind,
                 std::string &Body, std::string *Error) {
  char Hdr[FrameHeaderBytes];
  bool TimedOut = false;
  if (recvExact(Fd, Hdr, sizeof(Hdr), TimeoutMs, &TimedOut) != sizeof(Hdr)) {
    setError(Error, TimedOut ? "reply timed out" : "connection closed");
    return false;
  }
  uint64_t Len = iio::getWordLE(Hdr, 4);
  if (Len < 2 || Len > DefaultMaxFrameBytes) {
    setError(Error, "reply frame length " + std::to_string(Len) +
                        " outside [2, " +
                        std::to_string(DefaultMaxFrameBytes) + "]");
    return false;
  }
  std::string Payload(static_cast<size_t>(Len), '\0');
  if (recvExact(Fd, Payload.data(), Payload.size(), TimeoutMs, &TimedOut) !=
      Payload.size()) {
    setError(Error, TimedOut ? "reply timed out" : "reply truncated");
    return false;
  }
  Ver = static_cast<uint8_t>(Payload[0]);
  Kind = static_cast<uint8_t>(Payload[1]);
  Body.assign(Payload, 2, Payload.size() - 2);
  return true;
}

/// Expect the server to close the connection within \p TimeoutMs.
bool recvEofFd(int Fd, int TimeoutMs) {
  char Buf[256];
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R == 0)
      return true;
    if (R > 0)
      continue; // Drain whatever is still in flight.
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0)
        return false;
      continue;
    }
    return true; // ECONNRESET etc. still counts as "closed on us".
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

Client::Client(ClientOptions O) : Opts(std::move(O)) {}
Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Client::connect(std::string *Error) {
  close();
  std::string LastError;
  // Jittered exponential backoff: restarts and drains are expected, and
  // jitter keeps a fleet of retrying clients from stampeding in phase.
  std::mt19937 Rng(std::random_device{}());
  int Attempts = Opts.ConnectRetries < 1 ? 1 : Opts.ConnectRetries;
  for (int I = 0; I != Attempts; ++I) {
    if (I != 0) {
      int Base = Opts.RetryBaseMs << (I - 1);
      int Jitter = std::uniform_int_distribution<int>(0, Base)(Rng);
      std::this_thread::sleep_for(std::chrono::milliseconds(Base + Jitter));
    }
    Fd = connectOnce(Opts, &LastError);
    if (Fd >= 0)
      return true;
  }
  setError(Error, LastError + " (after " + std::to_string(Attempts) +
                      " attempts)");
  return false;
}

bool Client::call(Op O, std::string_view Body, Reply &R, std::string *Error) {
  if (Fd < 0 && !connect(Error))
    return false;
  std::string Frame = encodeRequest(O, Body);
  if (!sendAllFd(Fd, Frame, Opts.TimeoutMs, Error)) {
    close();
    return false;
  }
  uint8_t Ver = 0, Kind = 0;
  if (!recvFrameFd(Fd, Opts.TimeoutMs, Ver, Kind, R.Body, Error)) {
    close();
    return false;
  }
  if (Ver != ProtocolVersion) {
    setError(Error, "server replied with protocol version " +
                        std::to_string(Ver));
    close();
    return false;
  }
  R.S = static_cast<Status>(Kind);
  return true;
}

bool Client::ping(std::string *Error) {
  Reply R;
  if (!call(Op::Ping, {}, R, Error))
    return false;
  if (!R.ok()) {
    setError(Error, std::string("ping: server said ") + statusName(R.S));
    return false;
  }
  return true;
}

bool Client::lookup(std::string_view ExprBlob, WireLookup &Out,
                    std::string *Error) {
  Reply R;
  if (!call(Op::Lookup, ExprBlob, R, Error))
    return false;
  if (!R.ok()) {
    setError(Error, "lookup: " + std::string(statusName(R.S)) + ": " +
                        R.Body);
    return false;
  }
  std::string_view Body = R.Body;
  if (!takeWireLookup(Body, Out) || !Body.empty()) {
    setError(Error, "lookup: reply body does not decode");
    return false;
  }
  return true;
}

bool Client::lookupBatch(const std::vector<std::string> &Blobs,
                         std::vector<WireLookup> &Out, std::string *Error) {
  Reply R;
  if (!call(Op::LookupBatch, encodeBatchRequest(Blobs), R, Error))
    return false;
  if (!R.ok()) {
    setError(Error, "lookupBatch: " + std::string(statusName(R.S)) + ": " +
                        R.Body);
    return false;
  }
  if (!parseBatchResponse(R.Body, Out)) {
    setError(Error, "lookupBatch: reply body does not decode");
    return false;
  }
  return true;
}

bool Client::stats(StatsFormat F, std::string &Report, std::string *Error) {
  std::string Body(1, static_cast<char>(F));
  Reply R;
  if (!call(Op::Stats, Body, R, Error))
    return false;
  if (!R.ok()) {
    setError(Error, "stats: " + std::string(statusName(R.S)) + ": " + R.Body);
    return false;
  }
  Report = std::move(R.Body);
  return true;
}

bool Client::reload(std::string_view Path, Reply &R, std::string *Error) {
  return call(Op::Reload, encodeReloadRequest(Path), R, Error);
}

bool Client::shutdownServer(std::string *Error) {
  Reply R;
  if (!call(Op::Shutdown, {}, R, Error))
    return false;
  if (!R.ok()) {
    setError(Error, std::string("shutdown: server said ") + statusName(R.S));
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Chaos harness
//===----------------------------------------------------------------------===//

namespace {

struct ChaosCtx {
  const ClientOptions &Opts;
  int ServerDeadlineMs;
  std::string &Log;
  int Failures = 0;

  /// Generous bound for "the server must have reacted by now".
  int reactionMs() const { return ServerDeadlineMs * 4 + 2000; }

  void report(const char *Mode, bool Ok, const std::string &Detail) {
    Log += Ok ? "PASS " : "FAIL ";
    Log += Mode;
    if (!Detail.empty()) {
      Log += ": ";
      Log += Detail;
    }
    Log += '\n';
    if (!Ok)
      ++Failures;
  }

  int freshConn(std::string &Detail) {
    std::string Error;
    int Fd = connectOnce(Opts, &Error);
    if (Fd < 0)
      Detail = Error;
    return Fd;
  }

  /// After an offence: the daemon must still answer a ping on a fresh
  /// connection. This is the "still serving" half of every assertion.
  bool daemonAlive(std::string &Detail) {
    Client C(Opts);
    std::string Error;
    if (!C.ping(&Error)) {
      Detail = "daemon did not survive: " + Error;
      return false;
    }
    return true;
  }

  /// Expect an error reply with \p Want (Status::Internal: any non-Ok),
  /// then EOF.
  bool expectErrorThenClose(int Fd, Status Want, std::string &Detail) {
    uint8_t Ver = 0, Kind = 0;
    std::string Body, Error;
    if (!recvFrameFd(Fd, reactionMs(), Ver, Kind, Body, &Error)) {
      Detail = "expected an error reply, got: " + Error;
      return false;
    }
    Status Got = static_cast<Status>(Kind);
    if (Got == Status::Ok || (Want != Status::Internal && Got != Want)) {
      Detail = std::string("expected status ") + statusName(Want) +
               ", got " + statusName(Got);
      return false;
    }
    if (!recvEofFd(Fd, reactionMs())) {
      Detail = "server kept the connection open after the offence";
      return false;
    }
    return true;
  }
};

/// The offences whose reaction is one error reply, then a close: send
/// \p Bytes on a fresh connection, expect \p Want (Status::Internal: any
/// non-Ok status) and EOF, then a ping on another connection.
void chaosOffence(ChaosCtx &X, const char *Mode, std::string_view Bytes,
                  Status Want) {
  std::string Detail;
  int Fd = X.freshConn(Detail);
  if (Fd < 0)
    return X.report(Mode, false, Detail);
  bool Ok = sendAllFd(Fd, Bytes, X.reactionMs(), nullptr) &&
            X.expectErrorThenClose(Fd, Want, Detail) && X.daemonAlive(Detail);
  ::close(Fd);
  X.report(Mode, Ok, Detail);
}

/// A frame header declaring \p Len payload bytes, then \p Bytes.
std::string declared(uint64_t Len, std::string Bytes) {
  std::string Frame;
  iio::putWordLE(Frame, Len, 4);
  return Frame + Bytes;
}

void chaosSlowLoris(ChaosCtx &X) {
  std::string Detail;
  int Fd = X.freshConn(Detail);
  if (Fd < 0)
    return X.report("slowloris", false, Detail);
  // Drip a large frame slower than it could ever complete: ~10 bytes
  // per deadline's-worth of time means the declared 4096 bytes would
  // take hundreds of deadlines to arrive.
  std::string Frame = declared(
      4096, std::string{static_cast<char>(ProtocolVersion),
                        static_cast<char>(Op::Ping)} +
                std::string(64, 'z'));
  int StepMs = X.ServerDeadlineMs / 8 + 1;
  bool Killed = false;
  for (size_t I = 0; I != Frame.size(); ++I) {
    if (!sendAllFd(Fd, std::string_view(Frame.data() + I, 1), 1000,
                   nullptr)) {
      // The server killing us mid-drip is the expected outcome.
      Killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(StepMs));
  }
  bool Ok = (Killed || X.expectErrorThenClose(Fd, Status::Timeout, Detail)) &&
            X.daemonAlive(Detail);
  ::close(Fd);
  X.report("slowloris", Ok, Detail);
}

void chaosHangup(ChaosCtx &X) {
  std::string Detail;
  int Fd = X.freshConn(Detail);
  if (Fd < 0)
    return X.report("hangup", false, Detail);
  bool Ok = sendAllFd(Fd, declared(1024, std::string(16, 'h')),
                      X.reactionMs(), nullptr);
  ::close(Fd); // Abrupt mid-frame hangup.
  Ok = Ok && X.daemonAlive(Detail);
  X.report("hangup", Ok, Detail);
}

void chaosFlood(ChaosCtx &X) {
  std::string Detail;
  // 256 pipelined pings in one write; every one must come back Ok, in
  // order, on the same connection.
  constexpr int N = 256;
  int Fd = X.freshConn(Detail);
  if (Fd < 0)
    return X.report("flood", false, Detail);
  std::string Burst;
  for (int I = 0; I != N; ++I)
    Burst += encodeRequest(Op::Ping);
  bool Ok = sendAllFd(Fd, Burst, X.reactionMs(), nullptr);
  for (int I = 0; Ok && I != N; ++I) {
    uint8_t Ver = 0, Kind = 0;
    std::string Body, Error;
    if (!recvFrameFd(Fd, X.reactionMs(), Ver, Kind, Body, &Error)) {
      Detail = "reply " + std::to_string(I) + " of " + std::to_string(N) +
               ": " + Error;
      Ok = false;
    } else if (static_cast<Status>(Kind) != Status::Ok) {
      Detail = "reply " + std::to_string(I) + " was " +
               statusName(static_cast<Status>(Kind));
      Ok = false;
    }
  }
  ::close(Fd);
  Ok = Ok && X.daemonAlive(Detail);
  X.report("flood", Ok, Detail);
}

} // namespace

int hma::serve::runChaos(const ClientOptions &Opts,
                         int ServerRequestTimeoutMs, std::string &Log) {
  ChaosCtx X{Opts, ServerRequestTimeoutMs, Log};
  // Declare 64 bytes, deliver 8, go silent: the slow-loris deadline
  // must kill this with a Timeout reply.
  chaosOffence(X, "torn", declared(64, std::string(8, 'x')), Status::Timeout);
  chaosSlowLoris(X);
  chaosOffence(X, "oversized", declared(DefaultMaxFrameBytes + 1, {}),
               Status::TooLarge);
  // Too short to hold version + op.
  chaosOffence(X, "short", declared(1, "?"), Status::Malformed);
  // Looks nothing like a frame; the first 4 bytes decode to a length in
  // the gigabytes, which the cap rejects.
  chaosOffence(X, "garbage", "\xde\xad\xbe\xef not a frame at all",
               Status::Internal);
  chaosOffence(X, "badversion",
               declared(2, {static_cast<char>(ProtocolVersion + 41),
                            static_cast<char>(Op::Ping)}),
               Status::BadVersion);
  chaosOffence(X, "badop",
               declared(2, {static_cast<char>(ProtocolVersion), '\xEE'}),
               Status::BadOp);
  chaosHangup(X);
  chaosFlood(X);
  return X.Failures;
}
