//===- support/IoEnv.h - Pluggable I/O environment with fault injection ----===//
///
/// \file
/// Every durable write the index makes -- HMAI saves, manifest swaps,
/// segment appends, compaction, gc -- goes through an \ref IoEnv: a
/// virtual syscall surface (open/read/write/fsync/close/rename/unlink/
/// mkdir/fsyncDir) whose production backend is a thin passthrough to the
/// OS and whose test backend, \ref FaultIoEnv, injects failures
/// *deterministically*:
///
///  - **errno-at-N**: the Nth environment call fails once with a chosen
///    errno (ENOSPC, EIO, ...); everything after it succeeds, so the
///    caller's error path (unlink the partial tmp, report the errno)
///    runs against a live filesystem.
///  - **EINTR-once**: the Nth call fails once with EINTR and succeeds on
///    retry -- callers must loop, and the fault proves they do.
///  - **torn write**: the Nth call, if a write, persists only a prefix
///    of its bytes and then power-cuts -- the torn tmp a real crash
///    leaves mid-write.
///  - **power-cut**: from call N onward every operation fails, and bytes
///    written since the last fsync are *discarded* (writes are buffered
///    per fd and only reach the real file on fsync), so the directory
///    afterwards holds exactly what a real crash would have persisted.
///
/// The model's durability rules match the writers' commit discipline
/// (tmp-write + fsync + rename + parent-dir fsync, see
/// index/IndexIO.cpp): a rename that returned success is treated as
/// durable (the writers always fsync file data first and the directory
/// after), and metadata ops (unlink/mkdir) are durable once they return.
/// What the model refuses to make durable is exactly the thing the
/// discipline exists to protect: file *data* that was never fsynced.
///
/// \ref FaultIoEnv::opCount lets a test driver run an operation once
/// unfaulted, learn its call count N, and then replay it N times
/// crashing at every k in 1..N -- the exhaustive crash matrix of
/// tests/crash_matrix_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_IOENV_H
#define HMA_SUPPORT_IOENV_H

#include <cstdint>
#include <map>
#include <string>

namespace hma {

/// The syscall surface the index's write paths run on. Methods return
/// >= 0 on success and -errno on failure (never -1/errno-global), so a
/// faulted backend can deliver precise errors without thread-local
/// state. The default implementation passes through to the OS.
class IoEnv {
public:
  virtual ~IoEnv() = default;

  /// open(2). \p Flags are the usual O_* flags; \p Mode applies under
  /// O_CREAT. Returns an fd or -errno.
  virtual int open(const char *Path, int Flags, int Mode);
  /// read(2): bytes read (0 at EOF) or -errno.
  virtual long read(int Fd, void *Buf, unsigned long N);
  /// write(2): bytes accepted (may be short) or -errno.
  virtual long write(int Fd, const void *Buf, unsigned long N);
  /// fsync(2): commit the fd's data to stable storage.
  virtual int fsync(int Fd);
  /// close(2).
  virtual int close(int Fd);
  /// rename(2): atomically replace \p To with \p From.
  virtual int rename(const char *From, const char *To);
  /// unlink(2) / remove for files.
  virtual int unlink(const char *Path);
  /// mkdir(2). -EEXIST if the directory is already there.
  virtual int mkdir(const char *Path, int Mode);
  /// Open-fsync-close of a *directory*, committing entry renames/unlinks
  /// to disk. One environment call. Best-effort at the call sites (some
  /// filesystems refuse directory fds); still faultable.
  virtual int fsyncDir(const char *Path);

  /// The production passthrough environment (a process-lifetime
  /// singleton; stateless and thread-safe).
  static IoEnv &system();
};

/// One deterministic failure, described ahead of time.
struct FaultPlan {
  /// 1-based index of the environment call the fault fires at; 0 means
  /// never (useful for the counting pass).
  uint64_t FailAtOp = 0;
  /// errno delivered at FailAtOp (errno-at-N mode). Ignored when one of
  /// the flags below selects a different fault shape.
  int Errno = 5; // EIO
  /// From FailAtOp onward every call fails and un-fsynced bytes are
  /// discarded -- the crash simulation.
  bool PowerCut = false;
  /// At FailAtOp (which must land on a write to matter): persist half
  /// the bytes, then power-cut. Models a torn sector-straddling write.
  bool TornWrite = false;
  /// At FailAtOp: fail once with EINTR, then let the retry through.
  bool EintrOnce = false;
};

/// Deterministic fault-injection backend. Writes are buffered per fd
/// and reach the real file only on fsync (or, non-durably, on close);
/// a power-cut truncates every file back to its last-synced prefix, so
/// the on-disk state afterwards is byte-for-byte what a real crash
/// would leave. Not thread-safe: one test, one env, one thread.
class FaultIoEnv : public IoEnv {
public:
  explicit FaultIoEnv(FaultPlan P = {}) : Plan(P) {}
  ~FaultIoEnv() override;

  /// Environment calls made so far (the counting pass reads this).
  uint64_t opCount() const { return Ops; }
  /// True once the planned fault has fired.
  bool tripped() const { return Tripped; }
  /// True once the environment is in the post-power-cut dead state.
  bool dead() const { return Dead; }

  int open(const char *Path, int Flags, int Mode) override;
  long read(int Fd, void *Buf, unsigned long N) override;
  long write(int Fd, const void *Buf, unsigned long N) override;
  int fsync(int Fd) override;
  int close(int Fd) override;
  int rename(const char *From, const char *To) override;
  int unlink(const char *Path) override;
  int mkdir(const char *Path, int Mode) override;
  int fsyncDir(const char *Path) override;

private:
  struct OpenFile {
    std::string Path;
    std::string Pending;      ///< Written but not fsynced.
    uint64_t SyncedBytes = 0; ///< Durable prefix length.
    bool Tracked = false;     ///< Opened for writing (buffered).
  };

  /// Returns true when this call is the planned fault; advances Ops.
  bool tick();
  void powerCut();
  long flushPending(int Fd, OpenFile &F);

  FaultPlan Plan;
  uint64_t Ops = 0;
  bool Tripped = false;
  bool Dead = false;
  std::map<int, OpenFile> Files;
  /// Files closed with un-fsynced bytes: path -> durable prefix. A
  /// power-cut truncates them; a clean end of test leaves them alone
  /// (the bytes did reach the kernel).
  std::map<std::string, uint64_t> UnsyncedTails;
};

} // namespace hma

#endif // HMA_SUPPORT_IOENV_H
