//===- perfbench/src/CountingIoEnv.h - I/O accounting for the write path ---===//
///
/// \file
/// An \ref hma::IoEnv that delegates every call to `IoEnv::system()` and
/// counts what the segmented write path asks of the filesystem: bytes
/// written, fsyncs, directory fsyncs and renames, plus the time spent in
/// fsync. Passed through `SegmentAppendOptions::Env` and
/// `compactSegments(Dir, Env)`, so the library is measured unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COUNTINGIOENV_H
#define PERFBENCH_COUNTINGIOENV_H

#include "Common.h"

#include "support/IoEnv.h"

namespace perfbench {

class CountingIoEnv : public hma::IoEnv {
public:
  struct Counts {
    uint64_t BytesWritten = 0;
    uint64_t Fsyncs = 0;
    uint64_t FsyncDirs = 0;
    uint64_t Renames = 0;
    uint64_t FsyncNs = 0; ///< Time in fsync and fsyncDir.
  };

  const Counts &counts() const { return C; }

  int open(const char *Path, int Flags, int Mode) override {
    return sys().open(Path, Flags, Mode);
  }
  long read(int Fd, void *Buf, unsigned long N) override {
    return sys().read(Fd, Buf, N);
  }
  long write(int Fd, const void *Buf, unsigned long N) override {
    long R = sys().write(Fd, Buf, N);
    if (R > 0)
      C.BytesWritten += static_cast<uint64_t>(R);
    return R;
  }
  int fsync(int Fd) override {
    const uint64_t T0 = nowNs();
    int R = sys().fsync(Fd);
    C.FsyncNs += nowNs() - T0;
    ++C.Fsyncs;
    return R;
  }
  int close(int Fd) override { return sys().close(Fd); }
  int rename(const char *From, const char *To) override {
    ++C.Renames;
    return sys().rename(From, To);
  }
  int unlink(const char *Path) override { return sys().unlink(Path); }
  int mkdir(const char *Path, int Mode) override {
    return sys().mkdir(Path, Mode);
  }
  int fsyncDir(const char *Path) override {
    const uint64_t T0 = nowNs();
    int R = sys().fsyncDir(Path);
    C.FsyncNs += nowNs() - T0;
    ++C.FsyncDirs;
    return R;
  }

private:
  static hma::IoEnv &sys() { return hma::IoEnv::system(); }
  Counts C;
};

} // namespace perfbench

#endif // PERFBENCH_COUNTINGIOENV_H
