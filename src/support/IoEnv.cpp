//===- support/IoEnv.cpp - Pluggable I/O environment ------------------------===//

#include "support/IoEnv.h"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace hma;

//===----------------------------------------------------------------------===//
// Passthrough backend
//===----------------------------------------------------------------------===//

int IoEnv::open(const char *Path, int Flags, int Mode) {
  for (;;) {
    int Fd = ::open(Path, Flags, Mode);
    if (Fd >= 0)
      return Fd;
    if (errno != EINTR)
      return -errno;
  }
}

long IoEnv::read(int Fd, void *Buf, unsigned long N) {
  ssize_t R = ::read(Fd, Buf, N);
  return R >= 0 ? static_cast<long>(R) : -errno;
}

long IoEnv::write(int Fd, const void *Buf, unsigned long N) {
  ssize_t R = ::write(Fd, Buf, N);
  return R >= 0 ? static_cast<long>(R) : -errno;
}

int IoEnv::fsync(int Fd) { return ::fsync(Fd) == 0 ? 0 : -errno; }

int IoEnv::close(int Fd) { return ::close(Fd) == 0 ? 0 : -errno; }

int IoEnv::rename(const char *From, const char *To) {
  return ::rename(From, To) == 0 ? 0 : -errno;
}

int IoEnv::unlink(const char *Path) {
  return ::unlink(Path) == 0 ? 0 : -errno;
}

int IoEnv::mkdir(const char *Path, int Mode) {
  return ::mkdir(Path, static_cast<mode_t>(Mode)) == 0 ? 0 : -errno;
}

int IoEnv::fsyncDir(const char *Path) {
  int Fd = ::open(Path, O_RDONLY);
  if (Fd < 0)
    return -errno;
  int R = ::fsync(Fd) == 0 ? 0 : -errno;
  ::close(Fd);
  return R;
}


IoEnv &IoEnv::system() {
  static IoEnv E;
  return E;
}

//===----------------------------------------------------------------------===//
// Fault-injection backend
//===----------------------------------------------------------------------===//

FaultIoEnv::~FaultIoEnv() {
  for (auto &[Fd, F] : Files)
    ::close(Fd);
}

bool FaultIoEnv::tick() {
  ++Ops;
  if (Dead || Tripped || Plan.FailAtOp == 0 || Ops != Plan.FailAtOp)
    return false;
  Tripped = true;
  return true;
}

void FaultIoEnv::powerCut() {
  Dead = true;
  // Un-fsynced bytes never reached the platter: roll every file back to
  // its durable prefix.
  for (auto &[Fd, F] : Files) {
    F.Pending.clear();
    if (F.Tracked)
      (void)::ftruncate(Fd, static_cast<off_t>(F.SyncedBytes));
  }
  for (const auto &[Path, Synced] : UnsyncedTails)
    (void)::truncate(Path.c_str(), static_cast<off_t>(Synced));
  UnsyncedTails.clear();
}

long FaultIoEnv::flushPending(int Fd, OpenFile &F) {
  size_t Off = 0;
  while (Off < F.Pending.size()) {
    ssize_t R = ::pwrite(Fd, F.Pending.data() + Off, F.Pending.size() - Off,
                         static_cast<off_t>(F.SyncedBytes + Off));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -errno;
    }
    Off += static_cast<size_t>(R);
  }
  F.SyncedBytes += F.Pending.size();
  F.Pending.clear();
  return 0;
}

int FaultIoEnv::open(const char *Path, int Flags, int Mode) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  // EINTR on open is absorbed, not delivered: the IoEnv contract has
  // open retrying EINTR internally, so callers never see it.
  if (Fault && !Plan.EintrOnce) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    return -(Plan.Errno ? Plan.Errno : EIO);
  }
  int Fd = IoEnv::open(Path, Flags, Mode);
  if (Fd < 0)
    return Fd;
  OpenFile F;
  F.Path = Path;
  F.Tracked = (Flags & O_ACCMODE) != O_RDONLY;
  if ((Flags & O_TRUNC) != 0) {
    UnsyncedTails.erase(F.Path);
  } else {
    struct stat St;
    if (::fstat(Fd, &St) == 0)
      F.SyncedBytes = static_cast<uint64_t>(St.st_size);
  }
  Files.emplace(Fd, std::move(F));
  return Fd;
}

long FaultIoEnv::read(int Fd, void *Buf, unsigned long N) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.EintrOnce)
      return -EINTR;
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    return -(Plan.Errno ? Plan.Errno : EIO);
  }
  return IoEnv::read(Fd, Buf, N);
}

long FaultIoEnv::write(int Fd, const void *Buf, unsigned long N) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  auto It = Files.find(Fd);
  if (Fault) {
    if (Plan.EintrOnce)
      return -EINTR;
    if (Plan.TornWrite) {
      // Half the bytes straddle the failure: they hit the platter even
      // though nothing was fsynced -- the torn-file case. Count them as
      // durable *before* the power-cut rollback so they survive it.
      if (It != Files.end() && It->second.Tracked) {
        It->second.Pending.append(static_cast<const char *>(Buf), N / 2);
        (void)flushPending(Fd, It->second);
      }
      powerCut();
      return -EIO;
    }
    if (Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    return -(Plan.Errno ? Plan.Errno : EIO);
  }
  if (It != Files.end() && It->second.Tracked) {
    // Buffered: the bytes become visible to the real file only on fsync
    // (durably) or close (kernel-visible, still crash-discardable).
    It->second.Pending.append(static_cast<const char *>(Buf), N);
    return static_cast<long>(N);
  }
  return IoEnv::write(Fd, Buf, N);
}

int FaultIoEnv::fsync(int Fd) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    if (!Plan.EintrOnce)
      return -(Plan.Errno ? Plan.Errno : EIO);
    // EINTR on fsync is not retried by callers; let it through instead.
  }
  auto It = Files.find(Fd);
  if (It != Files.end() && It->second.Tracked) {
    long R = flushPending(Fd, It->second);
    if (R < 0)
      return static_cast<int>(R);
  }
  return IoEnv::fsync(Fd);
}

int FaultIoEnv::close(int Fd) {
  bool Fault = tick();
  auto It = Files.find(Fd);
  if (Dead || (Fault && (Plan.TornWrite || Plan.PowerCut))) {
    if (Fault)
      powerCut();
    // The process is "gone": release the real fd, report failure.
    if (It != Files.end()) {
      (void)IoEnv::close(Fd);
      Files.erase(It);
    }
    return -EIO;
  }
  if (Fault && !Plan.EintrOnce) {
    // A failed close still closes the fd (POSIX leaves it undefined;
    // Linux does). Pending bytes never reach the file: the real file
    // already holds exactly the durable prefix.
    if (It != Files.end()) {
      (void)IoEnv::close(Fd);
      Files.erase(It);
    }
    return -(Plan.Errno ? Plan.Errno : EIO);
  }
  if (It != Files.end()) {
    if (It->second.Tracked && !It->second.Pending.empty()) {
      // Data reaches the kernel but was never fsynced: remember the
      // durable prefix so a later power-cut can roll it back.
      uint64_t Durable = It->second.SyncedBytes;
      (void)flushPending(Fd, It->second);
      UnsyncedTails[It->second.Path] = Durable;
    }
    Files.erase(It);
  }
  return IoEnv::close(Fd);
}

int FaultIoEnv::rename(const char *From, const char *To) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    if (!Plan.EintrOnce)
      return -(Plan.Errno ? Plan.Errno : EIO);
  }
  int R = IoEnv::rename(From, To);
  if (R == 0) {
    auto It = UnsyncedTails.find(From);
    if (It != UnsyncedTails.end()) {
      UnsyncedTails[To] = It->second;
      UnsyncedTails.erase(It);
    } else {
      UnsyncedTails.erase(To);
    }
  }
  return R;
}

int FaultIoEnv::unlink(const char *Path) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    if (!Plan.EintrOnce)
      return -(Plan.Errno ? Plan.Errno : EIO);
  }
  int R = IoEnv::unlink(Path);
  if (R == 0)
    UnsyncedTails.erase(Path);
  return R;
}

int FaultIoEnv::mkdir(const char *Path, int Mode) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    if (!Plan.EintrOnce)
      return -(Plan.Errno ? Plan.Errno : EIO);
  }
  return IoEnv::mkdir(Path, Mode);
}

int FaultIoEnv::fsyncDir(const char *Path) {
  bool Fault = tick();
  if (Dead)
    return -EIO;
  if (Fault) {
    if (Plan.TornWrite || Plan.PowerCut) {
      powerCut();
      return -EIO;
    }
    if (!Plan.EintrOnce)
      return -(Plan.Errno ? Plan.Errno : EIO);
  }
  return IoEnv::fsyncDir(Path);
}
