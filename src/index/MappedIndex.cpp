//===- index/MappedIndex.cpp - Zero-copy mmap'd HMAI reader ------------------===//

#include "index/MappedIndex.h"

#include "index/IndexIO.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define HMA_HAVE_MMAP 1
#endif

using namespace hma;

//===----------------------------------------------------------------------===//
// MappedBytes
//===----------------------------------------------------------------------===//

std::unique_ptr<MappedBytes> MappedBytes::openFile(const std::string &Path,
                                                   bool ForceBuffered,
                                                   std::string *Error) {
#ifdef HMA_HAVE_MMAP
  if (!ForceBuffered) {
    int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd < 0) {
      if (Error)
        *Error = "cannot open '" + Path + "': " + std::strerror(errno);
      return nullptr;
    }
    struct stat St;
    if (::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode) && St.st_size > 0) {
      void *Map = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                         MAP_PRIVATE, Fd, 0);
      ::close(Fd); // the mapping keeps its own reference
      if (Map != MAP_FAILED) {
        std::unique_ptr<MappedBytes> M(new MappedBytes());
        M->Map = Map;
        M->MapLen = static_cast<size_t>(St.st_size);
        M->View = std::string_view(static_cast<const char *>(Map), M->MapLen);
        return M;
      }
      // mmap refused (e.g. a filesystem without mapping support): fall
      // through to the buffered path below rather than failing the open.
    } else {
      ::close(Fd);
    }
  }
#else
  (void)ForceBuffered;
#endif
  std::string Bytes;
  if (!readFileBytes(Path, Bytes, Error))
    return nullptr;
  return fromBuffer(std::move(Bytes));
}

std::unique_ptr<MappedBytes> MappedBytes::fromBuffer(std::string Buffer) {
  std::unique_ptr<MappedBytes> M(new MappedBytes());
  M->Buffer = std::move(Buffer);
  M->View = M->Buffer;
  return M;
}

MappedBytes::~MappedBytes() {
#ifdef HMA_HAVE_MMAP
  if (Map)
    ::munmap(Map, MapLen);
#endif
}
