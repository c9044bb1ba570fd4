//===- index/MappedIndex.cpp - Zero-copy mmap'd HMAI reader ------------------===//

#include "index/MappedIndex.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

//===----------------------------------------------------------------------===//
// MappedBytes
//===----------------------------------------------------------------------===//

std::unique_ptr<MappedBytes> MappedBytes::openFile(const std::string &Path,
                                                   std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return nullptr;
  };
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Fail("cannot open '" + Path + "': " + std::strerror(errno));
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    const int Err = errno;
    ::close(Fd);
    return Fail("cannot stat '" + Path + "': " + std::strerror(Err));
  }
  if (!S_ISREG(St.st_mode)) {
    ::close(Fd);
    return Fail("cannot map '" + Path + "': not a regular file");
  }
  if (St.st_size == 0) {
    ::close(Fd);
    return Fail("cannot map '" + Path + "': file is empty");
  }
  const size_t Len = static_cast<size_t>(St.st_size);
  void *Map = ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0);
  const int Err = errno;
  ::close(Fd); // the mapping keeps its own reference
  if (Map == MAP_FAILED)
    return Fail("cannot map '" + Path + "': " + std::strerror(Err));
  return std::unique_ptr<MappedBytes>(new MappedBytes(Map, Len));
}

MappedBytes::~MappedBytes() { ::munmap(Map, MapLen); }
