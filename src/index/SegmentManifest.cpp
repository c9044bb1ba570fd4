//===- index/SegmentManifest.cpp - Segmented-index MANIFEST codec -----------===//

#include "index/SegmentManifest.h"

#include "index/IndexIO.h"

#include <algorithm>
#include <cstdio>

#include <dirent.h>
#include <sys/stat.h>

using namespace hma;

uint64_t hma::fnv1a64(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull; // FNV prime
  }
  return H;
}

std::string SegmentManifest::encode() const {
  std::string Out;
  Out.append(smf::Magic, sizeof(smf::Magic));
  iio::putWordLE(Out, Version, 4);
  iio::putWordLE(Out, Seed, 8);
  iio::putWordLE(Out, HashBits, 4);
  iio::putWordLE(Out, Segments.size(), 4);
  iio::putWordLE(Out, NextId, 8);
  for (const SegmentEntry &E : Segments) {
    iio::putWordLE(Out, E.Name.size(), 4);
    Out += E.Name;
    iio::putWordLE(Out, E.FileBytes, 8);
    iio::putWordLE(Out, E.Classes, 8);
    iio::putWordLE(Out, E.Fresh, 8);
  }
  iio::putWordLE(Out, fnv1a64(Out), 8);
  return Out;
}

namespace {

bool decodeFail(std::string Message, size_t Pos, std::string *Error,
                size_t *ErrorPos) {
  if (Error)
    *Error = std::move(Message);
  if (ErrorPos)
    *ErrorPos = Pos;
  return false;
}

} // namespace

bool SegmentManifest::decode(std::string_view Bytes, SegmentManifest &Out,
                             std::string *Error, size_t *ErrorPos) {
  if (Bytes.size() < sizeof(smf::Magic) ||
      Bytes.compare(0, sizeof(smf::Magic),
                    std::string_view(smf::Magic, sizeof(smf::Magic))) != 0)
    return decodeFail("missing manifest magic 'HMAS'", 0, Error, ErrorPos);
  if (Bytes.size() < smf::FixedHeaderSize + smf::ChecksumSize)
    return decodeFail("truncated manifest header", Bytes.size(), Error,
                      ErrorPos);

  // Checksum first: a torn or bit-flipped manifest must be rejected as
  // such, not misparsed into a plausible-looking entry list.
  const size_t BodyEnd = Bytes.size() - smf::ChecksumSize;
  const uint64_t Declared = iio::getWordLE(Bytes.data() + BodyEnd, 8);
  const uint64_t Actual = fnv1a64(Bytes.substr(0, BodyEnd));
  if (Declared != Actual)
    return decodeFail("manifest checksum mismatch", BodyEnd, Error, ErrorPos);

  const char *P = Bytes.data();
  Out.Version = static_cast<uint32_t>(iio::getWordLE(P + 4, 4));
  if (Out.Version != smf::Version)
    return decodeFail("unsupported manifest version " +
                          std::to_string(Out.Version) + " (reader speaks " +
                          std::to_string(smf::Version) + ")",
                      4, Error, ErrorPos);
  Out.Seed = iio::getWordLE(P + 8, 8);
  Out.HashBits = static_cast<unsigned>(iio::getWordLE(P + 16, 4));
  const uint32_t NumSegments =
      static_cast<uint32_t>(iio::getWordLE(P + 20, 4));
  Out.NextId = iio::getWordLE(P + 24, 8);

  if (Out.HashBits != 16 && Out.HashBits != 32 && Out.HashBits != 64 &&
      Out.HashBits != 128)
    return decodeFail("unsupported hash width b=" +
                          std::to_string(Out.HashBits),
                      16, Error, ErrorPos);

  Out.Segments.clear();
  size_t Pos = smf::FixedHeaderSize;
  for (uint32_t I = 0; I != NumSegments; ++I) {
    if (Pos + 4 > BodyEnd)
      return decodeFail("manifest entry " + std::to_string(I) +
                            " overruns the file",
                        Pos, Error, ErrorPos);
    const size_t NameLen =
        static_cast<size_t>(iio::getWordLE(P + Pos, 4));
    Pos += 4;
    if (NameLen == 0 || NameLen > BodyEnd - Pos)
      return decodeFail("manifest entry " + std::to_string(I) +
                            " has a bad name length",
                        Pos - 4, Error, ErrorPos);
    SegmentEntry E;
    E.Name.assign(P + Pos, NameLen);
    // Entry names are file names *inside* the index directory; a name
    // with a separator (or a path walk) must never have been written,
    // and accepting one would let a crafted manifest read outside the
    // directory.
    if (E.Name.find('/') != std::string::npos ||
        E.Name.find('\\') != std::string::npos || E.Name == "." ||
        E.Name == "..")
      return decodeFail("manifest entry " + std::to_string(I) +
                            " names a path, not a file",
                        Pos, Error, ErrorPos);
    Pos += NameLen;
    if (Pos + 24 > BodyEnd)
      return decodeFail("manifest entry " + std::to_string(I) +
                            " overruns the file",
                        Pos, Error, ErrorPos);
    E.FileBytes = iio::getWordLE(P + Pos, 8);
    E.Classes = iio::getWordLE(P + Pos + 8, 8);
    E.Fresh = iio::getWordLE(P + Pos + 16, 8);
    Pos += 24;
    Out.Segments.push_back(std::move(E));
  }
  if (Pos != BodyEnd)
    return decodeFail("manifest has " + std::to_string(BodyEnd - Pos) +
                          " trailing bytes after the entry list",
                      Pos, Error, ErrorPos);
  return true;
}

std::string hma::manifestPathFor(const std::string &Dir) {
  return Dir + "/" + smf::manifestFileName();
}

std::string hma::segmentFileName(uint64_t Id) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "seg-%06llu.hmai",
                static_cast<unsigned long long>(Id));
  return Buf;
}

bool hma::isSegmentFileName(std::string_view Name) {
  return Name.size() >= 9 && Name.substr(0, 4) == "seg-" &&
         Name.substr(Name.size() - 5) == ".hmai";
}

bool hma::isSegmentDir(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return false;
  struct stat MSt;
  return ::stat(manifestPathFor(Path).c_str(), &MSt) == 0 &&
         S_ISREG(MSt.st_mode);
}

bool hma::writeManifestReplacing(const std::string &Dir,
                                 const SegmentManifest &M, std::string *Error,
                                 IoEnv &Env) {
  return writeFileReplacing(manifestPathFor(Dir), M.encode(), Error, Env);
}

std::vector<std::string>
hma::listUnreferencedSegments(const std::string &Dir,
                              const SegmentManifest &M) {
  std::vector<std::string> Orphans;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Orphans;
  while (struct dirent *Ent = ::readdir(D)) {
    const std::string Name = Ent->d_name;
    if (!isSegmentFileName(Name))
      continue;
    bool Listed = false;
    for (const SegmentEntry &E : M.Segments)
      Listed = Listed || E.Name == Name;
    if (!Listed)
      Orphans.push_back(Name);
  }
  ::closedir(D);
  std::sort(Orphans.begin(), Orphans.end());
  return Orphans;
}
