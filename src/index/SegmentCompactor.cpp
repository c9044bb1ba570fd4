//===- index/SegmentCompactor.cpp - Segmented-index maintenance helpers -----===//

#include "index/SegmentCompactor.h"

#include <algorithm>
#include <ctime>

#include <dirent.h>
#include <sys/stat.h>

using namespace hma;

namespace {

/// mtime age of \p Path in seconds. Unknown (stat failure, clock skew)
/// reads as 0 -- "brand new" -- which errs on the side of never
/// deleting a file gc cannot date.
uint64_t fileAgeSeconds(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  time_t Now = ::time(nullptr);
  return Now > St.st_mtime ? static_cast<uint64_t>(Now - St.st_mtime) : 0;
}

} // namespace

std::vector<std::string> hma::listTmpFiles(const std::string &Dir) {
  std::vector<std::string> Tmps;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Tmps;
  while (struct dirent *Ent = ::readdir(D)) {
    const std::string Name = Ent->d_name;
    if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".tmp") == 0)
      Tmps.push_back(Name);
  }
  ::closedir(D);
  std::sort(Tmps.begin(), Tmps.end());
  return Tmps;
}

std::vector<std::string> hma::gcSegmentDir(const std::string &Dir,
                                           std::string *Error,
                                           const GcOptions &Opts) {
  IoEnv &Env = Opts.Env ? *Opts.Env : IoEnv::system();
  std::vector<std::string> Removed;
  std::string Bytes;
  if (!readFileBytes(manifestPathFor(Dir), Bytes, Error, Env))
    return Removed;
  SegmentManifest M;
  if (!SegmentManifest::decode(Bytes, M, Error))
    return Removed;

  std::vector<std::string> Victims = listUnreferencedSegments(Dir, M);
  for (std::string &Name : listTmpFiles(Dir))
    Victims.push_back(std::move(Name));

  for (const std::string &Name : Victims) {
    const std::string Path = Dir + "/" + Name;
    // The age guard: a file younger than the threshold may be a
    // concurrent append's in-flight segment (written, manifest swap
    // imminent). Deleting it would let that commit reference a missing
    // file. Crash leftovers an operator actually gc's are old.
    if (Opts.MinAgeSeconds != 0 && fileAgeSeconds(Path) < Opts.MinAgeSeconds)
      continue;
    if (Env.unlink(Path.c_str()) == 0)
      Removed.push_back(Name);
  }
  return Removed;
}
