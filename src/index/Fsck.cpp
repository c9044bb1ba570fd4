//===- index/Fsck.cpp - Index integrity checker and repairer ----------------===//

#include "index/Fsck.h"

#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"

#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

namespace {

bool isRegularFile(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

void addDebris(FsckReport &R, FsckIssueKind Kind, std::string Path,
               const char *Detail) {
  R.Issues.push_back({Kind, std::move(Path), Detail, /*Repairable=*/true});
}

/// Mark the issue filed under \p Path repaired.
void markRepaired(FsckReport &R, const std::string &Path) {
  for (FsckIssue &I : R.Issues)
    if (I.Path == Path)
      I.Repaired = true;
}

} // namespace

const char *hma::fsckIssueKindName(FsckIssueKind K) {
  switch (K) {
  case FsckIssueKind::OrphanTmp:
    return "orphan-tmp";
  case FsckIssueKind::UnreferencedSegment:
    return "unreferenced-segment";
  case FsckIssueKind::Damage:
    return "damage";
  }
  return "unknown";
}

bool FsckReport::hasRepairableDebris() const {
  for (const FsckIssue &I : Issues)
    if (I.Repairable && !I.Repaired)
      return true;
  return false;
}

std::string FsckReport::render(const std::string &Path) const {
  std::string Out =
      Path + (Segmented ? ": segmented index" : ": single-file index");
  if (Serviceable)
    Out += ", " + std::to_string(Classes) + " class(es)";
  Out += "\n";
  for (const FsckIssue &I : Issues) {
    Out += "  [" + std::string(fsckIssueKindName(I.Kind)) + "] " + I.Path +
           ": " + I.Detail;
    if (I.Repaired)
      Out += " (repaired)";
    else if (I.Repairable)
      Out += " (repairable)";
    Out += "\n";
  }
  if (Healthy)
    Out += "state: healthy\n";
  else if (Serviceable)
    Out += "state: serviceable (committed state intact, debris present)\n";
  else
    Out += "state: damaged (committed state unreadable)\n";
  return Out;
}

FsckReport hma::fsckIndex(const std::string &Path, const FsckOptions &Opts) {
  FsckReport R;
  struct stat St;
  R.Segmented = ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);

  // The verdict is the serving gate's, at the width every serving path
  // reads.
  OpenedIndex<Hash128> Opened = openIndex<Hash128>(Path);
  if (!Opened.ok()) {
    R.Issues.push_back(
        {FsckIssueKind::Damage, Path, std::move(Opened.Error)});
    return R;
  }
  R.Serviceable = true;
  R.Classes = Opened.Reader->numClasses();

  // Debris: deleting it cannot change what a reader observes -- the
  // committed state never names it.
  const char *TmpDetail = "stale temporary file from an interrupted write";
  if (R.Segmented) {
    for (std::string &Name : Opened.Orphans)
      addDebris(R, FsckIssueKind::UnreferencedSegment, std::move(Name),
                "not listed in the manifest");
    for (std::string &Name : listTmpFiles(Path))
      addDebris(R, FsckIssueKind::OrphanTmp, std::move(Name), TmpDetail);
    if (Opts.Repair && !R.Issues.empty()) {
      GcOptions Offline;
      Offline.MinAgeSeconds = 0; // fsck --repair runs with no writer live
      for (const std::string &Name : gcSegmentDir(Path, nullptr, Offline))
        markRepaired(R, Name);
    }
  } else if (const std::string Tmp = Path + ".tmp"; isRegularFile(Tmp)) {
    addDebris(R, FsckIssueKind::OrphanTmp, Tmp, TmpDetail);
    if (Opts.Repair && ::unlink(Tmp.c_str()) == 0)
      markRepaired(R, Tmp);
  }

  R.Healthy = !R.hasRepairableDebris();
  return R;
}
