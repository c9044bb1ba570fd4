//===- index/Fsck.cpp - Index integrity checker and repairer ----------------===//

#include "index/Fsck.h"

#include "index/IndexIO.h"
#include "index/MappedIndex.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentManifest.h"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

using namespace hma;

namespace {

/// Full record/sidecar validation of one `HMAI` image at the width its
/// own header declares: the same `open` + `verify` every read path runs,
/// so fsck accepts a file iff every reader would. Returns the
/// diagnostic, empty on success.
template <typename H> std::string deepValidate(std::string_view Bytes) {
  typename MappedIndex<H>::OpenResult R = MappedIndex<H>::openBytes(Bytes);
  if (!R.ok())
    return R.Error;
  std::string Error;
  return R.Reader->verify(&Error) ? std::string() : Error;
}

std::string deepValidateAtWidth(unsigned HashBits, std::string_view Bytes) {
  switch (HashBits) {
  case 16:
    return deepValidate<Hash16>(Bytes);
  case 32:
    return deepValidate<Hash32>(Bytes);
  case 64:
    return deepValidate<Hash64>(Bytes);
  case 128:
    return deepValidate<Hash128>(Bytes);
  }
  return "unsupported hash width b=" + std::to_string(HashBits);
}

/// Classify a probe/load diagnostic: errors that mean "the file ends too
/// early" are \ref FsckIssueKind::TruncatedTail (the classic torn-write
/// shape), everything else is corruption.
bool looksTruncated(const std::string &Error) {
  return Error.find("truncated") != std::string::npos ||
         Error.find("overruns") != std::string::npos ||
         Error.find("does not span") != std::string::npos;
}

struct Checker {
  const FsckOptions &Opts;
  IoEnv &Env;
  FsckReport Report;

  void addIssue(FsckIssueKind Kind, std::string Path, std::string Detail,
                bool Repairable = false) {
    FsckIssue I;
    I.Kind = Kind;
    I.Path = std::move(Path);
    I.Detail = std::move(Detail);
    I.Repairable = Repairable;
    Report.Issues.push_back(std::move(I));
  }

  /// Validate one `HMAI` image; \p Name is what issues are filed under.
  /// Returns true if the image is fully readable.
  bool checkImage(const std::string &Name, std::string_view Bytes) {
    IndexFileInfo Info;
    std::string Error;
    if (!probeIndexBytes(Bytes, Info, &Error)) {
      addIssue(looksTruncated(Error) ? FsckIssueKind::TruncatedTail
                                     : FsckIssueKind::CorruptSegment,
               Name, Error);
      return false;
    }
    Error = deepValidateAtWidth(Info.HashBits, Bytes);
    if (!Error.empty()) {
      addIssue(looksTruncated(Error) ? FsckIssueKind::TruncatedTail
                                     : FsckIssueKind::CorruptSegment,
               Name, Error);
      return false;
    }
    return true;
  }

  /// A segmented directory: the manifest is the source of truth; every
  /// referenced segment must validate, everything else is debris.
  void checkSegmentDir(const std::string &Dir) {
    Report.Segmented = true;
    std::string Bytes;
    std::string Error;
    if (!readFileBytes(manifestPathFor(Dir), Bytes, &Error, Env)) {
      addIssue(FsckIssueKind::BadManifest, smf::manifestFileName(), Error);
      return;
    }
    SegmentManifest M;
    if (!SegmentManifest::decode(Bytes, M, &Error)) {
      addIssue(Error.find("checksum") != std::string::npos
                   ? FsckIssueKind::ChecksumMismatch
                   : FsckIssueKind::BadManifest,
               smf::manifestFileName(), Error);
      return;
    }
    Report.Segments = M.Segments.size();
    Report.Classes = M.totalClasses();

    bool AllSegmentsGood = true;
    for (const SegmentEntry &E : M.Segments) {
      std::string SegBytes;
      if (!readFileBytes(Dir + "/" + E.Name, SegBytes, &Error, Env)) {
        addIssue(FsckIssueKind::MissingSegment, E.Name, Error);
        AllSegmentsGood = false;
        continue;
      }
      if (SegBytes.size() != E.FileBytes) {
        const std::string Detail =
            "manifest records " + std::to_string(E.FileBytes) +
            " bytes but the file holds " + std::to_string(SegBytes.size());
        addIssue(SegBytes.size() < E.FileBytes ? FsckIssueKind::TruncatedTail
                                               : FsckIssueKind::SizeMismatch,
                 E.Name, Detail);
        AllSegmentsGood = false;
        continue;
      }
      IndexFileInfo Info;
      if (probeIndexBytes(SegBytes, Info) &&
          (Info.Seed != M.Seed || Info.HashBits != M.HashBits)) {
        addIssue(FsckIssueKind::CorruptSegment, E.Name,
                 "segment schema (seed/width) does not match the manifest");
        AllSegmentsGood = false;
        continue;
      }
      if (!checkImage(E.Name, SegBytes))
        AllSegmentsGood = false;
    }
    Report.Serviceable = AllSegmentsGood;

    // Debris: unreferenced segments (a crashed append's segment that
    // never reached its manifest swap, or a compaction's undeleted
    // inputs) and stale tmp files. Deleting either cannot change what a
    // reader observes -- the manifest never names them.
    for (const std::string &Name : listUnreferencedSegments(Dir, M))
      addIssue(FsckIssueKind::UnreferencedSegment, Name,
               "not listed in the manifest", /*Repairable=*/true);
    for (const std::string &Name : listTmpFiles(Dir))
      addIssue(FsckIssueKind::OrphanTmp, Name,
               "stale temporary file from an interrupted write",
               /*Repairable=*/true);

    if (Opts.Repair)
      for (FsckIssue &I : Report.Issues)
        if (I.Repairable) {
          if (int RE = Env.unlink((Dir + "/" + I.Path).c_str()); RE == 0)
            I.Repaired = true;
          else
            I.Detail += "; repair failed: " + std::string(strerror(-RE));
        }
  }

  /// A single-file index: the file itself must validate; the only
  /// possible debris is a sibling `.tmp`.
  void checkSingleFile(const std::string &Path) {
    std::string Bytes;
    std::string Error;
    if (!readFileBytes(Path, Bytes, &Error, Env)) {
      addIssue(FsckIssueKind::MissingSegment, Path, Error);
      return;
    }
    if (!isIndexFile(Bytes)) {
      addIssue(FsckIssueKind::CorruptSegment, Path,
               "not an HMAI index file (bad magic)");
      return;
    }
    Report.Serviceable = checkImage(Path, Bytes);
    if (Report.Serviceable) {
      IndexFileInfo Info;
      if (probeIndexBytes(Bytes, Info))
        Report.Classes = Info.NumClasses;
    }

    const std::string Tmp = Path + ".tmp";
    std::string TmpBytes;
    if (readFileBytes(Tmp, TmpBytes, nullptr, Env)) {
      addIssue(FsckIssueKind::OrphanTmp, Tmp,
               "stale temporary file from an interrupted write",
               /*Repairable=*/true);
      if (Opts.Repair) {
        FsckIssue &I = Report.Issues.back();
        if (int RE = Env.unlink(Tmp.c_str()); RE == 0)
          I.Repaired = true;
        else
          I.Detail += "; repair failed: " + std::string(strerror(-RE));
      }
    }
  }
};

} // namespace

const char *hma::fsckIssueKindName(FsckIssueKind K) {
  switch (K) {
  case FsckIssueKind::OrphanTmp:
    return "orphan-tmp";
  case FsckIssueKind::UnreferencedSegment:
    return "unreferenced-segment";
  case FsckIssueKind::MissingSegment:
    return "missing-segment";
  case FsckIssueKind::SizeMismatch:
    return "size-mismatch";
  case FsckIssueKind::TruncatedTail:
    return "truncated-tail";
  case FsckIssueKind::ChecksumMismatch:
    return "checksum-mismatch";
  case FsckIssueKind::BadManifest:
    return "bad-manifest";
  case FsckIssueKind::CorruptSegment:
    return "corrupt-segment";
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
  std::string Out = Path + ": ";
  if (Segmented)
    Out += "segmented index, " + std::to_string(Segments) + " segment(s), " +
           std::to_string(Classes) + " class(es)\n";
  else
    Out += "single-file index, " + std::to_string(Classes) + " class(es)\n";
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
  IoEnv &Env = Opts.Env ? *Opts.Env : IoEnv::system();
  Checker C{Opts, Env, FsckReport()};

  struct stat St;
  if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
    C.checkSegmentDir(Path);
  else
    C.checkSingleFile(Path);

  C.Report.Healthy = C.Report.Serviceable && C.Report.Issues.empty();
  return C.Report;
}
