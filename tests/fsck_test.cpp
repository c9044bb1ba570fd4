//===- tests/fsck_test.cpp - fsck's verdict is the serving gate's -----------===//
///
/// \file
/// `hma index fsck` has no validator of its own: it calls an index
/// serviceable exactly when \ref openIndex at b=128 admits it, and its
/// one damage issue carries that gate's diagnostic word for word. This
/// file pins the parity over healthy and damaged files and directories
/// (among them a checksummed manifest with no entries and one whose
/// class count is off by one, both of which an earlier fsck with its
/// own manifest reader called serviceable), checks that `--repair`
/// touches nothing of a damaged index, and that a repair of a
/// serviceable one deletes only what writers leave and then reports
/// the index healthy.
///
//===----------------------------------------------------------------------===//

#include "index/Fsck.h"

#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/IndexIO.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <map>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

namespace {

std::vector<std::string> corpus(uint64_t Seed, int N) {
  ExprContext Ctx;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  for (int I = 0; I != N; ++I)
    Blobs.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 16 + I % 9)));
  return Blobs;
}

/// A single-shard index image at width H, so the sidecar's rank words
/// sit at a known offset.
template <typename H = Hash128> std::string imageOf(uint64_t Seed) {
  AlphaHashIndex<H> Live({/*Shards=*/1, HashSchema::DefaultSeed});
  Live.insertBatch(corpus(Seed, 24), 1);
  return saveIndexBytes(Live);
}

/// \p Image with one bit of the byte at \p Pos flipped.
std::string flipBit(std::string Image, size_t Pos) {
  Image[Pos] = static_cast<char>(static_cast<unsigned char>(Image[Pos]) ^ 1);
  return Image;
}

/// \p Image (single shard, b=128) with the middle sidecar rank flipped:
/// the envelope is intact, only the deep verify can see it.
std::string flipSidecarRank(const std::string &Image) {
  IndexFileInfo Info;
  EXPECT_TRUE(probeIndexBytes(Image, Info));
  return flipBit(Image, Info.SidecarOffset + Info.NumClasses * 16 +
                            Info.NumClasses / 2 * iio::RankEntrySize);
}

/// The first record's hash in a single-shard image.
constexpr size_t FirstRecord = iio::HeaderSize + iio::DirEntrySize;

void writeFile(const std::string &Path, std::string_view Bytes) {
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, Bytes, &Error)) << Error;
}

/// Every regular file at \p Path (the file itself, or a directory's
/// entries) with its bytes, plus a single file's sibling tmp: what a
/// repair could delete or change.
std::map<std::string, std::string> filesAt(const std::string &Path) {
  std::map<std::string, std::string> Files;
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Path.c_str())) {
    while (struct dirent *Ent = ::readdir(D))
      if (Ent->d_name[0] != '.')
        Names.push_back(Path + "/" + Ent->d_name);
    ::closedir(D);
  } else {
    Names = {Path, Path + ".tmp"};
  }
  for (const std::string &Name : Names) {
    std::string Bytes;
    if (readFileBytes(Name, Bytes, nullptr))
      Files[Name] = Bytes;
  }
  return Files;
}

void removeAll(const std::string &Path) {
  for (const auto &[Name, Bytes] : filesAt(Path))
    std::remove(Name.c_str());
  ::rmdir(Path.c_str());
}

/// A scratch area for one test: every path it hands out is removed,
/// file or directory, when it goes out of scope.
struct Scratch {
  std::vector<std::string> Paths;

  ~Scratch() {
    for (const std::string &P : Paths)
      removeAll(P);
  }

  std::string file(const std::string &Name, std::string_view Bytes) {
    Paths.push_back("fsck_test." + Name);
    removeAll(Paths.back());
    writeFile(Paths.back(), Bytes);
    return Paths.back();
  }

  /// A two-segment, single-shard directory (create + one append).
  std::string segmentDir(const std::string &Name) {
    Paths.push_back("fsck_test." + Name);
    const std::string &Dir = Paths.back();
    removeAll(Dir);
    AlphaHashIndex<Hash128> Base({/*Shards=*/1, HashSchema::DefaultSeed});
    Base.insertBatch(corpus(41, 30), 1);
    SegmentAppendOptions Opts;
    Opts.Shards = 1;
    SegmentAppendResult C = createSegmentDir(Dir, Base, Opts);
    EXPECT_TRUE(C.Ok) << C.Error;
    SegmentAppendResult A = appendSegment<Hash128>(Dir, corpus(42, 12), Opts);
    EXPECT_TRUE(A.Ok) << A.Error;
    return Dir;
  }
};

SegmentManifest manifestOf(const std::string &Dir) {
  std::string Bytes;
  SegmentManifest M;
  EXPECT_TRUE(readFileBytes(manifestPathFor(Dir), Bytes, nullptr));
  EXPECT_TRUE(SegmentManifest::decode(Bytes, M));
  return M;
}

} // namespace

TEST(Fsck, ServiceableExactlyWhenOpenIndexAdmits) {
  Scratch S;
  const std::string Good = imageOf(7);
  struct Case {
    std::string Path;
    bool Serviceable;
  };
  std::vector<Case> Cases;
  Cases.push_back({S.file("healthy.hmai", Good), true});
  Cases.push_back({S.segmentDir("healthy.idx"), true});
  Cases.push_back(
      {S.file("truncated.hmai", Good.substr(0, Good.size() / 2)), false});
  Cases.push_back({S.file("record.hmai", flipBit(Good, FirstRecord)), false});
  Cases.push_back({S.file("rank.hmai", flipSidecarRank(Good)), false});
  Cases.push_back({S.file("empty.hmai", ""), false});
  Cases.push_back({S.file("b16.hmai", imageOf<Hash16>(7)), false});
  {
    const std::string Dir = S.segmentDir("no_manifest.idx");
    ASSERT_EQ(std::remove(manifestPathFor(Dir).c_str()), 0);
    Cases.push_back({Dir, false});
  }
  {
    // Fails only the deep verify: the segment set opens.
    const std::string Dir = S.segmentDir("verify.idx");
    const std::string Seg = Dir + "/" + manifestOf(Dir).Segments[0].Name;
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(Seg, Bytes, nullptr));
    writeFile(Seg, flipSidecarRank(Bytes));
    ASSERT_TRUE(SegmentedIndex<Hash128>::open(Dir).ok());
    Cases.push_back({Dir, false});
  }
  {
    const std::string Dir = S.segmentDir("missing.idx");
    const std::string Seg = Dir + "/" + manifestOf(Dir).Segments[1].Name;
    ASSERT_EQ(std::remove(Seg.c_str()), 0);
    Cases.push_back({Dir, false});
  }
  {
    const std::string Dir = S.segmentDir("zero_entries.idx");
    SegmentManifest M = manifestOf(Dir);
    M.Segments.clear();
    ASSERT_TRUE(writeManifestReplacing(Dir, M));
    Cases.push_back({Dir, false});
  }
  {
    const std::string Dir = S.segmentDir("miscount.idx");
    SegmentManifest M = manifestOf(Dir);
    M.Segments[0].Classes += 1;
    ASSERT_TRUE(writeManifestReplacing(Dir, M));
    Cases.push_back({Dir, false});
  }

  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Path);
    const OpenedIndex<Hash128> Opened = openIndex<Hash128>(C.Path);
    EXPECT_EQ(Opened.ok(), C.Serviceable) << Opened.Error;
    const FsckReport R = fsckIndex(C.Path);
    EXPECT_EQ(R.Serviceable, Opened.ok()) << R.render(C.Path);
    EXPECT_EQ(R.Healthy, Opened.ok()) << R.render(C.Path);
    if (Opened.ok()) {
      EXPECT_TRUE(R.Issues.empty()) << R.render(C.Path);
      EXPECT_EQ(R.Classes, Opened.Reader->numClasses());
    } else if (R.Issues.size() != 1) {
      ADD_FAILURE() << "want one damage issue:\n" << R.render(C.Path);
    } else {
      EXPECT_EQ(R.Issues[0].Kind, FsckIssueKind::Damage);
      EXPECT_EQ(R.Issues[0].Detail, Opened.Error);
      EXPECT_FALSE(R.Issues[0].Repairable);
      EXPECT_NE(R.render(C.Path).find("state: damaged"), std::string::npos);
    }

    // Nothing here is debris, so a repair changes no file.
    const auto Before = filesAt(C.Path);
    FsckOptions Repair;
    Repair.Repair = true;
    const FsckReport Repaired = fsckIndex(C.Path, Repair);
    EXPECT_EQ(Repaired.Serviceable, Opened.ok());
    EXPECT_TRUE(filesAt(C.Path) == Before) << "repair changed files";
  }
}

TEST(Fsck, DamagedDirectoryKeepsItsLeftoversThroughRepair) {
  // With the committed state damaged, no file is debris: a manifest that
  // lists no segments must not turn the segments into deletable orphans.
  Scratch S;
  const std::string Dir = S.segmentDir("damaged_leftovers.idx");
  SegmentManifest M = manifestOf(Dir);
  M.Segments.clear();
  ASSERT_TRUE(writeManifestReplacing(Dir, M));
  writeFile(Dir + "/" + segmentFileName(9) + ".tmp", "torn");
  const auto Before = filesAt(Dir);
  FsckOptions Repair;
  Repair.Repair = true;
  const FsckReport R = fsckIndex(Dir, Repair);
  EXPECT_FALSE(R.Serviceable);
  ASSERT_EQ(R.Issues.size(), 1u) << R.render(Dir);
  EXPECT_EQ(R.Issues[0].Detail, openIndex<Hash128>(Dir).Error);
  EXPECT_TRUE(filesAt(Dir) == Before);
}

TEST(Fsck, RepairDeletesOnlyWriterDebrisAndReportsHealthy) {
  Scratch S;
  const std::string Dir = S.segmentDir("debris.idx");
  const auto Committed = filesAt(Dir);
  writeFile(Dir + "/" + segmentFileName(99), "orphan");
  writeFile(Dir + "/MANIFEST.tmp", "torn manifest");
  writeFile(Dir + "/" + segmentFileName(98) + ".tmp", "torn segment");
  writeFile(Dir + "/notes.tmp", "a user's file");

  const FsckReport Found = fsckIndex(Dir);
  EXPECT_TRUE(Found.Serviceable);
  EXPECT_FALSE(Found.Healthy);
  EXPECT_EQ(Found.Issues.size(), 3u) << Found.render(Dir);
  EXPECT_EQ(Found.render(Dir).find("notes.tmp"), std::string::npos);

  FsckOptions Repair;
  Repair.Repair = true;
  const FsckReport Fixed = fsckIndex(Dir, Repair);
  EXPECT_TRUE(Fixed.Healthy) << Fixed.render(Dir);
  EXPECT_FALSE(Fixed.hasRepairableDebris());
  for (const FsckIssue &I : Fixed.Issues)
    EXPECT_TRUE(I.Repaired) << I.Path;
  EXPECT_NE(Fixed.render(Dir).find("state: healthy"), std::string::npos)
      << Fixed.render(Dir);

  auto Left = filesAt(Dir);
  ASSERT_EQ(Left.erase(Dir + "/notes.tmp"), 1u);
  EXPECT_TRUE(Left == Committed);

  // A single file's only debris is its sibling tmp.
  const std::string File = S.file("debris.hmai", imageOf(3));
  writeFile(File + ".tmp", "torn");
  const FsckReport FileFixed = fsckIndex(File, Repair);
  ASSERT_EQ(FileFixed.Issues.size(), 1u) << FileFixed.render(File);
  EXPECT_EQ(FileFixed.Issues[0].Kind, FsckIssueKind::OrphanTmp);
  EXPECT_TRUE(FileFixed.Healthy) << FileFixed.render(File);
  struct stat St;
  EXPECT_NE(::stat((File + ".tmp").c_str(), &St), 0);
}
