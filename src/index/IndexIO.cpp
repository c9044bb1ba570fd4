//===- index/IndexIO.cpp - HMAI on-disk index format -------------------------===//

#include "index/IndexIO.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include <fcntl.h>

using namespace hma;

//===----------------------------------------------------------------------===//
// Little-endian word codec
//===----------------------------------------------------------------------===//

void hma::iio::putWordLE(std::string &Out, uint64_t V, unsigned NumBytes) {
  for (unsigned I = 0; I != NumBytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

uint64_t hma::iio::getWordLE(const char *P, unsigned NumBytes) {
  uint64_t V = 0;
  for (unsigned I = 0; I != NumBytes; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  return V;
}

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

std::string hma::iio::encodeHeader(const IndexFileInfo &Info) {
  std::string Out;
  Out.reserve(HeaderSize);
  Out.append(Magic, sizeof(Magic));
  putWordLE(Out, Info.Version, 4);
  putWordLE(Out, Info.Seed, 8);
  putWordLE(Out, Info.HashBits, 4);
  putWordLE(Out, Info.Shards, 4);
  putWordLE(Out, Info.NumClasses, 8);
  putWordLE(Out, Info.Stats.Inserted, 8);
  putWordLE(Out, Info.Stats.NewClasses, 8);
  putWordLE(Out, Info.Stats.Duplicates, 8);
  putWordLE(Out, Info.Stats.FallbackChecks, 8);
  putWordLE(Out, Info.Stats.VerifiedCollisions, 8);
  putWordLE(Out, Info.Stats.DecodeErrors, 8);
  putWordLE(Out, Info.SidecarOffset, 8);
  putWordLE(Out, Info.SidecarLength, 8);
  assert(Out.size() == HeaderSize && "header layout drifted");
  return Out;
}

std::vector<uint32_t> hma::iio::eytzingerRanks(uint64_t Count) {
  assert(Count <= UINT32_MAX && "shard table exceeds u32 sidecar ranks");
  std::vector<uint32_t> Ranks(Count);
  uint32_t Next = 0;
  // In-order walk of the complete binary tree over slots 1..Count; the
  // recursion depth is the tree height (<= 32 for u32 counts).
  auto Fill = [&](auto &&Self, uint64_t K) -> void {
    if (K > Count)
      return;
    Self(Self, 2 * K);
    Ranks[K - 1] = Next++;
    Self(Self, 2 * K + 1);
  };
  Fill(Fill, 1);
  return Ranks;
}

//===----------------------------------------------------------------------===//
// Image writer
//===----------------------------------------------------------------------===//

template <typename H>
std::string hma::writeIndexImage(const std::vector<ClassRef<H>> &Classes,
                                 unsigned Shards, uint64_t Seed,
                                 const IndexStats &Stats) {
  static const obs::Histogram SaveNs = obs::Histogram::get(
      "hma_index_save_ns",
      "Latency of laying out one HMAI image (a save or a compaction), ns");
  static const obs::Counter SavedBytes = obs::Counter::get(
      "hma_index_saved_bytes_total", "HMAI image bytes produced by saves");
  obs::ScopedTrace Span("index_save", "io");
  obs::ScopedTimer Timer(SaveNs);
  assert(Shards != 0 && (Shards & (Shards - 1)) == 0 &&
         "shard count must be a power of two");
  assert(std::is_sorted(Classes.begin(), Classes.end(),
                        detail::lessByHashThenBytes<ClassRef<H>>) &&
         "classes must arrive sorted by (hash, bytes)");

  // Group into per-shard tables exactly as the live index stripes them;
  // the global sort order is preserved within each group.
  std::vector<std::vector<const ClassRef<H> *>> PerShard(Shards);
  size_t TotalBlobBytes = 0;
  for (const ClassRef<H> &C : Classes) {
    PerShard[detail::shardIndexForHash(C.Hash, Shards - 1)].push_back(&C);
    TotalBlobBytes += C.CanonicalBytes.size();
  }
  const size_t N = Classes.size();

  IndexFileInfo Info;
  Info.Version = iio::Version;
  Info.Seed = Seed;
  Info.HashBits = HashWidth<H>::Bits;
  Info.Shards = Shards;
  Info.NumClasses = N;
  Info.Stats = Stats;
  const size_t RecSize = iio::recordSize<H>();
  const size_t TablesStart =
      iio::HeaderSize + size_t(Shards) * iio::DirEntrySize;
  const size_t BytesStart = TablesStart + N * RecSize;
  Info.SidecarOffset = BytesStart + TotalBlobBytes;
  Info.SidecarLength = N * iio::sidecarEntrySize(HashWidth<H>::Bits);

  std::string Out = iio::encodeHeader(Info);
  // The whole image, one allocation.
  Out.reserve(Info.SidecarOffset + Info.SidecarLength);

  // Directory.
  size_t TableOffset = TablesStart;
  for (const auto &Table : PerShard) {
    iio::putWordLE(Out, TableOffset, 8);
    iio::putWordLE(Out, Table.size(), 8);
    TableOffset += Table.size() * RecSize;
  }

  // Tables (blob offsets assigned in table order).
  uint64_t BlobOffset = BytesStart;
  for (const auto &Table : PerShard)
    for (const ClassRef<H> *C : Table) {
      iio::putHashLE(Out, C->Hash);
      iio::putWordLE(Out, BlobOffset, 8);
      iio::putWordLE(Out, C->CanonicalBytes.size(), 8);
      iio::putWordLE(Out, C->Count, 8);
      BlobOffset += C->CanonicalBytes.size();
    }

  // Bytes region.
  for (const auto &Table : PerShard)
    for (const ClassRef<H> *C : Table)
      Out += C->CanonicalBytes;

  // Probe sidecar: per shard, the hashes rewritten in Eytzinger (BFS)
  // order followed by each slot's sorted rank. Derived purely from the
  // (already deterministic) shard tables.
  for (const auto &Table : PerShard) {
    const std::vector<uint32_t> Ranks = iio::eytzingerRanks(Table.size());
    for (uint32_t Rank : Ranks)
      iio::putHashLE(Out, Table[Rank]->Hash);
    for (uint32_t Rank : Ranks)
      iio::putWordLE(Out, Rank, iio::RankEntrySize);
  }
  assert(Out.size() == Info.SidecarOffset + Info.SidecarLength &&
         "image layout drifted");
  SavedBytes.add(Out.size());
  return Out;
}

template std::string hma::writeIndexImage(const std::vector<ClassRef<Hash16>> &,
                                          unsigned, uint64_t,
                                          const IndexStats &);
template std::string hma::writeIndexImage(const std::vector<ClassRef<Hash32>> &,
                                          unsigned, uint64_t,
                                          const IndexStats &);
template std::string hma::writeIndexImage(const std::vector<ClassRef<Hash64>> &,
                                          unsigned, uint64_t,
                                          const IndexStats &);
template std::string
hma::writeIndexImage(const std::vector<ClassRef<Hash128>> &, unsigned,
                     uint64_t, const IndexStats &);

bool hma::isIndexFile(std::string_view Bytes) {
  return Bytes.size() >= sizeof(iio::Magic) &&
         Bytes.compare(0, sizeof(iio::Magic),
                       std::string_view(iio::Magic, sizeof(iio::Magic))) == 0;
}

namespace {

bool probeFail(std::string Message, size_t Pos, std::string *Error,
               size_t *ErrorPos) {
  if (Error)
    *Error = std::move(Message);
  if (ErrorPos)
    *ErrorPos = Pos;
  return false;
}

} // namespace

bool hma::probeIndexBytes(std::string_view Bytes, IndexFileInfo &Info,
                          std::string *Error, size_t *ErrorPos) {
  using namespace iio;
  if (!isIndexFile(Bytes))
    return probeFail("missing index magic 'HMAI'", 0, Error, ErrorPos);
  if (Bytes.size() < HeaderSize)
    return probeFail("truncated header", Bytes.size(), Error, ErrorPos);

  const char *P = Bytes.data();
  Info.Version = static_cast<uint32_t>(getWordLE(P + 4, 4));
  if (Info.Version != Version)
    return probeFail("unsupported index version " +
                         std::to_string(Info.Version) + " (reader speaks " +
                         std::to_string(Version) + ")",
                     4, Error, ErrorPos);
  Info.Seed = getWordLE(P + 8, 8);
  Info.HashBits = static_cast<unsigned>(getWordLE(P + 16, 4));
  Info.Shards = static_cast<unsigned>(getWordLE(P + 20, 4));
  Info.NumClasses = getWordLE(P + 24, 8);
  Info.Stats.Inserted = getWordLE(P + 32, 8);
  Info.Stats.NewClasses = getWordLE(P + 40, 8);
  Info.Stats.Duplicates = getWordLE(P + 48, 8);
  Info.Stats.FallbackChecks = getWordLE(P + 56, 8);
  Info.Stats.VerifiedCollisions = getWordLE(P + 64, 8);
  Info.Stats.DecodeErrors = getWordLE(P + 72, 8);
  Info.SidecarOffset = getWordLE(P + 80, 8);
  Info.SidecarLength = getWordLE(P + 88, 8);

  if (Info.HashBits != 16 && Info.HashBits != 32 && Info.HashBits != 64 &&
      Info.HashBits != 128)
    return probeFail("unsupported hash width b=" +
                         std::to_string(Info.HashBits),
                     16, Error, ErrorPos);
  if (Info.Shards == 0 || Info.Shards > (1u << 16) ||
      (Info.Shards & (Info.Shards - 1)) != 0)
    return probeFail("shard count " + std::to_string(Info.Shards) +
                         " is not a power of two in [1, 65536]",
                     20, Error, ErrorPos);

  // Envelope: the directory and every shard table must lie within the
  // region preceding the sidecar, and the declared class count must
  // match the tables. (Blob offsets are validated record-by-record by
  // MappedIndex::verify.)
  const size_t DirEnd = HeaderSize + size_t(Info.Shards) * DirEntrySize;
  if (DirEnd > Bytes.size())
    return probeFail("shard directory overruns the file", HeaderSize, Error,
                     ErrorPos);
  // Tables and blobs live strictly before the sidecar.
  const uint64_t TableLimit = std::min<uint64_t>(Info.SidecarOffset,
                                                 Bytes.size());
  const size_t RecSize = Info.HashBits / 8 + 24;
  uint64_t Total = 0;
  for (unsigned S = 0; S != Info.Shards; ++S) {
    const size_t DirPos = HeaderSize + size_t(S) * DirEntrySize;
    const uint64_t TableOffset = getWordLE(P + DirPos, 8);
    const uint64_t Count = getWordLE(P + DirPos + 8, 8);
    if (TableOffset > TableLimit || Count > (TableLimit - TableOffset) / RecSize)
      return probeFail("shard " + std::to_string(S) +
                           " table overruns the file",
                       DirPos, Error, ErrorPos);
    Total += Count;
  }
  if (Total != Info.NumClasses)
    return probeFail("header declares " + std::to_string(Info.NumClasses) +
                         " classes but the directory sums to " +
                         std::to_string(Total),
                     24, Error, ErrorPos);

  // The sidecar is the file's final region, sized exactly for one
  // (BFS hash, rank) pair per class. Content is validated by verify;
  // here only the envelope.
  if (Info.SidecarOffset > Bytes.size() ||
      Info.SidecarLength != Bytes.size() - Info.SidecarOffset)
    return probeFail("probe sidecar does not span the file tail", 80, Error,
                     ErrorPos);
  if (Info.SidecarLength != Info.NumClasses * sidecarEntrySize(Info.HashBits))
    return probeFail("probe sidecar length does not match the class count",
                     88, Error, ErrorPos);
  if (Info.SidecarOffset < DirEnd + Info.NumClasses * RecSize)
    return probeFail("probe sidecar overlaps the tables/bytes region", 80,
                     Error, ErrorPos);
  return true;
}

//===----------------------------------------------------------------------===//
// File helpers
//===----------------------------------------------------------------------===//

bool hma::readFileBytes(const std::string &Path, std::string &Out,
                        std::string *Error, IoEnv &Env) {
  int Fd = Env.open(Path.c_str(), O_RDONLY, 0);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open '" + Path + "': " + std::strerror(-Fd);
    return false;
  }
  Out.clear();
  char Buf[1 << 16];
  for (;;) {
    long R = Env.read(Fd, Buf, sizeof(Buf));
    if (R == 0)
      break;
    if (R < 0) {
      if (R == -EINTR)
        continue;
      (void)Env.close(Fd);
      if (Error)
        *Error = "read error on '" + Path + "': " + std::strerror(int(-R));
      return false;
    }
    Out.append(Buf, static_cast<size_t>(R));
  }
  (void)Env.close(Fd);
  return true;
}

bool hma::writeFileReplacing(const std::string &Path, std::string_view Bytes,
                             std::string *Error, IoEnv &Env) {
  const std::string Tmp = Path + ".tmp";
  // Every failure exit unlinks the partial tmp: an ENOSPC mid-write must
  // not strand a large dead file that then blocks the retry on an
  // already-full disk. The errno goes into the message verbatim --
  // "cannot write" without the why has sent operators down the wrong
  // road too many times.
  auto Fail = [&](const std::string &What, int Err, bool DropTmp) {
    if (DropTmp)
      (void)Env.unlink(Tmp.c_str());
    if (Error)
      *Error = What + ": " + std::strerror(Err ? Err : EIO);
    return false;
  };

  // A stale sibling .tmp -- a previous writer that crashed between
  // creating it and renaming it -- is dead weight, never data: remove it
  // rather than refusing. O_TRUNC would clear it anyway; the explicit
  // unlink also clears odd leftovers (wrong permissions; a directory
  // would still fail below with a clear error).
  (void)Env.unlink(Tmp.c_str());
  int Fd = Env.open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (Fd < 0)
    return Fail("cannot open '" + Tmp + "' for writing", -Fd, false);

  size_t Off = 0;
  while (Off < Bytes.size()) {
    long R = Env.write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (R < 0) {
      if (R == -EINTR)
        continue;
      (void)Env.close(Fd);
      return Fail("cannot write '" + Tmp + "'", int(-R), true);
    }
    if (R == 0) {
      (void)Env.close(Fd);
      return Fail("cannot write '" + Tmp + "'", EIO, true);
    }
    Off += static_cast<size_t>(R);
  }

  // The rename below is atomic, but on journaled filesystems it can be
  // committed before the tmp file's *data* reaches disk; a power cut in
  // that window would leave the target name pointing at a torn file.
  // Flushing the data first closes the window.
  if (int R = Env.fsync(Fd); R < 0) {
    (void)Env.close(Fd);
    return Fail("cannot fsync '" + Tmp + "'", -R, true);
  }
  if (int R = Env.close(Fd); R < 0)
    return Fail("cannot write '" + Tmp + "'", -R, true);

  if (int R = Env.rename(Tmp.c_str(), Path.c_str()); R < 0)
    return Fail("cannot rename '" + Tmp + "' to '" + Path + "'", -R, true);

  // The data is on disk (fsync above) and the name now points at it, but
  // the rename lives in the *directory*, which has its own durability: a
  // power cut here could resurrect the old entry -- or, for a first
  // write, no entry at all. Syncing the parent directory commits the
  // swap. Best-effort: some filesystems refuse directory fds, and a
  // failed directory sync must not turn an already-renamed, fully-
  // written file into an error.
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  (void)Env.fsyncDir(Dir.c_str());
  return true;
}
