//===- index/IndexIO.cpp - HMAI on-disk index format -------------------------===//

#include "index/IndexIO.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <memory>

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

namespace {

/// Store \p V little-endian into the 8 bytes at \p P.
inline void storeWordLE(char *P, uint64_t V) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(P, &V, sizeof(V));
#else
  for (unsigned I = 0; I != 8; ++I)
    P[I] = static_cast<char>(V >> (8 * I));
#endif
}

/// The image writer's staging buffer. Fixed-width fields go in as whole
/// word stores, byte runs as copies, and every time the buffer fills it
/// is handed to the sink as one chunk of exactly \ref
/// iio::WriteBufferBytes. Once the sink refuses, later chunks are
/// dropped and \ref ok stays false.
class StagingBuffer {
public:
  static constexpr size_t Size = iio::WriteBufferBytes;

  explicit StagingBuffer(const ByteSink &Sink)
      // Slack past Size lets a word store land whole before the flush.
      : Sink(Sink), Buf(new char[Size + sizeof(uint64_t)]) {}

  /// Append the low \p NumBytes (at most 8) of \p V, little-endian.
  void word(uint64_t V, unsigned NumBytes) {
    storeWordLE(Buf.get() + Used, V);
    Used += NumBytes;
    if (Used >= Size) {
      emit();
      // Carry the spill past the chunk to the front.
      Used -= Size;
      std::memcpy(Buf.get(), Buf.get() + Size, Used);
    }
  }
  void hash(Hash16 V) { word(V.V, 2); }
  void hash(Hash32 V) { word(V.V, 4); }
  void hash(Hash64 V) { word(V.V, 8); }
  void hash(Hash128 V) {
    word(V.Lo, 8);
    word(V.Hi, 8);
  }

  void bytes(std::string_view B) {
    while (!B.empty()) {
      const size_t N = std::min(B.size(), Size - Used);
      std::memcpy(Buf.get() + Used, B.data(), N);
      Used += N;
      B.remove_prefix(N);
      if (Used == Size) {
        emit();
        Used = 0;
      }
    }
  }

  /// Hand over the partial last chunk. Returns the bytes written, or 0
  /// if the sink refused any chunk.
  uint64_t finish() {
    if (Used != 0)
      emit(Used);
    Used = 0;
    return Ok ? Total : 0;
  }

  bool ok() const { return Ok; }

private:
  /// Hand the first \p N staged bytes to the sink.
  void emit(size_t N = Size) {
    if (Ok)
      Ok = Sink(std::string_view(Buf.get(), N));
    Total += N;
  }

  const ByteSink &Sink;
  std::unique_ptr<char[]> Buf;
  size_t Used = 0; ///< Staged bytes; below Size between calls.
  uint64_t Total = 0;
  bool Ok = true;
};

} // namespace

template <typename H>
uint64_t hma::writeIndexImage(const std::vector<ClassRef<H>> &Classes,
                              unsigned Shards, uint64_t Seed,
                              const IndexStats &Stats, const ByteSink &Sink) {
  static const obs::Histogram SaveNs = obs::Histogram::get(
      "hma_index_save_ns",
      "Latency of writing one HMAI image into its sink (a save, a segment "
      "append or a compaction, file writes included when streamed), ns");
  static const obs::Counter SavedBytes = obs::Counter::get(
      "hma_index_saved_bytes_total",
      "Bytes of the HMAI images the writer completed (saves, appends, "
      "compactions)");
  obs::ScopedTrace Span("index_save", "io");
  obs::ScopedTimer Timer(SaveNs);
  assert(Shards != 0 && (Shards & (Shards - 1)) == 0 &&
         "shard count must be a power of two");
  assert(std::is_sorted(Classes.begin(), Classes.end(),
                        detail::lessByHashThenBytes<ClassRef<H>>) &&
         "classes must arrive sorted by (hash, bytes)");

  // Group into per-shard tables exactly as the live index stripes them,
  // keeping the global sort order within each: a counting sort of the
  // classes by shard into one exactly-sized array, shard S's table being
  // Order[TableStart[S], TableStart[S + 1]).
  const size_t N = Classes.size();
  std::vector<size_t> TableStart(size_t(Shards) + 1, 0);
  size_t TotalBlobBytes = 0;
  for (const ClassRef<H> &C : Classes) {
    ++TableStart[detail::shardIndexForHash(C.Hash, Shards - 1) + 1];
    TotalBlobBytes += C.CanonicalBytes.size();
  }
  for (unsigned S = 0; S != Shards; ++S)
    TableStart[S + 1] += TableStart[S];
  std::vector<const ClassRef<H> *> Order(N);
  {
    std::vector<size_t> Next(TableStart.begin(), TableStart.end() - 1);
    for (const ClassRef<H> &C : Classes)
      Order[Next[detail::shardIndexForHash(C.Hash, Shards - 1)]++] = &C;
  }

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

  StagingBuffer Out(Sink);
  Out.bytes(iio::encodeHeader(Info));

  // Directory.
  for (unsigned S = 0; S != Shards; ++S) {
    Out.word(TablesStart + TableStart[S] * RecSize, 8);
    Out.word(TableStart[S + 1] - TableStart[S], 8);
  }

  // Tables, back to back in shard order (blob offsets assigned in table
  // order).
  uint64_t BlobOffset = BytesStart;
  for (const ClassRef<H> *C : Order) {
    Out.hash(C->Hash);
    Out.word(BlobOffset, 8);
    Out.word(C->CanonicalBytes.size(), 8);
    Out.word(C->Count, 8);
    BlobOffset += C->CanonicalBytes.size();
  }
  if (!Out.ok())
    return 0;

  // Bytes region.
  for (const ClassRef<H> *C : Order)
    Out.bytes(C->CanonicalBytes);
  if (!Out.ok())
    return 0;

  // Probe sidecar: per shard, the hashes rewritten in Eytzinger (BFS)
  // order followed by each slot's sorted rank. Derived purely from the
  // (already deterministic) shard tables.
  for (unsigned S = 0; S != Shards; ++S) {
    const ClassRef<H> *const *Table = Order.data() + TableStart[S];
    const std::vector<uint32_t> Ranks =
        iio::eytzingerRanks(TableStart[S + 1] - TableStart[S]);
    for (uint32_t Rank : Ranks)
      Out.hash(Table[Rank]->Hash);
    for (uint32_t Rank : Ranks)
      Out.word(Rank, iio::RankEntrySize);
  }
  const uint64_t Written = Out.finish();
  assert((Written == 0 ||
          Written == Info.SidecarOffset + Info.SidecarLength) &&
         "image layout drifted");
  SavedBytes.add(Written);
  return Written;
}

template uint64_t hma::writeIndexImage(const std::vector<ClassRef<Hash16>> &,
                                       unsigned, uint64_t, const IndexStats &,
                                       const ByteSink &);
template uint64_t hma::writeIndexImage(const std::vector<ClassRef<Hash32>> &,
                                       unsigned, uint64_t, const IndexStats &,
                                       const ByteSink &);
template uint64_t hma::writeIndexImage(const std::vector<ClassRef<Hash64>> &,
                                       unsigned, uint64_t, const IndexStats &,
                                       const ByteSink &);
template uint64_t hma::writeIndexImage(const std::vector<ClassRef<Hash128>> &,
                                       unsigned, uint64_t, const IndexStats &,
                                       const ByteSink &);

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

bool hma::writeFileReplacing(const std::string &Path,
                             const ByteProducer &Produce, std::string *Error,
                             IoEnv &Env) {
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

  // The write loop, run once per chunk as the producer emits it. The
  // first failure's errno is kept for the message.
  int WriteErr = 0;
  const ByteSink Sink = [&](std::string_view Chunk) {
    size_t Off = 0;
    while (Off < Chunk.size()) {
      long R = Env.write(Fd, Chunk.data() + Off, Chunk.size() - Off);
      if (R == -EINTR)
        continue;
      if (R <= 0) {
        WriteErr = R < 0 ? int(-R) : EIO;
        return false;
      }
      Off += static_cast<size_t>(R);
    }
    return true;
  };
  if (!Produce(Sink)) {
    (void)Env.close(Fd);
    return Fail("cannot write '" + Tmp + "'", WriteErr, true);
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

bool hma::writeFileReplacing(const std::string &Path, std::string_view Bytes,
                             std::string *Error, IoEnv &Env) {
  return writeFileReplacing(
      Path, [Bytes](const ByteSink &Sink) { return Sink(Bytes); }, Error, Env);
}
