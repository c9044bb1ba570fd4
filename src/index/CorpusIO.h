//===- index/CorpusIO.h - Corpus container format ---------------------------===//
///
/// \file
/// A container format for *corpora*: many expressions in one byte stream.
///
/// `ast/Serialize` gives one expression a stable binary form; the index
/// needs to ingest and emit whole corpora (training sets, compiler-cache
/// dumps, deduplicated stores). The container is deliberately dumb:
///
///   header   "HMAC"
///   count    varint number of expressions
///   blobs    per expression: varint length, then `ast/Serialize` bytes
///
/// The reader validates the *envelope* up front: every member's length
/// prefix is scanned against the stream's byte count before any blob is
/// materialized, so a truncated container fails fast with a
/// member-indexed diagnostic instead of a generic decode error deep in
/// the ingest loop. Member blob *contents* are not re-validated -- each
/// is checked by ingest's byte path, so a corpus with one corrupt member
/// still yields the other members (the corrupt one counts as a decode
/// error).
///
/// For interop with `hma gen` and hand-written inputs there is also a
/// text loader: one S-expression per non-empty line (`;` comments and
/// blank lines skipped), each parsed and re-encoded to a blob. Both
/// loaders produce the same thing -- a vector of serialised expressions,
/// the currency of \ref AlphaHashIndex::insertBatch.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_INDEX_CORPUSIO_H
#define HMA_INDEX_CORPUSIO_H

#include <string>
#include <string_view>
#include <vector>

namespace hma {

/// Outcome of loading a corpus: blobs plus a diagnostic.
struct CorpusLoadResult {
  std::vector<std::string> Blobs; ///< One `ast/Serialize` stream each.
  std::string Error;              ///< Empty on success.
  size_t ErrorPos = 0;            ///< Byte (binary) / line (text) position.

  bool ok() const { return Error.empty(); }
};

/// True if \p Bytes starts with the binary corpus magic "HMAC".
bool isBinaryCorpus(std::string_view Bytes);

/// Pack \p Blobs into the binary container format.
std::string packCorpus(const std::vector<std::string> &Blobs);

/// Unpack a binary container. Fails on a malformed envelope (bad magic,
/// truncated length prefix, declared lengths exceeding the stream,
/// trailing bytes) before materializing any member; member blob contents
/// are passed through unvalidated.
CorpusLoadResult unpackCorpus(std::string_view Bytes);

/// Parse a text corpus: one expression per non-empty, non-comment line,
/// each serialised to a blob. Fails on the first unparsable line
/// (ErrorPos is the 1-based line number).
CorpusLoadResult loadTextCorpus(std::string_view Source);

/// Dispatch on the magic: binary container or one-expression-per-line.
CorpusLoadResult loadCorpus(std::string_view Bytes);

} // namespace hma

#endif // HMA_INDEX_CORPUSIO_H
