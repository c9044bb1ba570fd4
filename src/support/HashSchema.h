//===- support/HashSchema.h - Seeded family of hash combiners ------------===//
///
/// \file
/// A seeded registry of independent salts, one per combiner role.
///
/// Section 6.2 of the paper proves its collision bound for *randomly
/// chosen* hash combiners: every constructor of every recursive datatype
/// (Structure, PosTree, variable-map entries, the top-level pair) gets its
/// own independently chosen random function. In practice (see the remark
/// after Definition 6.4) one fixes a seed; this class derives one
/// independent salt per combiner role from a single 64-bit seed, so that
///
///  - the default configuration is deterministic and reproducible, and
///  - the Figure 4 experiment can re-instantiate the whole combiner family
///    from fresh seeds, which is exactly what "no adversarial pair
///    collides reliably across seeds" quantifies over.
///
/// Every combiner is a \ref MixEngine started from its role's salt. The
/// schema builds those start states once, at construction, so a combiner
/// call begins mixing at its first word (\ref HashSchema::engine).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_HASHSCHEMA_H
#define HMA_SUPPORT_HASHSCHEMA_H

#include "support/HashCode.h"

#include <array>
#include <cstdint>
#include <utility>

namespace hma {

/// Every distinct combiner role used anywhere in the library. Keeping them
/// in one enum guarantees no two roles accidentally share a salt.
enum class CombinerTag : unsigned {
  // Structure constructors (Section 4.3 / 5.1).
  StructVar,
  StructLamNone, ///< SLam whose binder never occurs in the body.
  StructLamSome, ///< SLam with an occurrence position tree.
  StructApp,
  StructLetNone, ///< SLet whose binder never occurs in the body.
  StructLetSome,
  StructConst,

  // Position tree constructors (Sections 4.5 and 4.8).
  PosHere,
  PosLeftOnly,
  PosRightOnly,
  PosBoth,
  PosJoinNone, ///< PTJoin with no entry from the bigger map.
  PosJoinSome,

  // Variable map hashing (Section 5.2).
  VarMapEntry,

  // Top-level e-summary pair (Section 5).
  SummaryPair,

  // Leaf hashing.
  NameLeaf,
  ConstLeaf,

  // Baseline hashers (Sections 2.3-2.5).
  BaseVar,
  BaseBound, ///< de Bruijn index leaf.
  BaseLam,
  BaseApp,
  BaseLet,
  BaseConst,

  // Appendix C affine-transform variant.
  LinearLeft,    ///< Source of the fL affine transform.
  LinearRight,   ///< Source of the fR affine transform.
  LinearMapHash, ///< Final (transform, aggregate) -> map hash combiner.

  NumTags
};

/// Derives one salt per \ref CombinerTag from a single seed and keeps
/// the \ref MixEngine start state of each.
class HashSchema {
public:
  /// Fixed default seed: deterministic hashing out of the box.
  static constexpr uint64_t DefaultSeed = 0x48'4D'41'2D'50'4C'44'49ULL;

  explicit HashSchema(uint64_t Seed = DefaultSeed)
      : Seed(Seed), Engines(makeEngines(Seed, std::make_index_sequence<
                                                  NumEngines>())) {}

  uint64_t seed() const { return Seed; }

  uint64_t salt(CombinerTag Tag) const {
    return saltFor(Seed, static_cast<unsigned>(Tag));
  }

  /// A mixer started under the salt for \p Tag: equal to
  /// `MixEngine(salt(Tag))`, without recomputing its start state.
  MixEngine engine(CombinerTag Tag) const {
    return Engines[static_cast<unsigned>(Tag)];
  }

  /// Combine a fixed arity of hash codes under the salt for \p Tag.
  /// This is the practical stand-in for the "random function" `f` of
  /// Lemma 6.6; callers additionally feed in the structure size where the
  /// lemma's proof salts with `|d|`.
  template <typename H, typename... Parts>
  H combine(CombinerTag Tag, Parts... P) const {
    MixEngine E = engine(Tag);
    (E.add(P), ...);
    return E.finish<H>();
  }

  /// Combine raw 64-bit words under the salt for \p Tag.
  template <typename H, typename... Words>
  H combineWords(CombinerTag Tag, Words... W) const {
    MixEngine E = engine(Tag);
    (E.addWord(static_cast<uint64_t>(W)), ...);
    return E.finish<H>();
  }

  /// Hash a byte string (used for variable name spellings) under the salt
  /// for \p Tag.
  template <typename H>
  H hashBytes(CombinerTag Tag, const char *Data, size_t Len) const {
    MixEngine E = engine(Tag);
    size_t I = 0;
    for (; I + 8 <= Len; I += 8) {
      uint64_t W = 0;
      for (unsigned J = 0; J != 8; ++J)
        W |= static_cast<uint64_t>(static_cast<unsigned char>(Data[I + J]))
             << (8 * J);
      E.addWord(W);
    }
    uint64_t Tail = 0;
    for (unsigned J = 0; I + J < Len; ++J)
      Tail |= static_cast<uint64_t>(static_cast<unsigned char>(Data[I + J]))
              << (8 * J);
    E.addWord(Tail);
    E.addWord(Len);
    return E.finish<H>();
  }

private:
  static constexpr size_t NumEngines =
      static_cast<size_t>(CombinerTag::NumTags);

  static uint64_t saltFor(uint64_t Seed, unsigned Tag) {
    return detail::splitmix64(detail::splitmix64(Seed) ^
                              (0x9E3779B97F4A7C15ULL * (Tag + 1)));
  }

  template <size_t... Tags>
  static std::array<MixEngine, NumEngines>
  makeEngines(uint64_t Seed, std::index_sequence<Tags...>) {
    return {MixEngine(saltFor(Seed, Tags))...};
  }

  uint64_t Seed;
  std::array<MixEngine, NumEngines> Engines;
};

} // namespace hma

#endif // HMA_SUPPORT_HASHSCHEMA_H
