//===- support/HashCode.h - Fixed-width hash code types ------------------===//
//
// Part of the hash-modulo-alpha C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width hash code types used throughout the library.
///
/// The paper (Maziarz et al., PLDI 2021) analyses its collision bound in
/// terms of a hash width `b`; Theorem 6.7 bounds the collision probability
/// by `5(|e1|+|e2|)/2^b`. We therefore provide three concrete widths:
///
///  - \ref Hash128 : the production default. 128 bits make collisions
///    negligible even for billion-node expressions (Section 6.2).
///  - \ref Hash64  : a cheaper variant for performance experiments.
///  - \ref Hash16  : used by the Appendix B collision study (Figure 4),
///    where collisions must be frequent enough to count. The *algorithm*
///    runs at 16 bits end to end so that low-level collisions propagate
///    upward exactly as in the paper's adversarial experiment.
///
/// All three types are plain value types supporting XOR (the commutative
/// combiner of Section 5.2), equality, ordering, and hashing into standard
/// containers.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_HASHCODE_H
#define HMA_SUPPORT_HASHCODE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace hma {

namespace detail {

/// Rotate \p X left by \p R bits.
constexpr uint64_t rotl64(uint64_t X, unsigned R) {
  return (X << R) | (X >> (64 - R));
}

/// The SplitMix64 finaliser: a fast, well-avalanched bijection on 64-bit
/// words. Used as the base building block for all hash combiners.
constexpr uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

} // namespace detail

/// A 128-bit hash code. The production hash width (see Theorem 6.8: at
/// b=128, expressions up to 10^9 nodes have collision probability below
/// 1e-10).
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  constexpr Hash128() = default;
  constexpr Hash128(uint64_t Hi, uint64_t Lo) : Hi(Hi), Lo(Lo) {}

  constexpr bool isZero() const { return Hi == 0 && Lo == 0; }

  friend constexpr bool operator==(Hash128 A, Hash128 B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend constexpr bool operator!=(Hash128 A, Hash128 B) { return !(A == B); }
  friend constexpr bool operator<(Hash128 A, Hash128 B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }

  /// XOR is the commutative, associative, invertible combiner the paper
  /// uses to aggregate variable-map entry hashes (Section 5.2).
  friend constexpr Hash128 operator^(Hash128 A, Hash128 B) {
    return Hash128(A.Hi ^ B.Hi, A.Lo ^ B.Lo);
  }
  Hash128 &operator^=(Hash128 B) {
    Hi ^= B.Hi;
    Lo ^= B.Lo;
    return *this;
  }

  /// Render as 32 lowercase hex digits (for diagnostics and examples).
  std::string toHex() const;
};

/// A 64-bit hash code.
struct Hash64 {
  uint64_t V = 0;

  constexpr Hash64() = default;
  constexpr explicit Hash64(uint64_t V) : V(V) {}

  constexpr bool isZero() const { return V == 0; }

  friend constexpr bool operator==(Hash64 A, Hash64 B) { return A.V == B.V; }
  friend constexpr bool operator!=(Hash64 A, Hash64 B) { return A.V != B.V; }
  friend constexpr bool operator<(Hash64 A, Hash64 B) { return A.V < B.V; }
  friend constexpr Hash64 operator^(Hash64 A, Hash64 B) {
    return Hash64(A.V ^ B.V);
  }
  Hash64 &operator^=(Hash64 B) {
    V ^= B.V;
    return *this;
  }

  std::string toHex() const;
};

/// A 32-bit hash code: wide enough that collisions are rare on small
/// corpora yet narrow enough to stress them in tests (the b=16/32/64/128
/// differential sweep in tests/smallvarmap_test.cpp).
struct Hash32 {
  uint32_t V = 0;

  constexpr Hash32() = default;
  constexpr explicit Hash32(uint32_t V) : V(V) {}

  constexpr bool isZero() const { return V == 0; }

  friend constexpr bool operator==(Hash32 A, Hash32 B) { return A.V == B.V; }
  friend constexpr bool operator!=(Hash32 A, Hash32 B) { return A.V != B.V; }
  friend constexpr bool operator<(Hash32 A, Hash32 B) { return A.V < B.V; }
  friend constexpr Hash32 operator^(Hash32 A, Hash32 B) {
    return Hash32(A.V ^ B.V);
  }
  Hash32 &operator^=(Hash32 B) {
    V ^= B.V;
    return *this;
  }

  std::string toHex() const;
};

/// A 16-bit hash code, for the Appendix B / Figure 4 collision experiment.
struct Hash16 {
  uint16_t V = 0;

  constexpr Hash16() = default;
  constexpr explicit Hash16(uint16_t V) : V(V) {}

  constexpr bool isZero() const { return V == 0; }

  friend constexpr bool operator==(Hash16 A, Hash16 B) { return A.V == B.V; }
  friend constexpr bool operator!=(Hash16 A, Hash16 B) { return A.V != B.V; }
  friend constexpr bool operator<(Hash16 A, Hash16 B) { return A.V < B.V; }
  friend constexpr Hash16 operator^(Hash16 A, Hash16 B) {
    return Hash16(static_cast<uint16_t>(A.V ^ B.V));
  }
  Hash16 &operator^=(Hash16 B) {
    V ^= B.V;
    return *this;
  }

  std::string toHex() const;
};

/// A streaming mixer over 64-bit words with 128 bits of internal state.
///
/// This is the "random hash combiner" of Lemma 6.6 in practical form: a
/// seeded (salted) non-commutative mixing function with strong avalanche.
/// Every combiner in the algorithm is an instance of this engine with a
/// distinct salt (see \ref HashSchema).
///
/// The engine is deliberately order-sensitive: combine(a, b) differs from
/// combine(b, a). Commutativity is introduced at exactly one place in the
/// algorithm -- the XOR aggregation of variable-map entries -- as the
/// paper prescribes.
///
/// The salt sets the start state (A, B) through two dependent splitmix64
/// rounds; \ref HashSchema::engine hands out copies of start states it
/// built once, so combiner calls skip those rounds.
class MixEngine {
public:
  explicit MixEngine(uint64_t Salt) {
    A = detail::splitmix64(Salt ^ 0x6A09E667F3BCC908ULL);
    B = detail::splitmix64(A ^ 0xBB67AE8584CAA73BULL);
  }

  /// Fold one 64-bit word into the state.
  void addWord(uint64_t W) {
    uint64_t M = (W ^ A) * 0x9E3779B97F4A7C15ULL;
    M ^= M >> 29;
    A = detail::rotl64(A, 27) + B + M;
    A = A * 5 + 0x52DCE729ULL;
    B = detail::rotl64(B ^ M, 31) * 0x2545F4914F6CDD1DULL;
  }

  void add(Hash128 H) {
    addWord(H.Hi);
    addWord(H.Lo);
  }
  void add(Hash64 H) { addWord(H.V); }
  void add(Hash32 H) { addWord(H.V); }
  void add(Hash16 H) { addWord(H.V); }

  /// Finalise to a hash code of width \p H. The 128-bit internal state is
  /// avalanched and truncated; for a fixed salt the result is a
  /// deterministic, well-distributed function of the words added.
  template <typename H> H finish() const;

private:
  uint64_t A;
  uint64_t B;

  uint64_t finishLo() const {
    return detail::splitmix64(B ^ detail::rotl64(A, 23));
  }
  uint64_t finishHi() const {
    return detail::splitmix64(A ^ detail::rotl64(B, 41) ^
                              0x84CAA73B6A09E667ULL);
  }
};

template <> inline Hash128 MixEngine::finish<Hash128>() const {
  return Hash128(finishHi(), finishLo());
}
template <> inline Hash64 MixEngine::finish<Hash64>() const {
  return Hash64(finishLo());
}
template <> inline Hash32 MixEngine::finish<Hash32>() const {
  return Hash32(static_cast<uint32_t>(finishLo()));
}
template <> inline Hash16 MixEngine::finish<Hash16>() const {
  return Hash16(static_cast<uint16_t>(finishLo()));
}

/// Width (in bits) and naming metadata for each hash code type.
template <typename H> struct HashWidth;
template <> struct HashWidth<Hash128> {
  static constexpr unsigned Bits = 128;
  static constexpr const char *Name = "Hash128";
};
template <> struct HashWidth<Hash64> {
  static constexpr unsigned Bits = 64;
  static constexpr const char *Name = "Hash64";
};
template <> struct HashWidth<Hash32> {
  static constexpr unsigned Bits = 32;
  static constexpr const char *Name = "Hash32";
};
template <> struct HashWidth<Hash16> {
  static constexpr unsigned Bits = 16;
  static constexpr const char *Name = "Hash16";
};

/// Functor hashing a hash code into a size_t, for unordered containers
/// (e.g. grouping subexpressions into equivalence classes by hash).
struct HashCodeHasher {
  size_t operator()(Hash128 H) const {
    return static_cast<size_t>(H.Hi ^ detail::rotl64(H.Lo, 32));
  }
  size_t operator()(Hash64 H) const { return static_cast<size_t>(H.V); }
  size_t operator()(Hash32 H) const { return static_cast<size_t>(H.V); }
  size_t operator()(Hash16 H) const { return static_cast<size_t>(H.V); }
};

} // namespace hma

#endif // HMA_SUPPORT_HASHCODE_H
