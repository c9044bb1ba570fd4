//===- core/LinearMapHasher.h - Appendix C affine-transform variant --------===//
///
/// \file
/// The paper's Appendix C alternative to StructureTags.
///
/// Where Section 4.8 tags every entry moved from the smaller map, this
/// variant keeps the naive semantics of Section 4.6 -- *both* children's
/// position trees are transformed at a merge -- but applies the
/// transformation to the bigger map *lazily*: each variable map carries an
/// invertible affine function f(x) = a*x + b (mod 2^bits, a odd) standing
/// for "apply me to every stored value". Then:
///
///  - transforming all of the bigger map's values is one O(1) function
///    composition;
///  - looking a value up applies f on the way out;
///  - inserting a value first passes it through f^-1 (maintained
///    alongside f as the appendix recommends, so no inversion happens on
///    the hot path);
///  - entries of the smaller map are inserted individually, and common
///    keys get a genuine PTBoth hash combine -- at most |smaller| such
///    calls, preserving the O(n log n) merge bound.
///
/// Linear functions compose, evaluate and invert in O(1); oddness of `a`
/// guarantees invertibility mod 2^b. The appendix notes this variant's
/// collision behaviour lacks the Theorem 6.7 proof but is strong in
/// practice; the ablation benchmark and the property tests quantify that
/// claim here.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_CORE_LINEARMAPHASHER_H
#define HMA_CORE_LINEARMAPHASHER_H

#include "adt/AvlMap.h"
#include "ast/Expr.h"
#include "ast/NameHashCache.h"
#include "ast/Traversal.h"
#include "support/HashSchema.h"

#include <cassert>
#include <optional>
#include <vector>

namespace hma {

/// Width-specific unsigned arithmetic for affine transforms. All
/// operations wrap mod 2^bits; narrow types compute in a wider type to
/// dodge integer-promotion UB.
template <typename H> struct LinearTraits;

template <> struct LinearTraits<Hash16> {
  using U = uint16_t;
  static U mul(U A, U B) {
    return static_cast<U>(static_cast<uint32_t>(A) *
                          static_cast<uint32_t>(B));
  }
  static U add(U A, U B) {
    return static_cast<U>(static_cast<uint32_t>(A) +
                          static_cast<uint32_t>(B));
  }
  static U sub(U A, U B) {
    return static_cast<U>(static_cast<uint32_t>(A) -
                          static_cast<uint32_t>(B));
  }
  static U fromHash(Hash16 X) { return X.V; }
  static Hash16 toHash(U X) { return Hash16(X); }
  static U fromWords(uint64_t Lo, uint64_t) { return static_cast<U>(Lo); }
  static void addToEngine(MixEngine &E, U X) { E.addWord(X); }
};

template <> struct LinearTraits<Hash64> {
  using U = uint64_t;
  static U mul(U A, U B) { return A * B; }
  static U add(U A, U B) { return A + B; }
  static U sub(U A, U B) { return A - B; }
  static U fromHash(Hash64 X) { return X.V; }
  static Hash64 toHash(U X) { return Hash64(X); }
  static U fromWords(uint64_t Lo, uint64_t) { return Lo; }
  static void addToEngine(MixEngine &E, U X) { E.addWord(X); }
};

template <> struct LinearTraits<Hash128> {
  using U = unsigned __int128;
  static U mul(U A, U B) { return A * B; }
  static U add(U A, U B) { return A + B; }
  static U sub(U A, U B) { return A - B; }
  static U fromHash(Hash128 X) {
    return (static_cast<U>(X.Hi) << 64) | X.Lo;
  }
  static Hash128 toHash(U X) {
    return Hash128(static_cast<uint64_t>(X >> 64),
                   static_cast<uint64_t>(X));
  }
  static U fromWords(uint64_t Lo, uint64_t Hi) {
    return (static_cast<U>(Hi) << 64) | Lo;
  }
  static void addToEngine(MixEngine &E, U X) {
    E.addWord(static_cast<uint64_t>(X));
    E.addWord(static_cast<uint64_t>(X >> 64));
  }
};

/// An invertible affine map x -> A*x + B over the hash space, maintained
/// together with its inverse (composition updates both in O(1)).
template <typename H> struct AffineTransform {
  using T = LinearTraits<H>;
  using U = typename T::U;

  U A = 1, B = 0;   ///< Forward: f(x) = A*x + B.
  U IA = 1, IB = 0; ///< Inverse: f^-1(y) = IA*y + IB.

  static AffineTransform identity() { return AffineTransform(); }

  /// Build from two seed words; forces A odd so the transform is a
  /// bijection mod 2^bits, then computes the exact inverse by Newton
  /// iteration (each step doubles the number of correct low bits).
  static AffineTransform fromSeed(uint64_t S0, uint64_t S1, uint64_t S2,
                                  uint64_t S3) {
    AffineTransform F;
    F.A = T::fromWords(S0, S1) | 1;
    F.B = T::fromWords(S2, S3);
    U Inv = F.A; // correct mod 2^3 for odd A
    for (int I = 0; I != 6; ++I)
      Inv = T::mul(Inv, T::sub(2, T::mul(F.A, Inv)));
    F.IA = Inv;
    // f^-1(y) = Inv*(y - B) = Inv*y - Inv*B.
    F.IB = T::sub(0, T::mul(Inv, F.B));
    assert(T::mul(F.A, F.IA) == 1 && "Newton inversion failed");
    return F;
  }

  U apply(U X) const { return T::add(T::mul(A, X), B); }
  U applyInverse(U Y) const { return T::add(T::mul(IA, Y), IB); }

  /// Replace f by g.f (apply g after f); inverse becomes f^-1 . g^-1.
  void composeAfter(const AffineTransform &G) {
    B = T::add(T::mul(G.A, B), G.B);
    A = T::mul(G.A, A);
    IB = T::add(T::mul(IA, G.IB), IB);
    IA = T::mul(IA, G.IA);
  }
};

/// Alpha-hashing with lazily transformed variable maps (Appendix C).
/// Same interface as \ref AlphaHasher; hash values are *not* comparable
/// across the two variants (different combiner algebra), but each induces
/// the same partition of subexpressions into alpha-equivalence classes.
template <typename H> class LinearMapHasher {
public:
  explicit LinearMapHasher(const ExprContext &Ctx,
                           const HashSchema &Schema = HashSchema())
      : Ctx(Ctx), Schema(Schema), NameH(this->Ctx, this->Schema) {
    auto Seed4 = [&](CombinerTag Tag) {
      uint64_t S = this->Schema.salt(Tag);
      uint64_t W0 = detail::splitmix64(S ^ 1), W1 = detail::splitmix64(S ^ 2),
               W2 = detail::splitmix64(S ^ 3), W3 = detail::splitmix64(S ^ 4);
      return AffineTransform<H>::fromSeed(W0, W1, W2, W3);
    };
    FLeft = Seed4(CombinerTag::LinearLeft);
    FRight = Seed4(CombinerTag::LinearRight);
  }

  std::vector<H> hashAll(const Expr *Root) {
    std::vector<H> Out(Ctx.numNodes());
    run(Root, &Out);
    return Out;
  }

  H hashRoot(const Expr *Root) { return run(Root, nullptr); }

private:
  using T = LinearTraits<H>;
  using U = typename T::U;
  using Map = AvlMap<Name, U>;
  using Pool = typename Map::Pool;

  /// A variable map whose stored values are read through a lazy affine
  /// transform. Agg XORs entry hashes of the *raw* stored values: raw
  /// values never change when the transform composes, so the aggregate
  /// survives whole-map transformation untouched; the transform itself is
  /// folded into the final map hash.
  struct VM {
    Map M;
    AffineTransform<H> F;
    H Agg{};
    explicit VM(Pool &P) : M(P) {}
    VM(VM &&) = default;
    VM &operator=(VM &&) = default;
  };

  struct Entry {
    H Struct;
    VM Vars;
    Entry(H Struct, VM &&Vars) : Struct(Struct), Vars(std::move(Vars)) {}
  };

  const ExprContext &Ctx;
  HashSchema Schema;
  NameHashCache<H> NameH;
  AffineTransform<H> FLeft, FRight;

  static H hashFromWord(uint64_t W) {
    if constexpr (HashWidth<H>::Bits == 128)
      return H(0, W);
    else
      return H(static_cast<decltype(H{}.V)>(W));
  }

  H entryHash(Name V, U Raw) {
    return Schema.combine<H>(CombinerTag::VarMapEntry, NameH(V),
                             T::toHash(Raw));
  }

  H mapHash(const VM &Vars) const {
    MixEngine E = Schema.engine(CombinerTag::LinearMapHash);
    T::addToEngine(E, Vars.F.A);
    T::addToEngine(E, Vars.F.B);
    E.add(Vars.Agg);
    return E.template finish<H>();
  }

  H run(const Expr *Root, std::vector<H> *Out) {
    assert(Root && "nothing to hash");
    assert(hasDistinctBinders(Ctx, Root) &&
           "hashing requires distinct binders; run uniquifyBinders first");
    Pool P;
    std::vector<Entry> Values;
    const H HereHash = Schema.combineWords<H>(CombinerTag::PosHere, 0);
    H NodeHash{};

    PostorderWorklist Work(Root);
    while (const Expr *E = Work.next()) {
      switch (E->kind()) {
      case ExprKind::Var: {
        VM Vars(P);
        U Raw = T::fromHash(HereHash);
        Vars.M.set(E->varName(), Raw);
        Vars.Agg = entryHash(E->varName(), Raw);
        Values.emplace_back(
            Schema.combineWords<H>(CombinerTag::StructVar, 1),
            std::move(Vars));
        break;
      }
      case ExprKind::Const: {
        VM Vars(P);
        H CH = Schema.combineWords<H>(CombinerTag::ConstLeaf,
                                      static_cast<uint64_t>(E->constValue()));
        Values.emplace_back(Schema.combine<H>(CombinerTag::StructConst, CH),
                            std::move(Vars));
        break;
      }
      case ExprKind::Lam: {
        Entry Body = std::move(Values.back());
        Values.pop_back();
        std::optional<H> Pos = removeBinder(Body.Vars, E->lamBinder());
        uint64_t Size = E->treeSize();
        H St = Pos ? Schema.combine<H>(CombinerTag::StructLamSome,
                                       hashFromWord(Size), *Pos, Body.Struct)
                   : Schema.combine<H>(CombinerTag::StructLamNone,
                                       hashFromWord(Size), Body.Struct);
        Values.emplace_back(St, std::move(Body.Vars));
        break;
      }
      case ExprKind::App: {
        Entry Arg = std::move(Values.back());
        Values.pop_back();
        Entry Fun = std::move(Values.back());
        Values.pop_back();
        Values.push_back(combineBinary(E, std::move(Fun), std::move(Arg),
                                       std::nullopt,
                                       CombinerTag::StructApp,
                                       CombinerTag::StructApp));
        break;
      }
      case ExprKind::Let: {
        Entry Body = std::move(Values.back());
        Values.pop_back();
        Entry Bound = std::move(Values.back());
        Values.pop_back();
        std::optional<H> Pos = removeBinder(Body.Vars, E->letBinder());
        Values.push_back(combineBinary(E, std::move(Bound), std::move(Body),
                                       Pos, CombinerTag::StructLetNone,
                                       CombinerTag::StructLetSome));
        break;
      }
      }
      Entry &Top = Values.back();
      NodeHash = Schema.combine<H>(CombinerTag::SummaryPair, Top.Struct,
                                   mapHash(Top.Vars));
      if (Out)
        (*Out)[E->id()] = NodeHash;
    }
    assert(Values.size() == 1 && "postorder fold must yield one summary");
    return NodeHash;
  }

  /// removeFromVM: the stored value is raw; the *true* position tree hash
  /// (fed into the structure) is the transform applied to it.
  std::optional<H> removeBinder(VM &Vars, Name Binder) {
    std::optional<U> Raw = Vars.M.remove(Binder);
    if (!Raw)
      return std::nullopt;
    Vars.Agg ^= entryHash(Binder, *Raw);
    return T::toHash(Vars.F.apply(*Raw));
  }

  Entry combineBinary(const Expr *E, Entry Left, Entry Right,
                      std::optional<H> BinderPos, CombinerTag NoneTag,
                      CombinerTag SomeTag) {
    bool LeftBigger = Left.Vars.M.size() >= Right.Vars.M.size();
    uint64_t Size = E->treeSize();

    // Appendix C keeps the naive (Section 4.6) structure: no bigger-side
    // flag, no tag; the merge is invertible through the transforms.
    H St;
    if (BinderPos)
      St = Schema.combine<H>(SomeTag, hashFromWord(Size), *BinderPos,
                             Left.Struct, Right.Struct);
    else
      St = Schema.combine<H>(NoneTag, hashFromWord(Size), Left.Struct,
                             Right.Struct);

    VM &Big = LeftBigger ? Left.Vars : Right.Vars;
    VM &Small = LeftBigger ? Right.Vars : Left.Vars;
    const AffineTransform<H> &SideBig = LeftBigger ? FLeft : FRight;
    const AffineTransform<H> &SideSmall = LeftBigger ? FRight : FLeft;

    // Transform the *whole* bigger map in O(1): compose the side
    // transform after its pending one.
    Big.F.composeAfter(SideBig);

    // Move the smaller map's entries one by one. True values flow:
    //   small raw --Small.F--> true --SideSmall--> transformed
    // and are stored through Big's (new) inverse so reads see them right.
    Small.M.forEach([&](Name V, const U &RawSmall) {
      U TrueSmall = SideSmall.apply(Small.F.apply(RawSmall));
      Big.M.alter(V, [&](U *RawBig) {
        U NewTrue;
        if (RawBig) {
          // Both children use V: a genuine PTBoth combine of the two
          // (transformed) position hashes, ordered left-to-right.
          U TrueBig = Big.F.apply(*RawBig);
          H L = T::toHash(LeftBigger ? TrueBig : TrueSmall);
          H R = T::toHash(LeftBigger ? TrueSmall : TrueBig);
          NewTrue = T::fromHash(
              Schema.combine<H>(CombinerTag::PosBoth, L, R));
          Big.Agg ^= entryHash(V, *RawBig);
        } else {
          NewTrue = TrueSmall;
        }
        U NewRaw = Big.F.applyInverse(NewTrue);
        Big.Agg ^= entryHash(V, NewRaw);
        return NewRaw;
      });
    });
    Small.M.clear();

    return Entry(St, std::move(Big));
  }
};

} // namespace hma

#endif // HMA_CORE_LINEARMAPHASHER_H
