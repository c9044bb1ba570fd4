//===- core/AlphaHasher.h - Hashing modulo alpha-equivalence ---------------===//
///
/// \file
/// The paper's headline algorithm (Sections 4.8 + 5): compositional
/// hashing of every subexpression modulo alpha-equivalence in
/// O(n (log n)^2) time.
///
/// This is the Step 2 realisation of the invertible e-summaries of
/// `summary/ESummary.h`:
///
///  - Structures and position trees are represented *by their hash codes*
///    (Section 5.1): the datatype constructors become O(1) salted hash
///    combiners and no tree is ever materialised.
///  - The variable map is a map from free variable to the hash code of
///    its position tree; its hash is the XOR of its entry hashes
///    (Section 5.2). XOR's commutativity/invertibility makes insertion,
///    alteration and removal O(1) on the aggregate; Lemma 6.5/6.6 and
///    Theorem 6.7 bound the collision cost of this one weak combiner.
///  - At each App/Let the *smaller* child map is folded into the bigger
///    one (Section 4.8), with moved entries re-hashed through a PTJoin
///    combiner salted with the node's StructureTag (we use the subtree
///    node count, which is strictly larger than any substructure's).
///
/// The hash of a node is hash(structure-hash, varmap-aggregate); two
/// subexpressions receive equal hashes iff they are alpha-equivalent,
/// except for collisions with probability <= 5(|e1|+|e2|)/2^b
/// (Theorem 6.7).
///
/// The class is templated over the hash code type so the Appendix B
/// collision study can run the genuine algorithm at b=16 (collisions must
/// propagate through the real data flow; truncating wider hashes after
/// the fact would not reproduce the adversarial behaviour), and over a
/// *map policy* selecting the variable-map representation:
///
///  - \ref AdaptiveVarMapPolicy (default): \ref SmallVarMap, which keeps
///    small maps in a sorted inline array and spills to a pooled
///    open-addressing hash table past the threshold. No step reads a map
///    in key order (a merge alters each moved entry by its own key, and
///    the map hash is an XOR), so a spilled map operation costs expected
///    O(1) instead of a tree's O(log n). Hash values are identical to the
///    AVL-only configuration -- the map representation is unobservable
///    through the algorithm (asserted by tests/smallvarmap_test.cpp).
///  - \ref AvlVarMapPolicy: the paper's plain balanced-tree maps, kept as
///    the reference for tests and ablation benchmarks
///    (bench/hash_throughput.cpp).
///
/// **One fold kernel, two drivers.** The paper's hash is one bottom-up
/// fold. Per node it needs only the kind, the binder or variable key,
/// the subtree size and the hash of a name's spelling, so the five
/// per-node cases are written once, as step functions over a value
/// stack, keyed by a name key and a subtree size. Two drivers feed them:
///
///  - the *Expr driver* (\ref hashAll, \ref hashAllInto, \ref hashRoot)
///    walks an \ref Expr tree in postorder; keys are the context's
///    interned names;
///  - the *byte driver* (\ref hashSerialized) walks an `ast/Serialize`
///    blob's preorder stream with \ref serial::walkBody, which closes
///    each interior node once its children are done (postorder again) and
///    counts its size. Keys are the blob's local name ids. Nothing is
///    decoded: no \ref ExprContext, no interning, no \ref Expr nodes.
///
/// Both produce bit-identical hashes for the same term. Both compute the
/// top-level summary pair only where it is observed: at every node when
/// \ref hashAll asks for per-node output, otherwise at the root only.
///
/// **The aggregate is kept only where it is read.** Only a node's summary
/// reads its map's XOR aggregate. Per-node output (\ref hashAll,
/// \ref hashAllInto) maintains it at every node, as Section 5.2 does.
/// The root-only drivers (\ref hashRoot, \ref hashSerialized) run the
/// same map operations without it and XOR the entry hashes of the root
/// map once, at the end. The invariant `Agg == XOR of entryHash(v, pos)
/// over the map` makes the two bit-identical. A name's spelling is then
/// hashed only if it is still free at the root: the Expr driver through
/// its per-context cache, the byte driver on demand. The mode is a
/// compile-time constant of the name-key functor (`Track`), so there is
/// one copy of the step functions.
///
/// A hasher owns reusable scratch -- the map pool, the postorder
/// worklist, the value stack and the byte driver's name table and frame
/// stack persist across calls -- so a long-lived hasher reaches a steady
/// state where hashing an expression performs *zero* heap allocations
/// (see poolAllocatedNodes()). The index's batch paths hold one hasher
/// per worker thread and feed it blobs through the byte driver; Expr
/// callers that recycle contexts \ref rebind it.
///
/// Precondition (Section 2.2): every binder in the input is distinct.
/// Where it is established differs by driver:
///
///  - the Expr driver trusts its caller (\ref uniquifyBinders, or a
///    decoder that set \ref DeserializeResult::DistinctBinders); debug
///    builds assert \ref hasDistinctBinders on every root;
///  - the byte driver proves it itself, with the decoder's own rules
///    (\ref serial::BinderProof), and fails on any blob it cannot prove
///    -- or that is malformed -- instead of hashing it. Debug builds
///    cross-check every byte-driver result against decode + Expr driver.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_CORE_ALPHAHASHER_H
#define HMA_CORE_ALPHAHASHER_H

#include "adt/SmallVarMap.h"
#include "ast/Expr.h"
#include "ast/Serialize.h"
#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "obs/Metrics.h"
#include "support/HashSchema.h"

#include <cassert>
#include <optional>
#include <string_view>
#include <vector>

namespace hma {

/// Operation counters, exposed so tests can check Lemma 6.1/6.2 (the
/// total number of variable-map operations is O(n log n)) empirically.
struct AlphaHashStats {
  uint64_t MapSingletons = 0; ///< Var leaves (one singleton each).
  uint64_t MapRemoves = 0;    ///< Binder removals (Lam / Let).
  uint64_t MapAlters = 0;     ///< Entries moved by smaller-into-bigger.

  uint64_t totalMapOps() const {
    return MapSingletons + MapRemoves + MapAlters;
  }
};

/// Hashes all subexpressions of an expression modulo alpha-equivalence.
template <typename H, typename MapPolicy = AdaptiveVarMapPolicy>
class AlphaHasher {
public:
  /// \p Ctx must own every expression later passed to hashAll (until the
  /// hasher is \ref rebind -ed to another context).
  explicit AlphaHasher(const ExprContext &Ctx,
                       const HashSchema &Schema = HashSchema())
      : Ctx(&Ctx), Schema(Schema),
        HereHash(this->Schema.template combineWords<H>(CombinerTag::PosHere,
                                                       0)),
        VarStruct(this->Schema.template combineWords<H>(
            CombinerTag::StructVar, 1)) {} // |d| salt

  /// Point the hasher at a different context, keeping the reusable
  /// scratch (map pool, worklist, value stack) warm. The per-name
  /// spelling-hash cache is invalidated -- name ids are context-local --
  /// but its capacity is retained, so a worker that recycles contexts
  /// every chunk stays allocation-free once warmed up.
  void rebind(const ExprContext &NewCtx) {
    // A rebind brackets a whole context's worth of hashing (never one
    // node), so a registry bump here is free relative to that work.
    static const obs::Counter Rebinds = obs::Counter::get(
        "hma_hasher_rebinds_total",
        "Hasher rebinds to a recycled context (Expr callers; the batch "
        "paths hash bytes and never rebind)");
    Rebinds.add(1);
    Ctx = &NewCtx;
    NameHashes.clear();
    NameHashValid.clear();
  }

  /// The context the hasher currently reads names and node ids from.
  const ExprContext &context() const { return *Ctx; }

  /// Hash every subexpression of \p Root. The result vector is indexed by
  /// node id (size = Ctx.numNodes(); ids outside \p Root keep H{}).
  std::vector<H> hashAll(const Expr *Root) {
    std::vector<H> Out(Ctx->numNodes());
    run<true>(Root, &Out);
    return Out;
  }

  /// Like \ref hashAll, but fills a caller-owned vector, reusing its
  /// capacity: the steady-state-zero-allocation variant of the API.
  void hashAllInto(const Expr *Root, std::vector<H> &Out) {
    Out.assign(Ctx->numNodes(), H{});
    run<true>(Root, &Out);
  }

  /// Hash \p Root only: the same map operations with no per-node
  /// aggregate, which is folded from the root map once at the end.
  H hashRoot(const Expr *Root) { return run<false>(Root, nullptr); }

  /// The byte driver: hash the term serialized in \p Bytes
  /// (`ast/Serialize` format) without decoding it. Equal to \ref hashRoot
  /// of the decoded term, bit for bit. Fails (std::nullopt) unless the
  /// blob is well-formed *and* \ref serial::BinderProof proves its
  /// binders distinct -- exactly when \ref deserializeExpr would set
  /// \ref DeserializeResult::DistinctBinders. Callers canonicalize a
  /// blob that fails (decode, \ref uniquifyBinders, re-serialize) and
  /// hash the result; a malformed blob fails that decode too. Independent
  /// of the bound context.
  std::optional<H> hashSerialized(std::string_view Bytes) {
    std::optional<H> Hash = runSerialized(Bytes);
#ifndef NDEBUG
    crossCheckSerialized(Bytes, Hash);
#endif
    return Hash;
  }

  /// Counters accumulated over all calls since construction/reset.
  const AlphaHashStats &stats() const { return Stats; }
  void resetStats() { Stats = AlphaHashStats(); }

  /// Map storage units (AVL nodes, or spilled-table slots) currently
  /// checked out of the pool (0 between calls).
  size_t poolLiveNodes() const { return P.liveNodes(); }

  /// Map storage units the pool ever allocated. Once the hasher has
  /// warmed up on the largest expression of a workload, this stops
  /// growing: hashing further expressions recycles pooled storage and
  /// performs no heap allocation at all.
  size_t poolAllocatedNodes() const { return P.allocatedNodes(); }

  /// The salted hash of a variable name's spelling (exposed for reuse by
  /// the incremental hasher and tests). Cached per name: O(1) amortised.
  H nameHash(Name N) {
    if (N >= NameHashes.size())
      growNameCache(N);
    if (!NameHashValid[N]) {
      std::string_view S = Ctx->names().spelling(N);
      NameHashes[N] =
          Schema.hashBytes<H>(CombinerTag::NameLeaf, S.data(), S.size());
      NameHashValid[N] = true;
    }
    return NameHashes[N];
  }

  const HashSchema &schema() const { return Schema; }

private:
  using Map = typename MapPolicy::template Map<Name, H>;
  using Pool = typename Map::Pool;

  /// A hashed variable map: the paper's `VM (Map Name PosTree) HashCode`
  /// with the hash as the XOR of entry hashes. A root-only fold leaves
  /// Agg at H{} until finish().
  struct VM {
    Map M;
    H Agg{};
    explicit VM(Pool &P) : M(P) {}
    VM(VM &&) = default;
    VM &operator=(VM &&) = default;
  };

  /// Per-child partial result on the value stack.
  struct Entry {
    H Struct; ///< Hash code standing for the Structure (Section 5.1).
    VM Vars;
    Entry(H Struct, Pool &P) : Struct(Struct), Vars(P) {}
  };

  // A name-key functor maps a key to its spelling hash. Its `Track`
  // constant says whether the fold maintains every node's aggregate
  // (per-node output) or leaves it to finish() (root only).

  /// The Expr driver's keys: interned names, their spelling hashes cached
  /// per context.
  template <bool TrackAgg> struct ContextNames {
    static constexpr bool Track = TrackAgg;
    AlphaHasher *A;
    H operator()(Name N) const { return A->nameHash(N); }
  };
  /// The byte driver's keys: the blob's local ids, all below the name
  /// count's UINT32_MAX cap and so never the maps' empty key. It only
  /// hashes roots, so a spelling is hashed on demand, once per name free
  /// at the root.
  struct LocalNames {
    static constexpr bool Track = false;
    const HashSchema *Schema;
    const std::string_view *Spellings;
    H operator()(Name Id) const {
      return Schema->hashBytes<H>(CombinerTag::NameLeaf, Spellings[Id].data(),
                                  Spellings[Id].size());
    }
  };

  const ExprContext *Ctx;
  HashSchema Schema;
  H HereHash;  ///< mkPTHere, the position tree of a lone variable.
  H VarStruct; ///< The structure of every Var leaf.
  AlphaHashStats Stats;
  std::vector<H> NameHashes;
  std::vector<uint8_t> NameHashValid;

  // Reusable scratch: the pool must outlive the value stack (entries
  // recycle their map nodes into it on destruction), so it is declared
  // first. All of it retains its capacity across calls.
  Pool P;
  std::vector<Entry> Values;
  PostorderWorklist Work;
  /// The byte driver's scratch: the blob's name table, the walk's frame
  /// stack and its binder proof.
  std::vector<std::string_view> BlobSpellings;
  std::vector<serial::WalkFrame> BlobFrames;
  serial::BinderProof BlobProof;

  /// Grow the name cache to cover \p N. Sized to the next power of two
  /// past both the interner's current size and N itself: names interned
  /// *after* a previous resize (mid-pass, or between two hashRoot calls)
  /// must not leave the cache silently short, and doubling keeps the
  /// amortised cost O(1) per name.
  void growNameCache(Name N) {
    size_t Need =
        std::max<size_t>(Ctx->names().size(), static_cast<size_t>(N) + 1);
    size_t Cap = NameHashes.empty() ? 16 : NameHashes.size();
    while (Cap < Need)
      Cap *= 2;
    NameHashes.resize(Cap);
    NameHashValid.resize(Cap, false);
  }

  /// The Expr driver: a postorder walk of \p Root feeding the kernel.
  /// With \p Track it writes every node's hash into \p Out.
  template <bool Track> H run(const Expr *Root, std::vector<H> *Out) {
    assert(Root && "nothing to hash");
    assert(hasDistinctBinders(*Ctx, Root) &&
           "hashing requires distinct binders; run uniquifyBinders first");
    assert(Values.empty() && "hasher is not reentrant");

    const ContextNames<Track> Keys{this};
    Work.reset(Root);
    while (const Expr *E = Work.next()) {
      switch (E->kind()) {
      case ExprKind::Var:
        stepVar(E->varName(), Keys);
        break;
      case ExprKind::Const:
        stepConst(E->constValue());
        break;
      case ExprKind::Lam:
        stepLam(E->lamBinder(), E->treeSize(), Keys);
        break;
      case ExprKind::App:
        stepApp(E->treeSize(), Keys);
        break;
      case ExprKind::Let:
        stepLet(E->letBinder(), E->treeSize(), Keys);
        break;
      }
      if constexpr (Track)
        (*Out)[E->id()] = summary(Values.back());
    }
    return finish(Keys);
  }

  /// The byte driver: \ref serial::walkBody over \p Bytes feeding the
  /// kernel, stopping at the first node that refutes the binder proof.
  std::optional<H> runSerialized(std::string_view Bytes) {
    assert(Values.empty() && "hasher is not reentrant");
    serial::Reader In(Bytes);
    if (!In.getMagic() || !serial::getNameTable(In, BlobSpellings))
      return std::nullopt;
    BlobProof.reset(BlobSpellings);
    if (!BlobProof.holds())
      return std::nullopt;

    const LocalNames Keys{&Schema, BlobSpellings.data()};
    struct Fold {
      AlphaHasher &A;
      const LocalNames &Keys;

      bool var(uint32_t Id) {
        if (!A.BlobProof.holds())
          return false;
        A.stepVar(Id, Keys);
        return true;
      }
      bool constant(int64_t V) {
        A.stepConst(V);
        return true;
      }
      bool open(const serial::WalkFrame &) { return A.BlobProof.holds(); }
      void letBody(const serial::WalkFrame &) {}
      bool close(const serial::WalkFrame &F, uint64_t Size) {
        switch (F.Kind) {
        case ExprKind::Lam:
          A.stepLam(F.Id, Size, Keys);
          break;
        case ExprKind::App:
          A.stepApp(Size, Keys);
          break;
        case ExprKind::Let:
          A.stepLet(F.Id, Size, Keys);
          break;
        case ExprKind::Var:
        case ExprKind::Const:
          break;
        }
        return true;
      }
    } V{*this, Keys};
    if (serial::walkBody(In, BlobSpellings.size(), BlobFrames, &BlobProof,
                         V) ||
        !BlobProof.holds()) {
      Values.clear(); // recycle the partial fold's map nodes
      return std::nullopt;
    }
    return finish(Keys);
  }

#ifndef NDEBUG
  /// The byte driver must succeed exactly when the decoder proves
  /// distinct binders, and then agree bit for bit with the Expr driver's
  /// per-node fold, which maintains the aggregate at every node -- so
  /// this also checks the root-only fold of the aggregate.
  void crossCheckSerialized(std::string_view Bytes,
                            const std::optional<H> &Hash) const {
    ExprContext DecodeCtx;
    DeserializeResult D = deserializeExpr(DecodeCtx, Bytes);
    assert(Hash.has_value() == (D.ok() && D.DistinctBinders) &&
           "byte driver and decoder disagree on the binder proof");
    if (Hash) {
      AlphaHasher<H, MapPolicy> Reference(DecodeCtx, Schema);
      assert(*Hash == Reference.hashAll(D.E)[D.E->id()] &&
             "byte driver and per-node Expr driver disagree");
    }
  }
#endif

  /// hashESummary: pair up the structure hash and the map hash.
  H summary(const Entry &E) const {
    return Schema.combine<H>(CombinerTag::SummaryPair, E.Struct, E.Vars.Agg);
  }

  /// The root's summary, after a driver's last step. A root-only fold
  /// kept no aggregate, so it XORs the root map's entry hashes here, once.
  template <typename KeyHash> H finish(const KeyHash &Keys) {
    assert(Values.size() == 1 && "postorder fold must yield one summary");
    VM &Vars = Values.back().Vars;
    if constexpr (!KeyHash::Track)
      Vars.M.forEach([&](Name V, const H &Pos) {
        Vars.Agg ^= entryHash(Keys(V), Pos);
      });
    const H Root = summary(Values.back());
    // Recycle the root summary's map nodes (the root's free variables)
    // into the pool; the stack keeps its capacity for the next call.
    Values.clear();
    return Root;
  }

  //===--------------------------------------------------------------------===//
  // The fold kernel: one step per node, in postorder. Every step edits
  // the value stack IN PLACE: a Lam rewrites the top slot, an App/Let
  // folds the top slot into the one below and pops. Entries (which embed
  // the inline small-map storage) are never shuffled through temporaries
  // -- on small expressions the stack traffic, not the map operations, is
  // the dominant cost. \p Keys maps a name key to its spelling hash;
  // the aggregate is kept only if `KeyHash::Track`.
  //===--------------------------------------------------------------------===//

  /// summariseExpr (Var v) = ESummary mkSVar (singletonVM v mkPTHere)
  template <typename KeyHash> void stepVar(Name V, const KeyHash &Keys) {
    Entry &Slot = Values.emplace_back(VarStruct, P);
    Slot.Vars.M.set(V, HereHash);
    if constexpr (KeyHash::Track)
      Slot.Vars.Agg = entryHash(Keys(V), HereHash);
    ++Stats.MapSingletons;
  }

  void stepConst(int64_t Value) {
    H CH = Schema.combineWords<H>(CombinerTag::ConstLeaf,
                                  static_cast<uint64_t>(Value));
    Values.emplace_back(Schema.combine<H>(CombinerTag::StructConst, CH), P);
  }

  /// summariseExpr (Lam x e): remove x from the body's map; its
  /// position-tree hash becomes part of the structure.
  template <typename KeyHash>
  void stepLam(Name Binder, uint64_t Size, const KeyHash &Keys) {
    Entry &Body = Values.back();
    std::optional<H> Pos = vmRemove(Body.Vars, Binder, Keys);
    Body.Struct = Pos ? Schema.combine<H>(CombinerTag::StructLamSome,
                                          sizeSalt(Size), *Pos, Body.Struct)
                      : Schema.combine<H>(CombinerTag::StructLamNone,
                                          sizeSalt(Size), Body.Struct);
  }

  /// Stack: [..., Fun, Arg]. Combine into Fun's slot, pop Arg.
  template <typename KeyHash> void stepApp(uint64_t Size, const KeyHash &Keys) {
    Entry &Arg = Values.back();
    Entry &Fun = Values[Values.size() - 2];
    combineBinary(Size, Fun, Arg, std::nullopt, CombinerTag::StructApp,
                  CombinerTag::StructApp, Keys);
    Values.pop_back();
  }

  /// Stack: [..., Bound, Body]. Combine into Bound's slot, pop Body.
  template <typename KeyHash>
  void stepLet(Name Binder, uint64_t Size, const KeyHash &Keys) {
    Entry &Body = Values.back();
    Entry &Bound = Values[Values.size() - 2];
    // The binder scopes over the body only: take its occurrences out
    // before the merge (they are positions within the body).
    std::optional<H> Pos = vmRemove(Body.Vars, Binder, Keys);
    combineBinary(Size, Bound, Body, Pos, CombinerTag::StructLetNone,
                  CombinerTag::StructLetSome, Keys);
    Values.pop_back();
  }

  /// hash of a (variable, position-tree) pair -- `entryHash` of
  /// Section 5.2 -- from the variable's spelling hash.
  H entryHash(H NameH, H Pos) const {
    return Schema.combine<H>(CombinerTag::VarMapEntry, NameH, Pos);
  }

  /// Lemma 6.6 salts every combiner call with the size |d| of the object
  /// being built; we feed the subtree size into the mix as a pseudo-part.
  static H sizeSalt(uint64_t Size) { return hashFromWord(Size); }

  static H hashFromWord(uint64_t W) {
    if constexpr (HashWidth<H>::Bits == 128)
      return H(0, W);
    else
      return H(static_cast<decltype(H{}.V)>(W));
  }

  /// Shared App/Let combination: structure hash + smaller-into-bigger
  /// variable map merge (Section 4.8). The result is written into
  /// \p Left (the stack slot that survives); \p Right is left empty for
  /// the caller to pop.
  template <typename KeyHash>
  void combineBinary(uint64_t Size, Entry &Left, Entry &Right,
                     std::optional<H> BinderPos, CombinerTag NoneTag,
                     CombinerTag SomeTag, const KeyHash &Keys) {
    bool LeftBigger = Left.Vars.M.size() >= Right.Vars.M.size();

    H St;
    if (BinderPos)
      St = Schema.combine<H>(SomeTag, sizeSalt(Size),
                             hashFromWord(LeftBigger), *BinderPos,
                             Left.Struct, Right.Struct);
    else
      St = Schema.combine<H>(NoneTag, sizeSalt(Size),
                             hashFromWord(LeftBigger), Left.Struct,
                             Right.Struct);

    // structureTag (Section 4.8): any value strictly larger than every
    // substructure's tag works; the subtree node count is free.
    uint64_t Tag = Size;

    VM &Big = LeftBigger ? Left.Vars : Right.Vars;
    VM &Small = LeftBigger ? Right.Vars : Left.Vars;

    // add_kv: move every entry of the smaller map into the bigger one,
    // wrapping it in a tagged PTJoin hash. Work here is proportional to
    // the *smaller* map only -- the crux of Lemma 6.1.
    Small.M.forEach([&](Name V, const H &SmallPos) {
      vmAlter(Big, V, Keys, [&](const H *BigPos) {
        return BigPos ? Schema.combine<H>(CombinerTag::PosJoinSome,
                                          hashFromWord(Tag), *BigPos,
                                          SmallPos)
                      : Schema.combine<H>(CombinerTag::PosJoinNone,
                                          hashFromWord(Tag), SmallPos);
      });
    });
    Small.M.clear();

    if (!LeftBigger)
      Left.Vars = std::move(Right.Vars); // one map move, only when needed
    Left.Struct = St;
  }

  /// alterVM with XOR bookkeeping (Section 5.2) when tracked.
  template <typename KeyHash, typename F>
  void vmAlter(VM &Vars, Name V, const KeyHash &Keys, F &&MakeNew) {
    ++Stats.MapAlters;
    Vars.M.alter(V, [&](H *Old) {
      H NewPos = MakeNew(static_cast<const H *>(Old));
      if constexpr (KeyHash::Track) {
        const H NameH = Keys(V);
        if (Old)
          Vars.Agg ^= entryHash(NameH, *Old);
        Vars.Agg ^= entryHash(NameH, NewPos);
      }
      return NewPos;
    });
  }

  /// removeFromVM with XOR bookkeeping (Section 5.2) when tracked.
  template <typename KeyHash>
  std::optional<H> vmRemove(VM &Vars, Name V, const KeyHash &Keys) {
    ++Stats.MapRemoves;
    std::optional<H> Old = Vars.M.remove(V);
    if constexpr (KeyHash::Track)
      if (Old)
        Vars.Agg ^= entryHash(Keys(V), *Old);
    return Old;
  }
};

} // namespace hma

#endif // HMA_CORE_ALPHAHASHER_H
