//===- index/ShardStore.cpp - Byte-walk exact verifier --------------------===//
///
/// \file
/// \ref verifyCandidateBytes: alpha-equivalence of a query and a
/// serialized candidate, decided in one pass over the candidate's bytes.
///
/// One candidate walk serves both query forms. It is a visitor of
/// \ref serial::walkBody over the candidate, and tracks, per name-table
/// entry, the preorder position of the innermost binder in scope, saving
/// and restoring it around each binder's scope exactly as the decoder's
/// tree would nest them. At each candidate node it pulls the query's
/// next preorder node from a *cursor*: \ref ByteVerifier::ExprCursor
/// walks a query tree, \ref ByteVerifier::BlobCursor reads a query blob.
///
/// The query side needs no scoping at all: its binders are distinct and
/// no binder name occurs free, so a query variable is bound iff its key
/// was bound earlier in the walk. A tree query keys by interned name, in
/// a table sized by the query (so a scratch that serves queries from a
/// context with millions of names stays small); a blob query keys by
/// local id, in an array indexed by it.
///
//===----------------------------------------------------------------------===//

#include "index/ShardStore.h"

#include "obs/Metrics.h"

#include <cassert>

using namespace hma;

namespace {

constexpr uint32_t NoBinder = ~0u;
constexpr uint32_t NoKey = ~0u;

/// Table size, as a power of two, that keeps \p Entries at most half full.
unsigned bitsFor(uint64_t Entries) {
  unsigned Bits = 1;
  while ((uint64_t(1) << Bits) < 2 * Entries)
    ++Bits;
  return Bits;
}

} // namespace

/// The verifier kernel and its two query cursors (friends of
/// \ref DecodeScratch, whose buffers they reuse).
class hma::ByteVerifier {
public:
  /// One query node in preorder: its kind, its name key (Var, Lam, Let)
  /// and its value (Const).
  struct QueryNode {
    ExprKind Kind = ExprKind::App;
    uint32_t Key = 0;
    int64_t Value = 0;
  };

  /// A distinct-binder query tree, keyed by interned name.
  class ExprCursor {
  public:
    ExprCursor(const ExprContext &Ctx, const Expr *Root, DecodeScratch &S)
        : Ctx(Ctx), S(S), Table(S.QueryBinders) {
      S.QueryStack.clear();
      S.QueryStack.push_back(Root);
      // The query's binders, stamped with this walk's epoch, in the first
      // 2^Bits slots of the table. The tree size bounds the binder count,
      // so those slots stay at most half full.
      Mask = (size_t(1) << bitsFor(Root->treeSize())) - 1;
      if (Table.size() <= Mask)
        Table.assign(Mask + 1, {InvalidName, 0, 0});
      if (++S.Epoch == 0) {
        for (DecodeScratch::QueryBinder &B : Table)
          B.Stamp = 0;
        S.Epoch = 1;
      }
      Epoch = S.Epoch;
    }

    bool next(QueryNode &N) {
      if (S.QueryStack.empty())
        return false;
      const Expr *E = S.QueryStack.back();
      S.QueryStack.pop_back();
      for (unsigned I = E->numChildren(); I-- > 0;)
        S.QueryStack.push_back(E->child(I));
      N.Kind = E->kind();
      switch (E->kind()) {
      case ExprKind::Var:
        N.Key = E->varName();
        break;
      case ExprKind::Const:
        N.Value = E->constValue();
        break;
      case ExprKind::Lam:
      case ExprKind::Let:
        N.Key = E->binder();
        break;
      case ExprKind::App:
        break;
      }
      return true;
    }

    // Names are dense per context and a query's names are mostly
    // interned together, so the low bits of the name spread them best.
    void bind(uint32_t Key, uint32_t Pos) {
      size_t Slot = Key & Mask;
      while (Table[Slot].Stamp == Epoch)
        Slot = (Slot + 1) & Mask;
      Table[Slot] = {Key, Pos, Epoch};
    }
    uint32_t binderPos(uint32_t Key) const {
      for (size_t Slot = Key & Mask; Table[Slot].Stamp == Epoch;
           Slot = (Slot + 1) & Mask)
        if (Table[Slot].N == Key)
          return Table[Slot].Pos;
      return NoBinder;
    }
    std::string_view spelling(uint32_t Key) const {
      return Ctx.names().spelling(Key);
    }

  private:
    const ExprContext &Ctx;
    DecodeScratch &S;
    std::vector<DecodeScratch::QueryBinder> &Table;
    size_t Mask;
    uint32_t Epoch;
  };

  /// A proven distinct-binder query blob, keyed by local id. It is read
  /// token by token: the candidate walk has already checked that the two
  /// streams have one shape, so the query needs no frame stack.
  class BlobCursor {
  public:
    BlobCursor(std::string_view Query, DecodeScratch &S)
        : In(Query), S(S) {
      Ok = In.getMagic() && serial::getNameTable(In, S.QuerySpellings);
      S.QueryBinderPos.assign(S.QuerySpellings.size(), NoBinder);
    }
    bool ok() const { return Ok; }

    bool next(QueryNode &N) {
      uint8_t Tag;
      if (!In.getByte(Tag) || Tag > static_cast<uint8_t>(ExprKind::Const))
        return false;
      N.Kind = static_cast<ExprKind>(Tag);
      if (N.Kind == ExprKind::Const)
        return In.getZigzag(N.Value);
      if (N.Kind == ExprKind::App)
        return true;
      uint64_t Key;
      if (!In.getVarint(Key) || Key >= S.QuerySpellings.size())
        return false;
      N.Key = static_cast<uint32_t>(Key);
      return true;
    }

    void bind(uint32_t Key, uint32_t Pos) { S.QueryBinderPos[Key] = Pos; }
    uint32_t binderPos(uint32_t Key) const { return S.QueryBinderPos[Key]; }
    std::string_view spelling(uint32_t Key) const {
      return S.QuerySpellings[Key];
    }

  private:
    serial::Reader In;
    DecodeScratch &S;
    bool Ok;
  };

  /// The candidate walk, in lockstep with query cursor \p Q.
  template <typename Cursor>
  static bool verify(Cursor &Q, std::string_view Candidate,
                     DecodeScratch &S) {
    static const obs::Counter VerifiedBytes = obs::Counter::get(
        "hma_fallback_verified_bytes_total",
        "Candidate blob bytes walked by the exact-verify fallback (live and "
        "mapped read and write paths)");
    VerifiedBytes.add(Candidate.size());

    serial::Reader In(Candidate);
    if (!In.getMagic() || !serial::getNameTable(In, S.Spellings))
      return false;
    // Repeated spellings merge onto their first entry, as the decoder's
    // interning merges them.
    serial::firstSpellings(S.Spellings, S.Canon, S.SpellingSlots);
    S.Names.assign(S.Spellings.size(), {NoBinder, NoKey});
    S.SavedPos.clear();

    struct Lockstep {
      Cursor &Q;
      DecodeScratch &S;

      uint32_t &binderPos(uint32_t Local) {
        return S.Names[S.Canon[Local]].BinderPos;
      }

      bool var(uint32_t Local) {
        QueryNode N;
        if (!Q.next(N) || N.Kind != ExprKind::Var)
          return false;
        const uint32_t Id = S.Canon[Local];
        DecodeScratch::CandidateName &C = S.Names[Id];
        const uint32_t QueryPos = Q.binderPos(N.Key);
        // Bound on either side: both, by binders at the same position.
        if (QueryPos != NoBinder || C.BinderPos != NoBinder)
          return QueryPos == C.BinderPos;
        if (C.FreeMatch == N.Key)
          return true;
        // Both free: equal spellings (checked once per candidate name).
        if (C.FreeMatch != NoKey || Q.spelling(N.Key) != S.Spellings[Id])
          return false;
        C.FreeMatch = N.Key;
        return true;
      }
      bool constant(int64_t Value) {
        QueryNode N;
        return Q.next(N) && N.Kind == ExprKind::Const && N.Value == Value;
      }
      bool open(const serial::WalkFrame &F) {
        QueryNode N;
        if (!Q.next(N) || N.Kind != F.Kind)
          return false;
        if (F.Kind == ExprKind::App)
          return true;
        const uint32_t Pos = static_cast<uint32_t>(F.Start);
        Q.bind(N.Key, Pos);
        uint32_t &Cand = binderPos(F.Id);
        S.SavedPos.push_back(Cand);
        // A let binder scopes over the body only (see letBody).
        if (F.Kind == ExprKind::Lam)
          Cand = Pos;
        return true;
      }
      void letBody(const serial::WalkFrame &F) {
        binderPos(F.Id) = static_cast<uint32_t>(F.Start);
      }
      bool close(const serial::WalkFrame &F, uint64_t) {
        if (F.Kind != ExprKind::App) {
          binderPos(F.Id) = S.SavedPos.back();
          S.SavedPos.pop_back();
        }
        return true;
      }
    } V{Q, S};
    // Equal tag streams are equal shapes, so the query ends exactly where
    // the candidate does.
    return serial::walkBody(In, S.Spellings.size(), S.Frames, nullptr, V) ==
           nullptr;
  }
};

bool hma::verifyCandidateBytes(const ExprContext &QueryCtx, const Expr *Query,
                               std::string_view Candidate,
                               DecodeScratch &Scratch) {
  ByteVerifier::ExprCursor Q(QueryCtx, Query, Scratch);
  return ByteVerifier::verify(Q, Candidate, Scratch);
}

bool hma::verifyCandidateBytes(std::string_view Query,
                               std::string_view Candidate,
                               DecodeScratch &Scratch) {
#ifndef NDEBUG
  {
    ExprContext Ctx;
    DeserializeResult D = deserializeExpr(Ctx, Query);
    assert(D.ok() && D.DistinctBinders &&
           "a blob query must be proven distinct-binder");
  }
#endif
  ByteVerifier::BlobCursor Q(Query, Scratch);
  return Q.ok() && ByteVerifier::verify(Q, Candidate, Scratch);
}
