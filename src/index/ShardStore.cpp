//===- index/ShardStore.cpp - Byte-walk exact verifier --------------------===//
///
/// \file
/// \ref verifyCandidateBytes: alpha-equivalence of a query and a
/// serialized candidate, decided in one pass over the candidate's bytes.
///
/// The walk is a visitor of \ref serial::walkBody over the candidate,
/// and tracks, per name-table entry, the preorder position of the
/// innermost binder in scope, saving and restoring it around each
/// binder's scope exactly as the decoder's tree would nest them. At each
/// candidate node it reads the query's next preorder node from
/// \ref ByteVerifier::QueryCursor.
///
/// The query side needs no scoping at all: its binders are proven
/// distinct and no binder name occurs free, so a query variable is bound
/// iff its local id was bound earlier in the walk, and its binder
/// positions live in an array indexed by that id.
///
//===----------------------------------------------------------------------===//

#include "index/ShardStore.h"

#include "obs/Metrics.h"

#include <cassert>

using namespace hma;

namespace {

constexpr uint32_t NoBinder = ~0u;
constexpr uint32_t NoKey = ~0u;

} // namespace

/// The verifier kernel and its query cursor (friends of
/// \ref DecodeScratch, whose buffers they reuse).
class hma::ByteVerifier {
public:
  /// One query node in preorder: its kind, its local id (Var, Lam, Let)
  /// and its value (Const).
  struct QueryNode {
    ExprKind Kind = ExprKind::App;
    uint32_t Key = 0;
    int64_t Value = 0;
  };

  /// A proven distinct-binder query blob, keyed by local id. It is read
  /// token by token: the candidate walk has already checked that the two
  /// streams have one shape, so the query needs no frame stack.
  class QueryCursor {
  public:
    QueryCursor(std::string_view Query, DecodeScratch &S)
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
  static bool verify(QueryCursor &Q, std::string_view Candidate,
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
      QueryCursor &Q;
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
  ByteVerifier::QueryCursor Q(Query, Scratch);
  return Q.ok() && ByteVerifier::verify(Q, Candidate, Scratch);
}
