//===- index/ShardStore.cpp - Byte-walk exact verifier --------------------===//
///
/// \file
/// \ref verifyCandidateBytes: alpha-equivalence of a query tree and a
/// serialized candidate, decided in one pass over the candidate's bytes.
///
/// The candidate side tracks, per name-table entry, the preorder
/// position of the innermost binder in scope, saving and restoring it
/// around each binder's scope exactly as the decoder's tree would nest
/// them. The query side needs no scoping at all: its binders are
/// distinct and no binder name occurs free, so a query variable is bound
/// iff its name was entered into the binder table earlier in the walk.
/// That table is keyed by name and sized by the query, so a scratch that
/// serves queries from a context with millions of names stays small.
///
//===----------------------------------------------------------------------===//

#include "index/ShardStore.h"

#include "obs/Metrics.h"

using namespace hma;

namespace {

constexpr uint32_t NoBinder = ~0u;
constexpr uint32_t EmptySlot = ~0u;

/// Table size, as a power of two, that keeps \p Entries at most half full.
unsigned bitsFor(uint64_t Entries) {
  unsigned Bits = 1;
  while ((uint64_t(1) << Bits) < 2 * Entries)
    ++Bits;
  return Bits;
}

/// Home slot of \p S in a table of 2^\p Bits: FNV-1a, then the top bits
/// of a Fibonacci multiply.
size_t spellingSlot(std::string_view S, unsigned Bits) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ull;
  }
  return static_cast<size_t>((H * 0x9E3779B97F4A7C15ull) >> (64 - Bits));
}

} // namespace

bool hma::verifyCandidateBytes(const ExprContext &QueryCtx, const Expr *Query,
                               std::string_view Candidate,
                               DecodeScratch &Scratch) {
  static const obs::Counter VerifiedBytes = obs::Counter::get(
      "hma_fallback_verified_bytes_total",
      "Candidate blob bytes walked by the exact-verify fallback (live and "
      "mapped read and write paths)");
  VerifiedBytes.add(Candidate.size());

  serial::Reader In(Candidate);
  uint64_t NameCount;
  if (!In.getMagic() || !In.getNameCount(NameCount))
    return false;
  auto &Names = Scratch.Names;
  Names.clear();
  for (uint64_t I = 0; I != NameCount; ++I) {
    std::string_view Spelling;
    if (!In.getSpelling(Spelling))
      return false;
    Names.push_back({Spelling, static_cast<uint32_t>(I), NoBinder,
                     InvalidName});
  }

  // Merge repeated spellings onto their first entry, as the decoder's
  // interning does: an open-addressing table over the spellings.
  if (NameCount > 1) {
    const unsigned Bits = bitsFor(NameCount);
    auto &Slots = Scratch.SpellingSlots;
    Slots.assign(size_t(1) << Bits, EmptySlot);
    const size_t Mask = Slots.size() - 1;
    for (uint32_t I = 0; I != Names.size(); ++I) {
      size_t Slot = spellingSlot(Names[I].Spelling, Bits);
      for (;; Slot = (Slot + 1) & Mask) {
        if (Slots[Slot] == EmptySlot) {
          Slots[Slot] = I;
          break;
        }
        if (Names[Slots[Slot]].Spelling == Names[I].Spelling) {
          Names[I].Canon = Slots[Slot];
          break;
        }
      }
    }
  }

  // The query's binders, stamped with this walk's epoch, in the first
  // 2^QueryBits slots of the table. The tree size bounds the binder
  // count, so those slots stay at most half full.
  auto &Table = Scratch.QueryBinders;
  const unsigned QueryBits = bitsFor(Query->treeSize());
  const size_t QueryMask = (size_t(1) << QueryBits) - 1;
  if (Table.size() <= QueryMask)
    Table.assign(QueryMask + 1, {InvalidName, 0, 0});
  if (++Scratch.Epoch == 0) {
    for (DecodeScratch::QueryBinder &B : Table)
      B.Stamp = 0;
    Scratch.Epoch = 1;
  }
  const uint32_t Epoch = Scratch.Epoch;
  // Names are dense per context and a query's names are mostly interned
  // together, so the low bits of the name itself spread them best.
  auto bindQuery = [&](Name N, uint32_t At) {
    size_t Slot = N & QueryMask;
    while (Table[Slot].Stamp == Epoch)
      Slot = (Slot + 1) & QueryMask;
    Table[Slot] = {N, At, Epoch};
  };
  auto queryBinder = [&](Name N) {
    for (size_t Slot = N & QueryMask; Table[Slot].Stamp == Epoch;
         Slot = (Slot + 1) & QueryMask)
      if (Table[Slot].N == N)
        return Table[Slot].Pos;
    return NoBinder;
  };

  // A name-table reference, resolved to its merged entry.
  auto readName = [&](uint32_t &Id) {
    uint64_t Local;
    if (!In.getVarint(Local) || Local >= NameCount)
      return false;
    Id = Names[Local].Canon;
    return true;
  };

  auto &Steps = Scratch.Steps;
  Steps.clear();
  Steps.push_back({Query, 0, 0});
  uint32_t Pos = 0; // preorder position of the node being visited
  while (!Steps.empty()) {
    const DecodeScratch::WalkStep S = Steps.back();
    Steps.pop_back();
    if (!S.E) {
      Names[S.Id].BinderPos = S.Pos;
      continue;
    }
    const Expr *E = S.E;
    uint8_t Tag;
    if (!In.getByte(Tag) || Tag != static_cast<uint8_t>(E->kind()))
      return false;
    ++Pos;
    uint32_t Id;
    switch (E->kind()) {
    case ExprKind::Var: {
      if (!readName(Id))
        return false;
      DecodeScratch::CandidateName &C = Names[Id];
      const Name Q = E->varName();
      const uint32_t QueryPos = queryBinder(Q);
      if (QueryPos != NoBinder || C.BinderPos != NoBinder) {
        // Bound on either side: both, by binders at the same position.
        if (QueryPos != C.BinderPos)
          return false;
      } else if (C.FreeMatch != Q) {
        // Both free: equal spellings (checked once per candidate name).
        if (C.FreeMatch != InvalidName ||
            QueryCtx.names().spelling(Q) != C.Spelling)
          return false;
        C.FreeMatch = Q;
      }
      break;
    }
    case ExprKind::Const: {
      int64_t V;
      if (!In.getZigzag(V) || V != E->constValue())
        return false;
      break;
    }
    case ExprKind::Lam:
      if (!readName(Id))
        return false;
      bindQuery(E->lamBinder(), Pos);
      Steps.push_back({nullptr, Id, Names[Id].BinderPos}); // scope exit
      Names[Id].BinderPos = Pos;
      Steps.push_back({E->lamBody(), 0, 0});
      break;
    case ExprKind::App:
      Steps.push_back({E->appArg(), 0, 0});
      Steps.push_back({E->appFun(), 0, 0});
      break;
    case ExprKind::Let:
      if (!readName(Id))
        return false;
      bindQuery(E->letBinder(), Pos);
      // The binder scopes over the body only: it enters scope once the
      // bound expression is done and leaves it after the body.
      Steps.push_back({nullptr, Id, Names[Id].BinderPos});
      Steps.push_back({E->letBody(), 0, 0});
      Steps.push_back({nullptr, Id, Pos});
      Steps.push_back({E->letBound(), 0, 0});
      break;
    }
  }
  return In.atEnd();
}
