//===- ast/Serialize.cpp - Compact expression serialization ------------------===//
///
/// \file
/// LEB128-based encoder and a defensive, iterative decoder.
///
//===----------------------------------------------------------------------===//

#include "ast/Serialize.h"

#include "ast/Traversal.h"

#include <unordered_map>
#include <vector>

using namespace hma;

namespace {

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

/// Bytes \ref putVarint writes for \p V: the minimal encoding.
size_t varintSize(uint64_t V) {
  size_t N = 1;
  for (; V >= 0x80; V >>= 7)
    ++N;
  return N;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

void putZigzag(std::string &Out, int64_t V) { putVarint(Out, zigzag(V)); }

} // namespace

std::string hma::serializeExpr(const ExprContext &Ctx, const Expr *Root) {
  assert(Root && "nothing to serialize");

  // Local name table: dense ids in first-use (preorder) order.
  std::unordered_map<Name, uint64_t> LocalId;
  std::vector<Name> Names;
  preorder(Root, [&](const Expr *E) {
    Name N = InvalidName;
    if (E->kind() == ExprKind::Var)
      N = E->varName();
    else
      N = E->binder();
    if (N == InvalidName)
      return;
    if (LocalId.emplace(N, Names.size()).second)
      Names.push_back(N);
  });

  std::string Out;
  Out.append(serial::Magic, sizeof(serial::Magic));
  putVarint(Out, Names.size());
  for (Name N : Names) {
    std::string_view S = Ctx.names().spelling(N);
    putVarint(Out, S.size());
    Out.append(S);
  }

  preorder(Root, [&](const Expr *E) {
    Out.push_back(static_cast<char>(E->kind()));
    switch (E->kind()) {
    case ExprKind::Var:
      putVarint(Out, LocalId.at(E->varName()));
      break;
    case ExprKind::Lam:
      putVarint(Out, LocalId.at(E->lamBinder()));
      break;
    case ExprKind::Let:
      putVarint(Out, LocalId.at(E->letBinder()));
      break;
    case ExprKind::Const:
      putZigzag(Out, E->constValue());
      break;
    case ExprKind::App:
      break;
    }
  });
  return Out;
}

bool serial::firstSpellings(const std::vector<std::string_view> &Spellings,
                            std::vector<uint32_t> &Canon,
                            std::vector<uint32_t> &Slots) {
  constexpr uint32_t EmptySlot = ~0u;
  const uint32_t Count = static_cast<uint32_t>(Spellings.size());
  Canon.resize(Count);
  for (uint32_t I = 0; I != Count; ++I)
    Canon[I] = I;
  if (Count < 2)
    return true;
  // Open addressing over the spellings, at most half full: FNV-1a, then
  // the top bits of a Fibonacci multiply pick the home slot.
  unsigned Bits = 1;
  while ((uint64_t(1) << Bits) < 2 * uint64_t(Count))
    ++Bits;
  Slots.assign(size_t(1) << Bits, EmptySlot);
  const size_t Mask = Slots.size() - 1;
  bool Distinct = true;
  for (uint32_t I = 0; I != Count; ++I) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (char C : Spellings[I]) {
      H ^= static_cast<uint8_t>(C);
      H *= 0x100000001b3ull;
    }
    for (size_t Slot = (H * 0x9E3779B97F4A7C15ull) >> (64 - Bits);;
         Slot = (Slot + 1) & Mask) {
      if (Slots[Slot] == EmptySlot) {
        Slots[Slot] = I;
        break;
      }
      if (Spellings[Slots[Slot]] == Spellings[I]) {
        Canon[I] = Slots[Slot];
        Distinct = false;
        break;
      }
    }
  }
  return Distinct;
}

bool serial::inSerializerForm(std::string_view Bytes) {
  Reader In(Bytes);
  std::vector<std::string_view> Spellings;
  std::vector<uint32_t> Canon, Slots;
  if (!In.getMagic() || !getNameTable(In, Spellings) ||
      !firstSpellings(Spellings, Canon, Slots))
    return false;
  // The length the serializer would write, every varint minimal: a blob
  // of exactly this length has no over-long varint.
  size_t Want = sizeof(Magic) + varintSize(Spellings.size());
  for (std::string_view S : Spellings)
    Want += varintSize(S.size()) + S.size();
  struct Check {
    size_t &Want;
    uint32_t Next = 0; ///< Entries first used so far.

    // A name's first use must take the next table entry.
    bool use(uint32_t Id) {
      Want += varintSize(Id);
      if (Id < Next)
        return true;
      return Id == Next++;
    }
    bool var(uint32_t Id) {
      Want += 1;
      return use(Id);
    }
    bool constant(int64_t Value) {
      Want += 1 + varintSize(zigzag(Value));
      return true;
    }
    bool open(const WalkFrame &F) {
      Want += 1;
      return F.Kind == ExprKind::App || use(F.Id);
    }
    void letBody(const WalkFrame &) {}
    bool close(const WalkFrame &, uint64_t) { return true; }
  } V{Want};
  std::vector<WalkFrame> Frames;
  return walkBody(In, Spellings.size(), Frames, nullptr, V) == nullptr &&
         V.Next == Spellings.size() && Want == Bytes.size();
}

DeserializeResult hma::deserializeExpr(ExprContext &Ctx,
                                       std::string_view Bytes) {
  serial::Reader In(Bytes);
  auto Fail = [&](const char *Message, size_t Pos) {
    DeserializeResult R;
    R.Error = std::string(Message) + " at byte " + std::to_string(Pos);
    return R;
  };

  if (!In.getMagic())
    return Fail("bad magic", 0);
  std::vector<std::string_view> Spellings;
  if (!serial::getNameTable(In, Spellings))
    return Fail("corrupt name table", In.position());
  serial::BinderProof Proof;
  Proof.reset(Spellings);
  std::vector<Name> Names;
  Names.reserve(Spellings.size());
  for (std::string_view S : Spellings)
    Names.push_back(Ctx.name(S));

  // Leaves push a node; a finished interior node pops its children and
  // pushes itself, so the stack ends holding exactly the root.
  struct Builder {
    ExprContext &Ctx;
    const std::vector<Name> &Names;
    std::vector<const Expr *> Values;

    bool var(uint32_t Id) {
      Values.push_back(Ctx.var(Names[Id]));
      return true;
    }
    bool constant(int64_t V) {
      Values.push_back(Ctx.intConst(V));
      return true;
    }
    bool open(const serial::WalkFrame &) { return true; }
    void letBody(const serial::WalkFrame &) {}
    bool close(const serial::WalkFrame &F, uint64_t) {
      const Expr *Last = Values.back();
      if (F.Kind == ExprKind::Lam) {
        Values.back() = Ctx.lam(Names[F.Id], Last);
        return true;
      }
      Values.pop_back();
      const Expr *First = Values.back();
      Values.back() = F.Kind == ExprKind::App
                          ? Ctx.app(First, Last)
                          : Ctx.let(Names[F.Id], First, Last);
      return true;
    }
  } B{Ctx, Names, {}};
  std::vector<serial::WalkFrame> Stack;
  if (const char *Error =
          serial::walkBody(In, Spellings.size(), Stack, &Proof, B))
    return Fail(Error, In.position());
  DeserializeResult R;
  R.E = B.Values.back();
  R.DistinctBinders = Proof.holds();
  return R;
}
