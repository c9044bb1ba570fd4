//===- ast/Serialize.cpp - Compact expression serialization ------------------===//
///
/// \file
/// LEB128-based encoder and a defensive, iterative decoder.
///
//===----------------------------------------------------------------------===//

#include "ast/Serialize.h"

#include "ast/Traversal.h"

#include <algorithm>
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

void putZigzag(std::string &Out, int64_t V) {
  putVarint(Out, (static_cast<uint64_t>(V) << 1) ^
                     static_cast<uint64_t>(V >> 63));
}

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

DeserializeResult hma::deserializeExpr(ExprContext &Ctx,
                                       std::string_view Bytes) {
  auto Fail = [&](const char *Message, size_t Pos) {
    DeserializeResult R;
    R.Error = std::string(Message) + " at byte " + std::to_string(Pos);
    return R;
  };

  serial::Reader In(Bytes);
  if (!In.getMagic())
    return Fail("bad magic", 0);

  uint64_t NameCount;
  if (!In.getNameCount(NameCount))
    return Fail("corrupt name table", In.position());

  // Distinct-binder proof, part one: no spelling repeats in the table.
  // A name the interner creates here cannot repeat an earlier entry; a
  // name it already held repeats one iff it was created by this table or
  // appears twice among the table's pre-existing names.
  //
  // Part two, on the preorder walk, tracks each local id's binder state:
  // a binder must find its id Unseen; a Var may name an Unseen or Free id
  // (a free variable) or an id whose binder is in scope. Anything else
  // -- a repeated binder, a binder after a free use, a use in a let's
  // bound expression or after the scope closed -- clears the flag.
  enum BinderState : uint8_t { Unseen, Free, Pending, InScope, Closed };
  struct LocalName {
    Name N;
    uint8_t State;
  };
  bool Distinct = true;
  const Name FirstNew = static_cast<Name>(Ctx.names().size());
  std::vector<LocalName> Names;
  std::vector<Name> Existing;
  Names.reserve(NameCount);
  for (uint64_t I = 0; I != NameCount; ++I) {
    std::string_view Spelling;
    if (!In.getSpelling(Spelling))
      return Fail("truncated name table", In.position());
    const size_t Before = Ctx.names().size();
    Name N = Ctx.name(Spelling);
    if (Ctx.names().size() == Before) {
      if (N >= FirstNew)
        Distinct = false;
      else
        Existing.push_back(N);
    }
    Names.push_back({N, Unseen});
  }
  if (Distinct && Existing.size() > 1) {
    std::sort(Existing.begin(), Existing.end());
    Distinct = std::adjacent_find(Existing.begin(), Existing.end()) ==
               Existing.end();
  }

  auto bindAt = [&](uint64_t Id, uint8_t Next) {
    uint8_t &S = Names[Id].State;
    if (S != Unseen)
      Distinct = false;
    else
      S = Next;
  };
  auto useAt = [&](uint64_t Id) {
    uint8_t &S = Names[Id].State;
    if (S == Unseen)
      S = Free;
    else if (S == Pending || S == Closed)
      Distinct = false;
  };

  // Iterative preorder reconstruction: frames collect children until
  // full, then fold upward.
  struct Frame {
    ExprKind K;
    Name N;
    int64_t CVal;
    uint64_t Id; ///< Local id of the name or binder.
    unsigned Need;
    unsigned Got;
    const Expr *Child[2];
  };
  std::vector<Frame> Stack;
  const Expr *Completed = nullptr;

  auto readName = [&](Frame &F) {
    if (!In.getVarint(F.Id) || F.Id >= Names.size())
      return false;
    F.N = Names[F.Id].N;
    return true;
  };

  do {
    uint8_t Tag;
    if (!In.getByte(Tag))
      return Fail("truncated body", In.position());
    if (Tag > static_cast<uint8_t>(ExprKind::Const))
      return Fail("invalid node tag", In.position() - 1);

    Frame F{static_cast<ExprKind>(Tag), InvalidName, 0, 0, 0, 0, {}};
    switch (F.K) {
    case ExprKind::Var:
      if (!readName(F))
        return Fail("bad name reference", In.position());
      useAt(F.Id);
      break;
    case ExprKind::Const:
      if (!In.getZigzag(F.CVal))
        return Fail("truncated constant", In.position());
      break;
    case ExprKind::Lam:
      if (!readName(F))
        return Fail("bad binder reference", In.position());
      bindAt(F.Id, InScope);
      F.Need = 1;
      break;
    case ExprKind::App:
      F.Need = 2;
      break;
    case ExprKind::Let:
      if (!readName(F))
        return Fail("bad binder reference", In.position());
      bindAt(F.Id, Pending); // in scope once the bound expression is done
      F.Need = 2;
      break;
    }

    if (F.Need != 0) {
      Stack.push_back(F);
      continue;
    }
    // Leaf: build and fold into pending frames.
    const Expr *Node = F.K == ExprKind::Var ? Ctx.var(F.N)
                                            : Ctx.intConst(F.CVal);
    for (;;) {
      if (Stack.empty()) {
        Completed = Node;
        break;
      }
      Frame &Top = Stack.back();
      Top.Child[Top.Got++] = Node;
      if (Top.Got < Top.Need) {
        if (Top.K == ExprKind::Let)
          Names[Top.Id].State = InScope;
        Node = nullptr;
        break;
      }
      switch (Top.K) {
      case ExprKind::Lam:
        Node = Ctx.lam(Top.N, Top.Child[0]);
        break;
      case ExprKind::App:
        Node = Ctx.app(Top.Child[0], Top.Child[1]);
        break;
      case ExprKind::Let:
        Node = Ctx.let(Top.N, Top.Child[0], Top.Child[1]);
        break;
      case ExprKind::Var:
      case ExprKind::Const:
        return Fail("internal: leaf frame on stack", In.position());
      }
      if (Top.K != ExprKind::App)
        Names[Top.Id].State = Closed;
      Stack.pop_back();
    }
  } while (!Completed);

  if (!In.atEnd())
    return Fail("trailing bytes after expression", In.position());
  DeserializeResult R;
  R.E = Completed;
  R.DistinctBinders = Distinct;
  return R;
}
