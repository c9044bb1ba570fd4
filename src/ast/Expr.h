//===- ast/Expr.h - Expression AST ----------------------------------------===//
///
/// \file
/// The expression language whose subexpressions we hash modulo alpha.
///
/// The paper's core language (Section 4.1) is
///
///   data Expression = Var Name | Lam Name Expression
///                   | App Expression Expression
///
/// and notes it "can readily be extended to handle richer binding
/// constructs (let, case, etc.), as well as constants". We implement that
/// extension, because the paper's motivation depends on it: the CSE
/// application rewrites with `let`, the unbalanced benchmark family is
/// motivated by "deeply-nested stacks of let expressions", and the
/// real-life ML workloads are constant- and let-heavy.
///
///   e ::= x | \x. e | e1 e2 | let x = e1 in e2 | k        (k an integer)
///
/// `let` is non-recursive: `x` scopes over the body only.
///
/// Nodes are immutable, arena-allocated by an \ref ExprContext, and carry
/// a dense per-context id (used to index per-node hash vectors) and their
/// subtree size (used by generators, CSE profitability, and tests).
/// Expressions must be *trees*: helpers that need parent pointers (CSE,
/// incremental hashing) assert tree-ness.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_AST_EXPR_H
#define HMA_AST_EXPR_H

#include "support/Arena.h"
#include "support/Interner.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string_view>

namespace hma {

/// Discriminator for \ref Expr nodes.
enum class ExprKind : uint8_t {
  Var,   ///< Variable occurrence.
  Lam,   ///< Lambda abstraction, one binder.
  App,   ///< Application.
  Let,   ///< Non-recursive let binding.
  Const, ///< Integer literal.
};

/// Human-readable name of an \ref ExprKind ("Var", "Lam", ...).
const char *exprKindName(ExprKind K);

/// An immutable expression node. Construct via \ref ExprContext.
class Expr {
public:
  ExprKind kind() const { return K; }

  /// Dense id within the owning context; ids index per-node hash vectors.
  uint32_t id() const { return Id; }

  /// Number of nodes in the subtree rooted here (>= 1).
  uint32_t treeSize() const { return Size; }

  // --- Var ---------------------------------------------------------------
  Name varName() const {
    assert(K == ExprKind::Var && "not a Var");
    return N;
  }

  // --- Lam ---------------------------------------------------------------
  Name lamBinder() const {
    assert(K == ExprKind::Lam && "not a Lam");
    return N;
  }
  const Expr *lamBody() const {
    assert(K == ExprKind::Lam && "not a Lam");
    return Kids.A;
  }

  // --- App ---------------------------------------------------------------
  const Expr *appFun() const {
    assert(K == ExprKind::App && "not an App");
    return Kids.A;
  }
  const Expr *appArg() const {
    assert(K == ExprKind::App && "not an App");
    return Kids.B;
  }

  // --- Let ---------------------------------------------------------------
  Name letBinder() const {
    assert(K == ExprKind::Let && "not a Let");
    return N;
  }
  const Expr *letBound() const {
    assert(K == ExprKind::Let && "not a Let");
    return Kids.A;
  }
  const Expr *letBody() const {
    assert(K == ExprKind::Let && "not a Let");
    return Kids.B;
  }

  // --- Const -------------------------------------------------------------
  int64_t constValue() const {
    assert(K == ExprKind::Const && "not a Const");
    return CVal;
  }

  // --- Generic child access (for traversals) ------------------------------
  unsigned numChildren() const {
    switch (K) {
    case ExprKind::Var:
    case ExprKind::Const:
      return 0;
    case ExprKind::Lam:
      return 1;
    case ExprKind::App:
    case ExprKind::Let:
      return 2;
    }
    assert(false && "covered switch");
    return 0;
  }

  /// Child \p I; Lam: {body}; App: {fun, arg}; Let: {bound, body}.
  const Expr *child(unsigned I) const {
    assert(I < numChildren() && "child index out of range");
    return I == 0 ? Kids.A : Kids.B;
  }

  /// The binder introduced by this node, or InvalidName.
  Name binder() const {
    return (K == ExprKind::Lam || K == ExprKind::Let) ? N : InvalidName;
  }

  /// True if this node binds a variable whose scope is child \p I.
  /// (Lam binds in child 0; Let binds in child 1 only.)
  bool bindsInChild(unsigned I) const {
    if (K == ExprKind::Lam)
      return I == 0;
    if (K == ExprKind::Let)
      return I == 1;
    return false;
  }

private:
  friend class ExprContext;
  Expr() = default;

  ExprKind K;
  Name N = InvalidName;
  uint32_t Id = 0;
  uint32_t Size = 1;
  union {
    struct {
      const Expr *A;
      const Expr *B;
    } Kids;
    int64_t CVal;
  };
};

/// Owns the arena, interner and id space for a family of expressions.
///
/// All expressions that are to be compared or hashed together must come
/// from one context (hash codes are stable across contexts with equal
/// seeds, but node ids and interned names are per-context).
class ExprContext {
public:
  ExprContext() = default;
  ExprContext(const ExprContext &) = delete;
  ExprContext &operator=(const ExprContext &) = delete;

  StringInterner &names() { return Interner; }
  const StringInterner &names() const { return Interner; }

  /// Total nodes created; also the exclusive upper bound of node ids.
  uint32_t numNodes() const { return NextId; }

  /// Intern \p Spelling (convenience forwarding).
  Name name(std::string_view Spelling) { return Interner.intern(Spelling); }

  // --- Node builders -------------------------------------------------------
  const Expr *var(Name N) {
    assert(N != InvalidName && "variable needs a name");
    Expr *E = fresh(ExprKind::Var);
    E->N = N;
    E->Size = 1;
    return E;
  }
  const Expr *var(std::string_view Spelling) { return var(name(Spelling)); }

  const Expr *lam(Name Binder, const Expr *Body) {
    assert(Body && "lambda needs a body");
    Expr *E = fresh(ExprKind::Lam);
    E->N = Binder;
    E->Kids.A = Body;
    E->Kids.B = nullptr;
    E->Size = 1 + Body->treeSize();
    return E;
  }
  const Expr *lam(std::string_view Binder, const Expr *Body) {
    return lam(name(Binder), Body);
  }

  const Expr *app(const Expr *Fun, const Expr *Arg) {
    assert(Fun && Arg && "application needs two children");
    Expr *E = fresh(ExprKind::App);
    E->Kids.A = Fun;
    E->Kids.B = Arg;
    E->Size = 1 + Fun->treeSize() + Arg->treeSize();
    return E;
  }

  /// Curried application sugar: app(f, {a, b}) == ((f a) b).
  const Expr *app(const Expr *Fun, std::initializer_list<const Expr *> Args) {
    const Expr *E = Fun;
    for (const Expr *A : Args)
      E = app(E, A);
    return E;
  }

  const Expr *let(Name Binder, const Expr *Bound, const Expr *Body) {
    assert(Bound && Body && "let needs a bound expression and a body");
    Expr *E = fresh(ExprKind::Let);
    E->N = Binder;
    E->Kids.A = Bound;
    E->Kids.B = Body;
    E->Size = 1 + Bound->treeSize() + Body->treeSize();
    return E;
  }
  const Expr *let(std::string_view Binder, const Expr *Bound,
                  const Expr *Body) {
    return let(name(Binder), Bound, Body);
  }

  const Expr *intConst(int64_t Value) {
    Expr *E = fresh(ExprKind::Const);
    E->CVal = Value;
    E->Size = 1;
    return E;
  }

  /// Deep-copy \p E (from this context) into a fresh tree. Used when a
  /// builder wants to "repeat" a fragment without creating sharing.
  const Expr *clone(const Expr *E);

  /// Scratch arena sharing the context's lifetime (for annotations).
  Arena &arena() { return Mem; }

  /// A process-unique id for this context instance. Pointer comparison
  /// alone cannot tell a context apart from a destroyed-and-recreated one
  /// at the same address (the classic ABA hazard for anything caching
  /// per-context state); the epoch can.
  uint64_t epoch() const { return Epoch; }

private:
  static uint64_t nextEpoch() {
    static std::atomic<uint64_t> Counter{0};
    return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  Expr *fresh(ExprKind K) {
    // Placement-new directly: Expr's constructor is private to this class.
    Expr *E = new (Mem.allocate(sizeof(Expr), alignof(Expr))) Expr();
    E->K = K;
    E->Id = NextId++;
    assert(NextId != 0 && "node id overflow");
    return E;
  }

  Arena Mem;
  StringInterner Interner;
  uint32_t NextId = 0;
  uint64_t Epoch = nextEpoch();
};

} // namespace hma

#endif // HMA_AST_EXPR_H
