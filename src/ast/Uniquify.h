//===- ast/Uniquify.h - Binder uniquification ------------------------------===//
///
/// \file
/// The preprocessing step of Section 2.2: rename binders so that "every
/// binding site binds a distinct variable name".
///
/// This removes the *name overloading* false positives of purely
/// syntactic approaches (the paper's `foo (let x=bar in x+2) (let x=pub
/// in x+2)` example) and establishes the precondition all hashing
/// algorithms in this library assume. The result is alpha-equivalent to
/// the input; free variables are untouched; binders that are already
/// globally unique keep their spelling, others get a fresh `name$k`.
///
/// Cost: O(n log n) (one pass, with persistent-map environments), as the
/// paper states for this step.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_AST_UNIQUIFY_H
#define HMA_AST_UNIQUIFY_H

#include "ast/Expr.h"

namespace hma {

/// Rewrite \p Root so every binder is distinct from every other binder
/// and from every free variable. Returns the (possibly new) root; returns
/// \p Root itself when it already satisfies the invariant.
const Expr *uniquifyBinders(ExprContext &Ctx, const Expr *Root);

} // namespace hma

#endif // HMA_AST_UNIQUIFY_H
