# tests/cli_expr_test.cmake - the single-expression subcommands end to end.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_expr_test.cmake
#
# (ctest registers it as `cli_expr_test`). Pins the exact output of
# `hma hash`, `hma classes` and `hma cse` on one expression whose two
# let-bound terms are equal and whose two lambdas are alpha-equivalent
# under different binder names. Each hash, class, class count and
# member count, and the order classes print in (their first member's
# preorder position), must stay byte for byte what they are here.

cmake_minimum_required(VERSION 3.16)
include("${CMAKE_CURRENT_LIST_DIR}/cli_util.cmake")

file(WRITE "${WORK}/expr.txt" [=[
(let (u (add (mul x x) (mul y y))) (let (v (add (mul x x) (mul y y))) (mul (lam (p) (add p (div u two))) (lam (q) (add q (div u two))))))
]=])

# hma ARGN expr.txt must exit 0 and print exactly WANT_OUT on stdout and
# WANT_ERR on stderr.
function(expect_output WANT_OUT WANT_ERR)
  run_hma(RC OUT ERR ${ARGN} expr.txt)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "hma ${ARGN}: exit ${RC}, expected 0:\n${ERR}")
  endif()
  if(NOT OUT STREQUAL WANT_OUT)
    message(FATAL_ERROR "hma ${ARGN} stdout:\n${OUT}\nexpected:\n${WANT_OUT}")
  endif()
  if(NOT ERR STREQUAL WANT_ERR)
    message(FATAL_ERROR "hma ${ARGN} stderr:\n${ERR}\nexpected:\n${WANT_ERR}")
  endif()
endfunction()

# The root hash, then every repeated class but the root's: hash, count,
# first member.
expect_output([=[
e3deffe6b28754e05742f0d164ba5683  (let (u (add (mul x x) (mul y y))) (let (v (add (mul x x) (mul y y))) (mul (lam (p) (add p (div u two))) (lam (q) (add q (div u two))))))
fcaaa10c0e21c13161662dfe6ca24640  2x  (add (mul x x) (mul y y))
6af4a29a9d04a6cc7ad25fb7a11eadf5  2x  (add (mul x x))
0d7c82ac6c3b59f97b8d539effa93ca5  4x  add
6949da5d05cd65f20d958f0fd1b039cf  2x  (mul x x)
f70fba367a99db2e98beb66c73d5c4be  2x  (mul x)
a2501e5fecca824d162e06575360f6f1  5x  mul
7ad75f0091da307ad9703148788a2dfe  4x  x
39c5ee8b5ad97d70b343e01335918715  2x  (mul y y)
075ffdd3b57dabaf5a389501eec98f74  2x  (mul y)
e53f2028d7bef4154a78cde60845d608  4x  y
61a3f3669c563a8314787e92cf9c17be  2x  (lam (p) (add p (div u two)))
ffd57cf74991fa6d4d0b92a9b38e1633  2x  (div u two)
4dffd2b400bba62911e1c4630489dc5b  2x  (div u)
d9da5510b4e57a1c5129ff23b66a18ff  2x  div
de9f064186048dd3e8469f02a3a4293c  2x  u
ac6c0827da53bccefba211f1904d1de5  2x  two
]=] "" hash)

expect_output([=[
51 subexpressions, 26 classes, 16 repeated
  2x  (add (mul x x) (mul y y))
  2x  (add (mul x x))
  4x  add
  2x  (mul x x)
  2x  (mul x)
  5x  mul
  4x  x
  2x  (mul y y)
  2x  (mul y)
  4x  y
  2x  (lam (p) (add p (div u two)))
  2x  (div u two)
  2x  (div u)
  2x  div
  2x  u
  2x  two
]=] "" classes)

# Both let-bound sums and both lambdas are hoisted in one round.
expect_output([=[
(let (cse$0 (add (mul x x) (mul y y))) (let (u cse$0) (let (v cse$0) (let (cse$1 (lam (p) (add p (div u two)))) (mul cse$1 cse$1)))))
]=] [=[
; 51 -> 34 nodes, 2 lets, 4 occurrences, 1 rounds
]=] cse)
