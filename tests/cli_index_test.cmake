# tests/cli_index_test.cmake - the single-file index CLI end to end.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_index_test.cmake
#
# (ctest registers it as `cli_index_test`). Covers the single-file
# build / stats / open / query flow, the two tools that rebuild a file
# from the verified mapped reader -- the re-shard (`open F --shards S
# --out G`) and the byte-identical re-save (`open F --out F`) -- and
# that a single file is read-only: `update` refuses it. Every `open`
# serves the mapped reader; the retired `--load` and `--mmap` flags must
# be refused.

cmake_minimum_required(VERSION 3.16)
include("${CMAKE_CURRENT_LIST_DIR}/cli_util.cmake")

gen(corpus.txt --family balanced --size 32 --count 600 --seed 42)
gen(fresh.txt --family balanced --size 32 --count 100 --seed 43)
gen(more.txt --family balanced --size 32 --count 150 --seed 44)
file(STRINGS "${WORK}/corpus.txt" CORPUS_LINES LIMIT_COUNT 200)
file(STRINGS "${WORK}/fresh.txt" FRESH_LINES LIMIT_COUNT 50)
list(APPEND CORPUS_LINES ${FRESH_LINES})
list(JOIN CORPUS_LINES "\n" QUERIES)
file(WRITE "${WORK}/queries.txt" "${QUERIES}\n")

# The single-file flow: build, stats, open, query.
expect_ok(OUT index build corpus.txt --threads 2 --out index.hmai)
expect_ok(OUT index stats corpus.txt --threads 2)
expect_ok(OUT index open index.hmai stats)
expect_ok(OUT index open index.hmai stats --no-verify)
# (`index query` exits 1 when the expression is absent; either answer
# is fine here, a crash is not.)
run_hma(RC OUT ERR index query corpus.txt --expr "(lam (x) x)")
if(NOT RC EQUAL 0 AND NOT RC EQUAL 1)
  message(FATAL_ERROR "index query --expr: exit ${RC}:\n${ERR}")
endif()
batch_answers(ORIGINAL index.hmai queries.txt)
list(LENGTH ORIGINAL N)
if(NOT N EQUAL 250)
  message(FATAL_ERROR "expected 250 batch answers, got ${N}")
endif()
count_hits(HITS "${ORIGINAL}")
if(HITS EQUAL 0 OR HITS EQUAL 250)
  message(FATAL_ERROR "expected both hits and misses, got ${HITS} hits")
endif()

# Re-shard: the rebuilt file answers exactly like the original, over
# the requested striping.
expect_ok(OUT index open index.hmai --shards 4 --out resharded.hmai)
batch_answers(RESHARDED resharded.hmai queries.txt)
if(NOT RESHARDED STREQUAL ORIGINAL)
  message(FATAL_ERROR "re-sharded answers differ from the original's")
endif()
expect_ok(OUT index open resharded.hmai stats)
expect_contains("${OUT}" "/4 occupied" "stats of resharded.hmai")

# In-place re-save: a file comes back byte-identical.
file(SHA256 "${WORK}/index.hmai" BEFORE)
expect_ok(OUT index open index.hmai --out index.hmai)
file(SHA256 "${WORK}/index.hmai" AFTER)
if(NOT BEFORE STREQUAL AFTER)
  message(FATAL_ERROR "open F --out F changed F")
endif()

# One read path: the retired flags are refused, --shards needs --out,
# and a rebuild never skips the verify.
expect_fail("usage:" index open index.hmai --load)
expect_fail("usage:" index open index.hmai --mmap)
expect_fail("--out" index open index.hmai --shards 4)
expect_fail("--no-verify" index open index.hmai --no-verify --out copy.hmai)
if(EXISTS "${WORK}/copy.hmai")
  message(FATAL_ERROR "a refused open still wrote copy.hmai")
endif()
# A missing file's error carries the reason, not just the name.
expect_fail("cannot open 'missing.hmai': No such file or directory"
            index open missing.hmai)

# A single file is read-only: update exits 2, points at a segment
# directory, and leaves the file's bytes alone. (--out belongs to build
# and open only.)
file(SHA256 "${WORK}/index.hmai" BEFORE)
run_hma(RC OUT ERR index update index.hmai more.txt --threads 2)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR "update on a single file: exit ${RC}, expected 2:\n${ERR}")
endif()
expect_contains("${ERR}" "--segmented" "stderr of update on a single file")
expect_fail("--out applies to" index update index.hmai more.txt --out copy.hmai)
file(SHA256 "${WORK}/index.hmai" AFTER)
if(NOT BEFORE STREQUAL AFTER)
  message(FATAL_ERROR "a refused update changed index.hmai")
endif()
if(EXISTS "${WORK}/copy.hmai")
  message(FATAL_ERROR "a refused update still wrote copy.hmai")
endif()
# fsck's deep check (open + verify) calls the file healthy.
expect_ok(OUT index fsck index.hmai)
expect_contains("${OUT}" "state: healthy" "fsck of index.hmai")

file(REMOVE_RECURSE "${WORK}")
