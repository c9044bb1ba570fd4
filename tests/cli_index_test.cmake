# tests/cli_index_test.cmake - the single-file index CLI end to end.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_index_test.cmake
#
# (ctest registers it as `cli_index_test`). Covers the single-file
# build / stats / open / query / update flow, and the two tools that
# rebuild a file from the verified mapped reader: the re-shard
# (`open F --shards S --out G`) and the in-place rewrite (`open F --out
# F`). Every `open` serves the mapped reader; the retired `--load` and
# `--mmap` flags must be refused.

cmake_minimum_required(VERSION 3.19) # string(JSON)

if(NOT HMA OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DHMA=<hma> -DWORK=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Run hma with ARGN in WORK; RC_VAR gets the exit code, OUT_VAR stdout
# and ERR_VAR stderr.
function(run_hma RC_VAR OUT_VAR ERR_VAR)
  execute_process(COMMAND "${HMA}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
  set(${RC_VAR} "${RC}" PARENT_SCOPE)
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
  set(${ERR_VAR} "${ERR}" PARENT_SCOPE)
endfunction()

# hma ARGN must exit 0; OUT_VAR gets stdout.
function(expect_ok OUT_VAR)
  run_hma(RC OUT ERR ${ARGN})
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "hma ${ARGN}: exit ${RC}, expected 0:\n${ERR}")
  endif()
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
endfunction()

# hma ARGN must exit non-zero with NEEDLE on stderr.
function(expect_fail NEEDLE)
  run_hma(RC OUT ERR ${ARGN})
  if(RC EQUAL 0)
    message(FATAL_ERROR "hma ${ARGN}: exit 0, expected a failure")
  endif()
  string(FIND "${ERR}" "${NEEDLE}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "hma ${ARGN}: stderr lacks '${NEEDLE}':\n${ERR}")
  endif()
endfunction()

# Write hma gen ARGN to FILE in WORK.
function(gen FILE)
  execute_process(COMMAND "${HMA}" gen ${ARGN}
                  OUTPUT_FILE "${WORK}/${FILE}" RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "hma gen ${ARGN}: exit ${RC}")
  endif()
endfunction()

# The numbered answer lines of `open INDEX query --batch queries.txt`
# (the timing summary line dropped), into OUT_VAR.
function(batch_answers OUT_VAR INDEX)
  expect_ok(OUT index open ${INDEX} query --batch queries.txt --threads 2)
  string(REPLACE "\n" ";" LINES "${OUT}")
  list(FILTER LINES INCLUDE REGEX "^[0-9]+ (present|absent)")
  set(${OUT_VAR} "${LINES}" PARENT_SCOPE)
endfunction()

gen(corpus.txt --family balanced --size 32 --count 600 --seed 42)
gen(fresh.txt --family balanced --size 32 --count 100 --seed 43)
gen(more.txt --family balanced --size 32 --count 150 --seed 44)
file(STRINGS "${WORK}/corpus.txt" CORPUS_LINES LIMIT_COUNT 200)
file(STRINGS "${WORK}/fresh.txt" FRESH_LINES LIMIT_COUNT 50)
list(APPEND CORPUS_LINES ${FRESH_LINES})
list(JOIN CORPUS_LINES "\n" QUERIES)
file(WRITE "${WORK}/queries.txt" "${QUERIES}\n")

# The single-file flow: build, stats, open, query, update.
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
batch_answers(ORIGINAL index.hmai)
list(LENGTH ORIGINAL N)
if(NOT N EQUAL 250)
  message(FATAL_ERROR "expected 250 batch answers, got ${N}")
endif()
set(HIT_LINES "${ORIGINAL}")
list(FILTER HIT_LINES INCLUDE REGEX " present ")
list(LENGTH HIT_LINES HITS)
if(HITS EQUAL 0 OR HITS EQUAL 250)
  message(FATAL_ERROR "expected both hits and misses, got ${HITS} hits")
endif()

# Re-shard: the rebuilt file answers exactly like the original, over
# the requested striping.
expect_ok(OUT index open index.hmai --shards 4 --out resharded.hmai)
batch_answers(RESHARDED resharded.hmai)
if(NOT RESHARDED STREQUAL ORIGINAL)
  message(FATAL_ERROR "re-sharded answers differ from the original's")
endif()
expect_ok(OUT index open resharded.hmai stats)
string(FIND "${OUT}" "/4 occupied" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "resharded.hmai is not striped over 4 shards:\n${OUT}")
endif()

# In-place rewrite (the v1 -> v2 upgrade recipe): a current-format file
# comes back byte-identical.
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

# update rewrites the file; --json puts one machine summary on stdout.
expect_ok(OUT index update index.hmai more.txt --threads 2 --json)
string(JSON MODE GET "${OUT}" mode)
string(JSON BEFORE_N GET "${OUT}" classes_before)
string(JSON AFTER_N GET "${OUT}" classes_after)
if(NOT MODE STREQUAL "rewrite" OR AFTER_N LESS_EQUAL BEFORE_N)
  message(FATAL_ERROR "update --json: unexpected summary ${OUT}")
endif()
expect_ok(OUT index open index.hmai stats)
# fsck's deep check (open + verify) calls the rewritten file healthy.
expect_ok(OUT index fsck index.hmai)
string(FIND "${OUT}" "state: healthy" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "fsck of the rewritten file:\n${OUT}")
endif()

file(REMOVE_RECURSE "${WORK}")
