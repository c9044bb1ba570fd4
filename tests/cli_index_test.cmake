# tests/cli_index_test.cmake - the single-file index CLI end to end.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_index_test.cmake
#
# (ctest registers it as `cli_index_test`). Covers the single-file
# build / open / stats / query flow, the two tools that rebuild a file
# from the verified mapped reader -- the re-shard (`open F --shards S
# --out G`) and the byte-identical re-save (`open F --out F`) -- and
# that a single file is read-only: `update` refuses it. A directory
# given as the corpus is refused with its reason. Every `open`
# serves the mapped reader; the retired `--load` and `--mmap` flags must
# be refused. The admission battery: every
# candidate `openIndex` rejects -- including the two that fail only the
# deep verify -- makes `open PATH stats` exit 1.

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

# The single-file flow: build, open stats, open query.
expect_ok(OUT index build corpus.txt --threads 2 --out index.hmai)
expect_ok(OUT index open index.hmai stats)
expect_contains("${OUT}" "tables verified" "open summary of index.hmai")
# (`query` exits 1 when the expression is absent; either answer is
# fine here, a crash is not.)
run_hma(RC OUT ERR index open index.hmai query --expr "(lam (x) x)")
if(NOT RC EQUAL 0 AND NOT RC EQUAL 1)
  message(FATAL_ERROR "index open query --expr: exit ${RC}:\n${ERR}")
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

# One read path: the retired flags are refused and --shards needs --out.
expect_fail("usage:" index open index.hmai --load)
expect_fail("usage:" index open index.hmai --mmap)
expect_fail("--out" index open index.hmai --shards 4)
# A missing file's error carries the reason, not just the name.
expect_fail("cannot open 'missing.hmai': No such file or directory"
            index open missing.hmai)
# A directory where a corpus belongs (a segment dir passed by mistake)
# is an input error with the reason and exit 1, not an abort.
file(MAKE_DIRECTORY "${WORK}/adir")
foreach(CMD "build;adir;--out;fromdir.hmai" "open;index.hmai;query;--batch;adir")
  run_hma(RC OUT ERR index ${CMD})
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "index ${CMD} on a directory: exit ${RC}, expected 1:\n${ERR}")
  endif()
  expect_contains("${ERR}" "error: cannot read 'adir': Is a directory"
                  "stderr of index ${CMD}")
endforeach()
if(EXISTS "${WORK}/fromdir.hmai")
  message(FATAL_ERROR "a build from a directory wrote an index")
endif()

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
# fsck judges with the gate `index open` uses and calls the file healthy.
expect_ok(OUT index fsck index.hmai)
expect_contains("${OUT}" "state: healthy" "fsck of index.hmai")

# The admission battery. Every bad candidate fails `openIndex`, so `open
# PATH stats` exits 1 with its diagnostic, and `fsck PATH` exits 2
# (damaged) with the same diagnostic; the two marked "verify" open fine
# and fail only the deep check.
expect_ok(OUT index build corpus.txt --threads 1 --shards 4 --out small.hmai)
expect_ok(OUT index build corpus.txt --threads 1 --shards 4 --out flipped.hmai)
expect_ok(OUT index build corpus.txt --threads 1 --shards 4 --out seg_verify.idx --segmented)
expect_ok(OUT index build corpus.txt --threads 1 --shards 4 --out seg_missing.idx --segmented)
# Flip a byte of FILE at byte OFFSET (POSIX printf + dd; CMake cannot
# write arbitrary bytes).
function(flip_byte FILE OFFSET)
  file(READ "${WORK}/${FILE}" BYTE OFFSET ${OFFSET} LIMIT 1 HEX)
  math(EXPR FLIPPED "0x${BYTE} ^ 1" OUTPUT_FORMAT DECIMAL)
  math(EXPR D2 "${FLIPPED} / 64")
  math(EXPR D1 "(${FLIPPED} / 8) % 8")
  math(EXPR D0 "${FLIPPED} % 8")
  execute_process(
    COMMAND sh -c "printf '\\${D2}${D1}${D0}' | dd of='${FILE}' bs=1 seek=${OFFSET} count=1 conv=notrunc 2>/dev/null"
    WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "could not flip byte ${OFFSET} of ${FILE}")
  endif()
endfunction()
# The first record's hash (header 96 bytes + 4 directory entries of 16).
set(FIRST_RECORD 160)
file(SIZE "${WORK}/small.hmai" SIZE)
math(EXPR HALF "${SIZE} / 2")
execute_process(COMMAND sh -c "head -c ${HALF} small.hmai > truncated.hmai"
                WORKING_DIRECTORY "${WORK}")
flip_byte(flipped.hmai ${FIRST_RECORD})
file(TOUCH "${WORK}/empty.hmai")
file(MAKE_DIRECTORY "${WORK}/no_manifest.idx")
flip_byte(seg_verify.idx/seg-000001.hmai ${FIRST_RECORD})
file(REMOVE "${WORK}/seg_missing.idx/seg-000001.hmai")
foreach(CASE truncated.hmai flipped.hmai empty.hmai no_manifest.idx
             seg_verify.idx seg_missing.idx)
  run_hma(RC OUT ERR index open ${CASE} stats)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "open ${CASE} stats: exit ${RC}, expected 1:\n${ERR}")
  endif()
  string(REGEX MATCH "index error: ([^\n]*) \\(byte [0-9]+\\)" LINE "${ERR}")
  if(NOT LINE)
    message(FATAL_ERROR "stderr of open ${CASE} lacks 'index error: ... (byte N)':\n${ERR}")
  endif()
  set(DIAG "${CMAKE_MATCH_1}")
  run_hma(RC FSCK FSCK_ERR index fsck ${CASE})
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "fsck ${CASE}: exit ${RC}, expected 2:\n${FSCK}${FSCK_ERR}")
  endif()
  expect_contains("${FSCK}" "[damage] ${CASE}: ${DIAG}\n" "fsck of ${CASE}")
endforeach()
expect_contains("${ERR}" "seg-000001.hmai" "stderr of open seg_missing.idx")
run_hma(RC OUT ERR index open empty.hmai stats)
expect_contains("${ERR}" "file is empty" "stderr of open empty.hmai")
run_hma(RC OUT ERR index open no_manifest.idx stats)
expect_contains("${ERR}" "not a regular file" "stderr of open no_manifest.idx")

file(REMOVE_RECURSE "${WORK}")
