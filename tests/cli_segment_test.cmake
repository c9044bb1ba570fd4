# tests/cli_segment_test.cmake - the segmented index CLI end to end.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_segment_test.cmake
#
# (ctest registers it as `cli_segment_test`). A segment directory is the
# index that grows: build --segmented, update (O(delta) append, --json
# summary on stdout), the orphan a crash between an append's segment
# write and its manifest swap leaves, fsck/gc of it, the retried append,
# and compaction. Answers must not change across compaction and must
# match a single-file build of the same corpus; appends and compaction
# keep the directory's striping.

cmake_minimum_required(VERSION 3.19) # string(JSON)
include("${CMAKE_CURRENT_LIST_DIR}/cli_util.cmake")

# `open seg.idx stats` must report the index striped over 4 shards.
function(expect_four_shards WHEN)
  expect_ok(OUT index open seg.idx stats)
  expect_contains("${OUT}" "/4 occupied" "stats of seg.idx ${WHEN}")
endfunction()

gen(base.txt --family balanced --size 48 --count 600 --seed 51)
gen(d1.txt --family balanced --size 48 --count 150 --seed 52)
gen(d2.txt --family balanced --size 48 --count 150 --seed 53)
file(STRINGS "${WORK}/base.txt" BASE_LINES)
file(STRINGS "${WORK}/d1.txt" D1_LINES)
file(STRINGS "${WORK}/d2.txt" D2_LINES)
set(ALL_LINES ${BASE_LINES} ${D1_LINES} ${D2_LINES})
list(JOIN ALL_LINES "\n" ALL)
file(WRITE "${WORK}/all.txt" "${ALL}\n")
# Queries: the head of the union (base hits) and its tail (delta 2).
list(SUBLIST ALL_LINES 0 200 QUERY_LINES)
list(SUBLIST ALL_LINES 800 100 TAIL_LINES)
list(APPEND QUERY_LINES ${TAIL_LINES})
list(JOIN QUERY_LINES "\n" QUERIES)
file(WRITE "${WORK}/queries.txt" "${QUERIES}\n")

expect_ok(OUT index build base.txt --threads 2 --shards 4 --out seg.idx --segmented)
expect_four_shards("after build")

# Narrative goes to stderr under --json: stdout is one JSON object. An
# append given no --shards keeps the newest segment's striping.
expect_ok(OUT index update seg.idx d1.txt --threads 2 --json)
string(JSON MODE GET "${OUT}" mode)
string(JSON BEFORE_N GET "${OUT}" classes_before)
string(JSON AFTER_N GET "${OUT}" classes_after)
if(NOT MODE STREQUAL "segmented" OR AFTER_N LESS BEFORE_N)
  message(FATAL_ERROR "update --json: unexpected summary ${OUT}")
endif()
expect_four_shards("after an update")

# Crash window: an append that wrote its segment and died before the
# manifest swap leaves the segment under the manifest's next id: 3, as
# the build took id 1 and the update id 2 (the retried update below
# confirms it). Plant that file with a build.
set(ORPHAN seg-000003.hmai)
expect_ok(OUT index build d2.txt --threads 2 --out seg.idx/${ORPHAN})
# The reopened index serves the old state (delta 2 absent) and warns
# about the orphan.
run_hma(RC OUT ERR index open seg.idx stats)
expect_contains("${ERR}" "unreferenced segment" "stderr of open after the crash")
batch_answers(D2_ANSWERS seg.idx d2.txt)
count_hits(HITS "${D2_ANSWERS}")
if(NOT HITS EQUAL 0)
  message(FATAL_ERROR "the uncommitted delta answers ${HITS} queries")
endif()
# fsck classifies the orphan as repairable debris (exit 1); gc removes
# it and fsck then reports the directory healthy.
run_hma(RC OUT ERR index fsck seg.idx)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "fsck with an orphan: exit ${RC}, expected 1:\n${OUT}${ERR}")
endif()
expect_contains("${OUT}" "[unreferenced-segment] ${ORPHAN}" "fsck with an orphan")
expect_ok(OUT index gc seg.idx --min-age-seconds 0)
expect_contains("${OUT}" "removed" "gc of the orphan")
expect_ok(OUT index fsck seg.idx)
expect_contains("${OUT}" "state: healthy" "fsck after gc")

# The retried update commits under the orphan's id; compaction changes
# no answer and keeps the striping; the answers match a single-file
# build of the union.
expect_ok(OUT index update seg.idx d2.txt --threads 2 --json)
string(JSON D2_SEGMENT GET "${OUT}" segment)
if(NOT D2_SEGMENT STREQUAL ORPHAN)
  message(FATAL_ERROR "the retried update wrote ${D2_SEGMENT}, not ${ORPHAN}")
endif()
batch_answers(PRE seg.idx queries.txt)
expect_ok(OUT index compact seg.idx)
expect_four_shards("after compaction")
batch_answers(POST seg.idx queries.txt)
expect_ok(OUT index build all.txt --threads 2 --out full.hmai)
batch_answers(FULL full.hmai queries.txt)
if(NOT PRE STREQUAL POST)
  message(FATAL_ERROR "compaction changed the answers")
endif()
if(NOT PRE STREQUAL FULL)
  message(FATAL_ERROR "segmented answers differ from a single-file build")
endif()
count_hits(HITS "${PRE}")
list(LENGTH PRE N)
if(NOT N EQUAL 300 OR HITS EQUAL 0)
  message(FATAL_ERROR "expected 300 answers with hits, got ${N} (${HITS} hits)")
endif()

# Just-compacted leftovers are younger than gc's 60 s production guard;
# this is offline maintenance, so disable it. fsck then reports healthy.
expect_ok(OUT index gc seg.idx --min-age-seconds 0)
expect_ok(OUT index fsck seg.idx)
expect_contains("${OUT}" "state: healthy" "fsck after compaction")

file(REMOVE_RECURSE "${WORK}")
