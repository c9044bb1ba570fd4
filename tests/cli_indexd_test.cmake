# tests/cli_indexd_test.cmake - the serving daemon end to end, as a process.
#
# Drives the `hma` binary:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_indexd_test.cmake
#
# (ctest registers it as `cli_indexd_test`, with a timeout). Starts
# `hma indexd` on a socket in WORK and checks, in order: the wire answers
# equal the in-process reader's; a good reload reaches generation 2 and
# serves the new file; a corrupt (truncated) reload is refused while the
# generation is kept; degraded mode shows in `ctl stats` and the
# Prometheus gauges and a good reload clears it; the chaos client's
# every offence is handled; `ctl shutdown` unlinks the socket; SIGTERM
# drains to exit 0, also when sent the moment the socket appears; and a
# regular file at `--socket` is refused and kept.
#
# The daemon runs detached from ctest's pipes (`sh -c '... &'` with its
# output in WORK/indexd.log) and is stopped before any failure is raised.

cmake_minimum_required(VERSION 3.16)
include("${CMAKE_CURRENT_LIST_DIR}/cli_util.cmake")

set(SOCK indexd.sock)

# Stop the detached daemon (if still running) and wait for its socket.
function(stop_daemon)
  execute_process(COMMAND sh -c "kill $(cat indexd.pid) 2>/dev/null; true"
                  WORKING_DIRECTORY "${WORK}")
  foreach(I RANGE 50)
    if(NOT EXISTS "${WORK}/${SOCK}")
      break()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
endfunction()

# Stop the daemon, then fail with MSG and the daemon's log.
function(fail MSG)
  stop_daemon()
  file(READ "${WORK}/indexd.log" LOG)
  message(FATAL_ERROR "${MSG}\n--- indexd.log ---\n${LOG}")
endfunction()

# hma ARGN must exit 0 (else: stop the daemon and fail); OUT_VAR gets
# stdout.
function(daemon_ok OUT_VAR)
  run_hma(RC OUT ERR ${ARGN})
  if(NOT RC EQUAL 0)
    fail("hma ${ARGN}: exit ${RC}, expected 0:\n${OUT}${ERR}")
  endif()
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
endfunction()

# Fail unless TEXT matches REGEX; WHAT names the output.
function(daemon_expect TEXT REGEX WHAT)
  if(NOT TEXT MATCHES "${REGEX}")
    fail("${WHAT} does not match '${REGEX}':\n${TEXT}")
  endif()
endfunction()

# `ctl stats` of the running daemon, into OUT_VAR.
function(daemon_stats OUT_VAR)
  daemon_ok(OUT index ctl stats --connect ${SOCK} ${ARGN})
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
endfunction()

# The numbered answer lines of a wire batch query, into OUT_VAR.
function(wire_answers OUT_VAR QUERIES)
  daemon_ok(OUT index query --connect ${SOCK} --batch ${QUERIES})
  string(REPLACE "\n" ";" LINES "${OUT}")
  list(FILTER LINES INCLUDE REGEX "^[0-9]+ (present|absent)")
  set(${OUT_VAR} "${LINES}" PARENT_SCOPE)
endfunction()

# Serving corpus, a reload candidate holding fresh.txt too, a truncated
# candidate, and the queries (corpus hits and fresh misses).
gen(corpus.txt --family balanced --size 48 --count 1000 --seed 42)
gen(fresh.txt --family balanced --size 48 --count 200 --seed 43)
file(STRINGS "${WORK}/corpus.txt" CORPUS_LINES)
file(STRINGS "${WORK}/fresh.txt" FRESH_LINES)
set(BIGGER_LINES ${CORPUS_LINES} ${FRESH_LINES})
list(JOIN BIGGER_LINES "\n" BIGGER)
file(WRITE "${WORK}/bigger.txt" "${BIGGER}\n")
list(SUBLIST CORPUS_LINES 0 300 QUERY_LINES)
list(SUBLIST FRESH_LINES 0 100 FRESH_HEAD)
list(APPEND QUERY_LINES ${FRESH_HEAD})
list(JOIN QUERY_LINES "\n" QUERIES)
file(WRITE "${WORK}/queries.txt" "${QUERIES}\n")
expect_ok(OUT index build corpus.txt --threads 2 --out index.hmai)
expect_ok(OUT index build bigger.txt --threads 2 --out bigger.hmai)
execute_process(COMMAND sh -c "head -c 2048 index.hmai > corrupt.hmai"
                WORKING_DIRECTORY "${WORK}")
# The in-process answers, before any daemon runs.
batch_answers(INPROC index.hmai queries.txt)

# A regular file at --socket is refused and keeps its bytes: the daemon
# replaces only a stale socket. The timeout only guards against a daemon
# that wrongly starts serving.
file(WRITE "${WORK}/notes.txt" "an operator's notes\n")
execute_process(COMMAND "${HMA}" indexd index.hmai --socket notes.txt
                WORKING_DIRECTORY "${WORK}" TIMEOUT 20
                RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "indexd --socket notes.txt: exit ${RC}, expected 1:\n${ERR}")
endif()
expect_contains("${ERR}" "is not a socket" "stderr of indexd --socket notes.txt")
file(READ "${WORK}/notes.txt" NOTES)
if(NOT NOTES STREQUAL "an operator's notes\n")
  message(FATAL_ERROR "indexd changed notes.txt: '${NOTES}'")
endif()

# Start the daemon detached. --request-timeout-ms 2000 is the deadline
# `index chaos` waits out in its torn and slow-loris modes.
file(WRITE "${WORK}/indexd.log" "")
execute_process(
  COMMAND sh -c "'${HMA}' indexd index.hmai --socket ${SOCK} --threads 2 --request-timeout-ms 2000 </dev/null >indexd.log 2>&1 & echo $! > indexd.pid"
  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  fail("could not start hma indexd")
endif()
set(UP FALSE)
foreach(I RANGE 100)
  run_hma(RC OUT ERR index ctl ping --connect ${SOCK} --retries 1)
  if(RC EQUAL 0)
    set(UP TRUE)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
endforeach()
if(NOT UP)
  fail("hma indexd never answered a ping")
endif()

# Wire answers match the in-process mapped reader.
wire_answers(WIRE queries.txt)
if(NOT WIRE STREQUAL INPROC)
  fail("wire answers differ from the in-process reader's")
endif()
count_hits(HITS "${WIRE}")
if(HITS EQUAL 0)
  fail("the wire batch found nothing")
endif()

# A good reload reaches generation 2, and every line of fresh.txt (only
# in bigger.hmai) is present: the swap serves the new file.
daemon_ok(OUT index ctl reload bigger.hmai --connect ${SOCK})
daemon_stats(STATS)
daemon_expect("${STATS}" "\ngeneration: 2\n" "stats after the good reload")
wire_answers(FRESH fresh.txt)
count_hits(HITS "${FRESH}")
list(LENGTH FRESH N)
if(NOT N EQUAL 200 OR NOT HITS EQUAL 200)
  fail("generation 2 answers ${HITS} of ${N} fresh.txt lines, expected 200 of 200")
endif()

# A corrupt candidate is refused (nonzero exit) and generation 2 keeps
# serving. Automatic degraded-mode retries may already have re-failed
# it, so reloads_rejected is at least 1, not exactly 1.
run_hma(RC OUT ERR index ctl reload corrupt.hmai --connect ${SOCK})
if(RC EQUAL 0)
  fail("the corrupt reload was accepted")
endif()
daemon_stats(STATS)
daemon_expect("${STATS}" "\ngeneration: 2\n" "stats after the corrupt reload")
daemon_expect("${STATS}" "\nreloads_rejected: [1-9]" "stats after the corrupt reload")
wire_answers(AFTER queries.txt)
count_hits(HITS "${AFTER}")
if(HITS EQUAL 0)
  fail("no answers after the corrupt reload")
endif()

# Degraded mode: surfaced in stats and the Prometheus gauges while the
# old generation serves; a good reload clears it.
daemon_expect("${STATS}" "\ndegraded: 1\n" "stats while degraded")
daemon_expect("${STATS}" "\nlast_reload_error: [^\n]" "stats while degraded")
daemon_stats(PROM --prom)
daemon_expect("${PROM}" "\nhma_indexd_degraded 1\n" "--prom while degraded")
daemon_expect("${PROM}" "\nhma_indexd_reload_retries_total " "--prom while degraded")
daemon_ok(OUT index ctl reload bigger.hmai --connect ${SOCK})
daemon_stats(STATS)
daemon_expect("${STATS}" "\ndegraded: 0\n" "stats after recovery")
daemon_stats(PROM --prom)
daemon_expect("${PROM}" "\nhma_indexd_degraded 0\n" "--prom after recovery")

# The chaos client: every documented offence is handled and the daemon
# survives.
daemon_ok(OUT index chaos --connect ${SOCK})

# `ctl shutdown` drains the daemon and unlinks the socket.
daemon_ok(OUT index ctl shutdown --connect ${SOCK})
foreach(I RANGE 50)
  if(NOT EXISTS "${WORK}/${SOCK}")
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
endforeach()
if(EXISTS "${WORK}/${SOCK}")
  fail("ctl shutdown left ${SOCK} behind")
endif()

# SIGTERM drains to exit 0: a daemon this shell can wait(2) on serves a
# ping, is sent SIGTERM, and its exit status is the script's.
execute_process(
  COMMAND sh -c "'${HMA}' indexd index.hmai --socket term.sock </dev/null >term.log 2>&1 &
PID=$!
UP=0
for I in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30; do
  if '${HMA}' index ctl ping --connect term.sock --retries 1 >/dev/null 2>&1; then UP=1; break; fi
  sleep 0.2
done
kill -TERM $PID
wait $PID
RC=$?
test $UP = 1 || exit 90
exit $RC"
  WORKING_DIRECTORY "${WORK}" TIMEOUT 60 RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  file(READ "${WORK}/term.log" LOG)
  message(FATAL_ERROR "SIGTERM'd daemon: exit ${RC}, expected 0 (90: never answered a ping):\n${LOG}")
endif()
if(EXISTS "${WORK}/term.sock")
  message(FATAL_ERROR "the SIGTERM'd daemon left term.sock behind")
endif()

# A SIGTERM sent the moment the socket appears, before any request, also
# drains to exit 0: the daemon holds its signals until its handler is in
# place.
execute_process(
  COMMAND sh -c "'${HMA}' indexd index.hmai --socket early.sock </dev/null >early.log 2>&1 &
PID=$!
N=0
until [ -S early.sock ]; do
  N=$((N + 1))
  test $N -lt 5000000 || exit 91
done
kill -TERM $PID
wait $PID"
  WORKING_DIRECTORY "${WORK}" TIMEOUT 60 RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  file(READ "${WORK}/early.log" LOG)
  message(FATAL_ERROR "daemon SIGTERM'd as its socket appeared: exit ${RC}, expected 0 (91: no socket):\n${LOG}")
endif()
if(EXISTS "${WORK}/early.sock")
  message(FATAL_ERROR "the early-SIGTERM'd daemon left early.sock behind")
endif()

file(REMOVE_RECURSE "${WORK}")
