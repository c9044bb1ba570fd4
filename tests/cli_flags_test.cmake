# tests/cli_flags_test.cmake - numeric CLI flags are parsed strictly.
#
# Drives the `hma` binary as a process:
#
#   cmake -DHMA=<path to hma> -DWORK=<scratch dir> -P cli_flags_test.cmake
#
# (ctest registers it as `cli_flags_test`). A numeric flag whose value is
# not entirely digits must fail with that flag's error instead of being
# read as 0 or as its numeric prefix. The costly case: `index gc
# --min-age-seconds abc` once parsed as 0, which disabled gc's in-flight
# guard and deleted a just-written segment. Retired flags and commands
# are usage errors (exit 2) that write nothing: `--no-verify`, the TCP
# `--port`, the daemon and client knobs, `--auto-compact`,
# `--crash-after-segment`, `--expr-file`, the corpus forms of `index
# query` and `index stats`, and `bench-expr`.
# So are a known flag on a command that does not take it, `--expr` with
# `--batch`, and a positional beyond a command's count.

cmake_minimum_required(VERSION 3.16)

if(NOT HMA OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DHMA=<hma> -DWORK=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Run hma with ARGN in WORK; RC_VAR gets the exit code, ERR_VAR stderr.
# The timeout only guards against a refused `indexd` that starts serving.
function(run_hma RC_VAR ERR_VAR)
  execute_process(COMMAND "${HMA}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}" TIMEOUT 60
                  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  set(${RC_VAR} "${RC}" PARENT_SCOPE)
  set(${ERR_VAR} "${ERR}" PARENT_SCOPE)
endfunction()

# hma ARGN must exit non-zero and name FLAG's error on stderr.
function(expect_flag_error FLAG)
  run_hma(RC ERR ${ARGN})
  if(RC EQUAL 0)
    message(FATAL_ERROR "hma ${ARGN}: exit 0, expected a ${FLAG} error")
  endif()
  string(FIND "${ERR}" "error: ${FLAG} must be an integer in [" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "hma ${ARGN}: stderr lacks the ${FLAG} error:\n${ERR}")
  endif()
endfunction()

# hma ARGN must exit with EXPECTED_RC.
function(expect_rc EXPECTED_RC)
  run_hma(RC ERR ${ARGN})
  if(NOT RC EQUAL EXPECTED_RC)
    message(FATAL_ERROR "hma ${ARGN}: exit ${RC}, expected ${EXPECTED_RC}:\n${ERR}")
  endif()
endfunction()

# The segment directory's file names, sorted, into OUT_VAR.
function(list_segdir OUT_VAR)
  file(GLOB NAMES RELATIVE "${WORK}/seg.idx" "${WORK}/seg.idx/*")
  list(SORT NAMES)
  set(${OUT_VAR} "${NAMES}" PARENT_SCOPE)
endfunction()

# gen: every numeric flag.
expect_flag_error(--size gen --family balanced --size 12x)
expect_flag_error(--count gen --family balanced --count abc)
expect_flag_error(--seed gen --family balanced --seed -1)
expect_flag_error(--count gen --family balanced --count 0)

execute_process(COMMAND "${HMA}" gen --family balanced --size 24 --count 200 --seed 1
                OUTPUT_FILE "${WORK}/base.txt" RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "hma gen failed: ${RC}")
endif()
execute_process(COMMAND "${HMA}" gen --family balanced --size 24 --count 50 --seed 2
                OUTPUT_FILE "${WORK}/delta.txt" RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "hma gen failed: ${RC}")
endif()

# index: `--threads 4x` is an error, not 4, and builds nothing.
expect_flag_error(--threads index build base.txt --threads 4x --out bad.idx --segmented)
expect_flag_error(--shards index build base.txt --shards -8 --out bad.idx)
if(EXISTS "${WORK}/bad.idx")
  message(FATAL_ERROR "a rejected build still wrote bad.idx")
endif()

# A segment dir with a just-written orphan: the file an update that died
# between its segment write and its manifest swap leaves, under the
# manifest's next id (2 in a freshly built directory).
expect_rc(0 index build base.txt --threads 2 --out seg.idx --segmented)
expect_rc(0 index build delta.txt --threads 2 --out seg.idx/seg-000002.hmai)
list_segdir(WITH_ORPHAN)
if(NOT "seg-000002.hmai" IN_LIST WITH_ORPHAN)
  message(FATAL_ERROR "no orphan planted: ${WITH_ORPHAN}")
endif()

# gc with a malformed age fails and deletes nothing; the default 60 s
# guard keeps the fresh orphan too.
expect_flag_error(--min-age-seconds index gc seg.idx --min-age-seconds abc)
list_segdir(AFTER_BAD_GC)
if(NOT AFTER_BAD_GC STREQUAL WITH_ORPHAN)
  message(FATAL_ERROR "gc --min-age-seconds abc changed the directory: "
                      "${WITH_ORPHAN} -> ${AFTER_BAD_GC}")
endif()
expect_rc(0 index gc seg.idx)
list_segdir(AFTER_DEFAULT_GC)
if(NOT AFTER_DEFAULT_GC STREQUAL WITH_ORPHAN)
  message(FATAL_ERROR "default gc removed a fresh orphan: "
                      "${WITH_ORPHAN} -> ${AFTER_DEFAULT_GC}")
endif()

# Control: an explicit 0 disables the guard and collects the orphan, so
# the checks above watched a file gc would otherwise delete.
expect_rc(0 index gc seg.idx --min-age-seconds 0)
list_segdir(AFTER_ZERO_GC)
if(AFTER_ZERO_GC STREQUAL WITH_ORPHAN)
  message(FATAL_ERROR "gc --min-age-seconds 0 left the orphan in place")
endif()

# Retired flags and commands are refused at parse time: nothing is
# written, no segment is appended, no daemon starts. Nothing serves an
# unverified index (--no-verify); the daemon speaks only its Unix socket
# (--port) and keeps fixed deadlines, frame cap and retry schedule; an
# update never compacts (run `index compact`) and has no crash hook (the
# crash matrix fails its I/O calls instead); a query reads --expr or
# stdin; and a corpus is queried or summarized only through `index
# build` + `index open FILE query|stats`.
expect_rc(0 index build base.txt --threads 2 --out single.hmai)
file(WRITE "${WORK}/expr.txt" "(lam (x) x)\n")
file(GLOB_RECURSE FILES_BEFORE RELATIVE "${WORK}" "${WORK}/*")
expect_rc(2 index open single.hmai --no-verify --out copy.hmai)
expect_rc(2 indexd single.hmai --socket indexd.sock --no-verify)
foreach(FLAG "--port;7411" "--idle-timeout-ms;1000" "--drain-timeout-ms;1000"
             "--max-frame-bytes;4096" "--reload-retry-base-ms;10"
             "--reload-retry-max-ms;100" "--reload-retry-limit;0")
  expect_rc(2 indexd single.hmai --socket indexd.sock ${FLAG})
endforeach()
expect_rc(2 index query --connect indexd.sock --port 7411 --expr "(lam (x) x)")
expect_rc(2 index query --connect indexd.sock --timeout-ms 100 --expr "(lam (x) x)")
expect_rc(2 index query --connect indexd.sock --expr-file expr.txt)
expect_rc(2 index ctl ping --connect indexd.sock --port 7411)
expect_rc(2 index chaos --connect indexd.sock --script torn)
expect_rc(2 index chaos --connect indexd.sock --server-timeout-ms 100)
expect_rc(2 index update seg.idx delta.txt --threads 2 --auto-compact 1)
expect_rc(2 index update seg.idx delta.txt --threads 2 --crash-after-segment)
expect_rc(2 index open single.hmai query --expr-file expr.txt)
expect_rc(2 index query base.txt --expr "(lam (x) x)")
expect_rc(2 index stats base.txt)
expect_rc(2 bench-expr expr.txt)
file(GLOB_RECURSE FILES_AFTER RELATIVE "${WORK}" "${WORK}/*")
if(NOT FILES_AFTER STREQUAL FILES_BEFORE)
  message(FATAL_ERROR "a refused command wrote files: "
                      "${FILES_BEFORE} -> ${FILES_AFTER}")
endif()
if(EXISTS "${WORK}/indexd.sock")
  message(FATAL_ERROR "a refused indexd left indexd.sock behind")
endif()

# Misplaced flags and extra positionals are refused at parse time: exit
# 2, one message, nothing written, no daemon started.
file(GLOB_RECURSE FIXTURE RELATIVE "${WORK}" "${WORK}/*")

# hma ARGN must exit 2 with NEEDLE on stderr, leaving WORK as it was.
function(expect_refused NEEDLE)
  run_hma(RC ERR ${ARGN})
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "hma ${ARGN}: exit ${RC}, expected 2:\n${ERR}")
  endif()
  string(FIND "${ERR}" "${NEEDLE}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "hma ${ARGN}: stderr lacks '${NEEDLE}':\n${ERR}")
  endif()
  file(GLOB_RECURSE NOW RELATIVE "${WORK}" "${WORK}/*")
  if(NOT NOW STREQUAL FIXTURE)
    message(FATAL_ERROR "hma ${ARGN} was refused but wrote files: "
                        "${FIXTURE} -> ${NOW}")
  endif()
  if(EXISTS "${WORK}/indexd.sock")
    message(FATAL_ERROR "hma ${ARGN} was refused but left indexd.sock")
  endif()
endfunction()

# The flags that once ran as if they were absent.
expect_refused("--threads applies to" index compact seg.idx --threads 4 --shards 8)
expect_refused("--threads applies to" index fsck single.hmai --threads 3)
expect_refused("--threads applies to" index gc seg.idx --threads 2)
expect_refused("--retries applies to" index build base.txt --retries 2)
expect_refused("--threads applies to" index open single.hmai --threads 2)
expect_refused("--threads applies to" index open single.hmai stats --threads 2)
expect_refused("--retries applies to"
               index open single.hmai query --retries 3 --expr "(lam (x) x)")
# One query source: --expr and --batch together are refused, not one
# silently dropped.
expect_refused("--expr and --batch"
               index open single.hmai query --expr "(lam (x) x)" --batch expr.txt)
expect_refused("--expr and --batch"
               index query --connect indexd.sock --expr "(lam (x) x)" --batch expr.txt)
# A positional beyond the command's count; only `ctl reload` takes a
# [file], and an unknown ctl action keeps its own message.
expect_refused("unexpected argument 'junk'" hash expr.txt junk)
expect_refused("unexpected argument 'expr.txt'" debruijn expr.txt expr.txt)
expect_refused("unexpected argument 'expr.txt'" prom-lint expr.txt expr.txt)
expect_refused("unexpected argument 'junk'"
               index ctl ping junk --connect indexd.sock)
expect_refused("unknown ctl action 'bogus'" index ctl bogus --connect indexd.sock)

# The matrix: every command with every flag it does not take. Each row
# is a valid invocation followed by the flags it accepts, written out
# here as the spec (not read back from hma).
set(ALL_FLAGS --family --size --seed --count --threads --shards --out
    --segmented --repair --min-age-seconds --json --prom --trace-out
    --connect --retries --expr --batch --socket --request-timeout-ms)
# A value for each flag that takes one: in range, and naming a file the
# flag would create if it were honored.
foreach(FLAG --size --seed --count --threads --shards --min-age-seconds
             --retries --request-timeout-ms)
  set(VALUE${FLAG} 2)
endforeach()
set(VALUE--family balanced)
set(VALUE--out made.out)
set(VALUE--trace-out made.trace)
set(VALUE--connect indexd.sock)
set(VALUE--socket indexd.sock)
set(VALUE--expr "(lam (x) x)")
set(VALUE--batch expr.txt)

# expect_only(<invocation...> ACCEPTS <flags...>)
function(expect_only)
  cmake_parse_arguments(ROW "" "" "ACCEPTS" ${ARGN})
  foreach(FLAG ${ALL_FLAGS})
    if(NOT FLAG IN_LIST ROW_ACCEPTS)
      expect_refused("${FLAG} applies to"
                     ${ROW_UNPARSED_ARGUMENTS} ${FLAG} ${VALUE${FLAG}})
    endif()
  endforeach()
endfunction()

foreach(CMD hash classes cse eval debruijn)
  expect_only(${CMD} expr.txt ACCEPTS)
endforeach()
expect_only(gen ACCEPTS --family --size --seed --count)
expect_only(index build base.txt
            ACCEPTS --threads --shards --out --segmented --trace-out)
expect_only(index open single.hmai ACCEPTS --out --shards --trace-out)
expect_only(index open single.hmai stats
            ACCEPTS --json --prom --out --shards --trace-out)
expect_only(index open single.hmai query
            ACCEPTS --expr --batch --threads --out --shards --trace-out)
expect_only(index update seg.idx delta.txt
            ACCEPTS --threads --shards --json --trace-out)
expect_only(index compact seg.idx ACCEPTS --trace-out)
expect_only(index gc seg.idx ACCEPTS --min-age-seconds --trace-out)
expect_only(index fsck seg.idx ACCEPTS --repair --trace-out)
expect_only(index query --connect indexd.sock
            ACCEPTS --connect --retries --expr --batch --trace-out)
foreach(ACTION ping reload shutdown)
  expect_only(index ctl ${ACTION} --connect indexd.sock
              ACCEPTS --connect --retries --trace-out)
endforeach()
expect_only(index ctl stats --connect indexd.sock
            ACCEPTS --connect --retries --json --prom --trace-out)
expect_only(index chaos --connect indexd.sock
            ACCEPTS --connect --retries --trace-out)
expect_only(indexd single.hmai --socket indexd.sock
            ACCEPTS --socket --threads --request-timeout-ms)
expect_only(prom-lint expr.txt ACCEPTS)

file(REMOVE_RECURSE "${WORK}")
