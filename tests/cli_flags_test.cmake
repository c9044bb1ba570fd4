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
# guard and deleted a just-written segment.

cmake_minimum_required(VERSION 3.16)

if(NOT HMA OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DHMA=<hma> -DWORK=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Run hma with ARGN in WORK; RC_VAR gets the exit code, ERR_VAR stderr.
function(run_hma RC_VAR ERR_VAR)
  execute_process(COMMAND "${HMA}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
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

# A segment dir with a just-written orphan: the update dies after the
# segment write, before the manifest swap (exit 3 by contract).
expect_rc(0 index build base.txt --threads 2 --out seg.idx --segmented)
expect_rc(3 index update seg.idx delta.txt --threads 2 --crash-after-segment)
list_segdir(WITH_ORPHAN)

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

file(REMOVE_RECURSE "${WORK}")
