# tests/cli_util.cmake - helpers for the CLI test scripts that drive the
# `hma` binary as a process (included by every cli_*_test.cmake but
# cli_flags_test.cmake). Expects HMA (the binary) and WORK (a scratch
# directory, recreated empty here).

if(NOT HMA OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DHMA=<hma> -DWORK=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
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

# Fail unless TEXT contains NEEDLE; WHAT names the output in the error.
function(expect_contains TEXT NEEDLE WHAT)
  string(FIND "${TEXT}" "${NEEDLE}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${WHAT} lacks '${NEEDLE}':\n${TEXT}")
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

# The numbered answer lines of `open INDEX query --batch QUERIES` (the
# timing summary line dropped), into OUT_VAR.
function(batch_answers OUT_VAR INDEX QUERIES)
  expect_ok(OUT index open ${INDEX} query --batch ${QUERIES} --threads 2)
  string(REPLACE "\n" ";" LINES "${OUT}")
  list(FILTER LINES INCLUDE REGEX "^[0-9]+ (present|absent)")
  set(${OUT_VAR} "${LINES}" PARENT_SCOPE)
endfunction()

# The number of "present" answers in the answer list ANSWERS, into OUT_VAR.
function(count_hits OUT_VAR ANSWERS)
  set(HITS ${ANSWERS})
  list(FILTER HITS INCLUDE REGEX " present ")
  list(LENGTH HITS N)
  set(${OUT_VAR} ${N} PARENT_SCOPE)
endfunction()
