# Runs TOOL once per argument list in ARGS ('|' separates invocations,
# spaces separate arguments) and fails unless every run exits 2 with a
# stderr diagnostic naming FLAG: a bad value must never run with a silently
# substituted one. Each run is killed after 20 s, so a regression to a
# wrapped-around count fails fast instead of running away. Invoked by ctest
# as
#   cmake -DTOOL=<tool> "-DARGS=<args>[|<args>...]" -DFLAG=<flag>
#         -P run_cli_reject_check.cmake
if(NOT DEFINED TOOL OR NOT DEFINED ARGS OR NOT DEFINED FLAG)
  message(FATAL_ERROR
          "usage: cmake -DTOOL=... -DARGS=... -DFLAG=... -P run_cli_reject_check.cmake")
endif()

string(REPLACE "|" ";" runs "${ARGS}")
foreach(run IN LISTS runs)
  separate_arguments(argv UNIX_COMMAND "${run}")
  execute_process(COMMAND ${TOOL} ${argv} TIMEOUT 20
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${run}' exited '${rc}', want 2:\n${out}${err}")
  endif()
  string(FIND "${err}" "${FLAG}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${run}': no diagnostic naming ${FLAG} on stderr:\n${err}")
  endif()
endforeach()
