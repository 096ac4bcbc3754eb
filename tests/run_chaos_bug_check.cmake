# Oracle power, cluster scale: a recovery path that skips the global IOTLB
# invalidation must be caught by the cross-host safety oracle, shrink to a
# smaller fault-event list that keeps the crash, and the written repro must
# replay the violation.
# Invoked by ctest as
#   cmake -DCHAOS=<fsio_chaos> -DWORKDIR=<build dir> -P run_chaos_bug_check.cmake
if(NOT DEFINED CHAOS OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DCHAOS=<path to fsio_chaos> -DWORKDIR=<dir>")
endif()

set(repro "${WORKDIR}/repro_chaos_skip_invalidation.txt")

execute_process(COMMAND ${CHAOS} --break-recovery --expect-violation
                        --repro-out ${repro}
                OUTPUT_VARIABLE out_break RESULT_VARIABLE rc_break)
if(NOT rc_break EQUAL 0)
  message(FATAL_ERROR "broken recovery was not caught (exit ${rc_break}):\n${out_break}")
endif()
if(NOT EXISTS ${repro})
  message(FATAL_ERROR "shrunken repro was not written to ${repro}")
endif()

# The shrinker must keep the crash (the bug lives in its recovery) and drop
# at least one of the input's three events. The input's link flap is kept at
# seed 1: a crash-only replay records no violation.
file(STRINGS ${repro} events REGEX "^event ")
list(LENGTH events num_events)
if(NOT num_events LESS 3)
  message(FATAL_ERROR "repro kept ${num_events} of 3 events; the shrinker removed nothing")
endif()
list(FILTER events INCLUDE REGEX "^event host_crash ")
if(NOT events)
  message(FATAL_ERROR "repro lost the host_crash event:\n${out_break}")
endif()

execute_process(COMMAND ${CHAOS} --replay ${repro}
                OUTPUT_VARIABLE out_replay RESULT_VARIABLE rc_replay)
if(NOT rc_replay EQUAL 0)
  message(FATAL_ERROR "repro replay did not reproduce (exit ${rc_replay}):\n${out_replay}")
endif()

message(STATUS "chaos oracle-power check OK (repro at ${repro})")
