# Runs fsio_sim with one bad --iotlb-entries value on both the cluster path
# and the tenant path, and fails unless each run exits 2 with a diagnostic
# naming the flag (a bad value must never run with a silently adjusted
# geometry). Invoked by ctest as
#   cmake -DSIM=<path-to-fsio_sim> -DVALUE=<entries> -P run_cli_reject_check.cmake
if(NOT DEFINED SIM OR NOT DEFINED VALUE)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DVALUE=... -P run_cli_reject_check.cmake")
endif()

foreach(path cluster tenant)
  if(path STREQUAL "cluster")
    set(args --warmup-ms=1 --window-ms=1)
  else()
    set(args --tenants=2 --tenant-rounds=1)
  endif()
  execute_process(COMMAND ${SIM} ${args} --iotlb-entries=${VALUE}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${path} path: --iotlb-entries=${VALUE} exited ${rc}, want 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "--iotlb-entries")
    message(FATAL_ERROR "${path} path: no --iotlb-entries diagnostic on stderr:\n${err}")
  endif()
endforeach()
