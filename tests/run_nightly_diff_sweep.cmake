# Nightly differential sweep driver. PR runs must stay fast, so this test
# is a no-op unless FSIO_NIGHTLY is set (the scheduled CI job exports it).
if(NOT DEFINED ENV{FSIO_NIGHTLY})
  message(STATUS "FSIO_NIGHTLY not set; skipping long differential sweep")
  return()
endif()

execute_process(COMMAND ${DIFF} --seeds 512 --ops 2000 --quiet
                RESULT_VARIABLE sweep_result)
if(NOT sweep_result EQUAL 0)
  message(FATAL_ERROR "nightly differential sweep diverged (exit ${sweep_result})")
endif()

# Hugepage-chunk variant: 2 MB descriptors exercise huge mappings and the
# table-reclaim path that 64-page chunks never reach. Smaller seed count:
# per-page teardown in the strict-family modes makes 512-page descriptors
# ~30x costlier per run than 64-page ones.
execute_process(COMMAND ${DIFF} --seeds 32 --ops 1000 --pages-per-chunk 512 --quiet
                RESULT_VARIABLE huge_result)
if(NOT huge_result EQUAL 0)
  message(FATAL_ERROR "nightly hugepage differential sweep diverged (exit ${huge_result})")
endif()

# Fault matrix at depth: every mode under every fault plan, single- and
# two-domain, with many more seeds than the tier-1 fault_matrix test.
execute_process(COMMAND ${DIFF} --fault-plan all --seeds 32 --ops 2000 --quiet
                RESULT_VARIABLE fault_result)
execute_process(COMMAND ${DIFF} --fault-plan all --seeds 8 --ops 2000 --domains 2 --quiet
                RESULT_VARIABLE fault_domains_result)
if(NOT fault_result EQUAL 0 OR NOT fault_domains_result EQUAL 0)
  message(FATAL_ERROR "nightly fault matrix failed (exit ${fault_result}, "
                      "${fault_domains_result} with 2 domains)")
endif()
