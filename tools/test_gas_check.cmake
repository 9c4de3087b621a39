# Smoke test of the gas_check CLI: clean workloads, JSON output, and the
# seeded-bug selftest.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

# Every paper workload must come back clean (exit 0) under all checks, in
# both interpreter execution modes.
foreach(mode scalar warp)
  run(${GAS_CHECK} --workload all --arrays 16 --size 500 --exec ${mode}
      --json ${WORK_DIR}/gas_check.json)
  if(NOT last_output MATCHES "no findings")
    message(FATAL_ERROR
            "clean ${mode} run did not report 'no findings':\n${last_output}")
  endif()
endforeach()

if(NOT EXISTS ${WORK_DIR}/gas_check.json)
  message(FATAL_ERROR "expected JSON report missing")
endif()
file(READ ${WORK_DIR}/gas_check.json json)
string(JSON clean ERROR_VARIABLE err GET "${json}" clean)
if(err OR NOT clean STREQUAL "ON")
  message(FATAL_ERROR "JSON report not clean (${clean} ${err}):\n${json}")
endif()

# The seeded-bug selftest must catch all four finding kinds.
run(${GAS_CHECK} --demo-bugs)
if(NOT last_output MATCHES "all seeded bugs detected")
  message(FATAL_ERROR "selftest did not detect every seeded bug:\n${last_output}")
endif()
