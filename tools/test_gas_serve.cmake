# Smoke test of the gas_serve CLI: all three job kinds through the manual
# pump, the async scheduler with backpressure and a stats JSON artifact, and
# the multi-device fleet path under every routing policy.

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

# Reads the member at the path ARGN of the JSON text `json` (object keys and
# array indices; booleans read as ON/OFF) and fails unless it equals
# `expected`.  Malformed JSON fails too.
function(expect_json json expected)
  string(JSON actual ERROR_VARIABLE err GET "${json}" ${ARGN})
  if(err OR NOT actual STREQUAL expected)
    message(FATAL_ERROR "stats JSON at '${ARGN}': expected '${expected}', got "
                        "'${actual}' ${err}\n${json}")
  endif()
endfunction()

# Each run writes its JSON into a directory of its own under WORK_DIR, so
# two ctest runs over one build tree never read each other's half-written
# files.  The run owns the first slot whose lock it can take; the lock is
# held until this process exits.
foreach(slot RANGE 63)
  file(LOCK ${WORK_DIR}/gas_serve_run_${slot}.lock GUARD PROCESS TIMEOUT 0
       RESULT_VARIABLE lock_rc)
  if(lock_rc EQUAL 0)
    set(RUN_DIR ${WORK_DIR}/gas_serve_run_${slot})
    break()
  endif()
endforeach()
if(NOT RUN_DIR)
  message(FATAL_ERROR "no free run directory under ${WORK_DIR}: ${lock_rc}")
endif()
file(REMOVE_RECURSE ${RUN_DIR})
file(MAKE_DIRECTORY ${RUN_DIR})

foreach(mode scalar warp)
  run(${GAS_SERVE} run --requests 64 --arrays 4 --size 64 --exec ${mode})
  if(NOT last_out MATCHES "64 ok \\(0 cpu fallbacks\\), 0 not-ok, 0 unsorted")
    message(FATAL_ERROR "uniform manual ${mode} run not fully served:\n${last_out}")
  endif()

  run(${GAS_SERVE} run --requests 24 --kind ragged --arrays 6 --size 120 --exec ${mode})
  run(${GAS_SERVE} run --requests 24 --kind pairs --arrays 3 --size 50 --exec ${mode})
endforeach()

set(STATS ${RUN_DIR}/serve_stats.json)
run(${GAS_SERVE} run --requests 96 --async --streams 2 --json ${STATS})
if(NOT EXISTS ${STATS})
  message(FATAL_ERROR "async run did not write ${STATS}")
endif()
file(READ ${STATS} stats_json)
expect_json("${stats_json}" 96 requests completed)

# Fleet path: every routing policy across 3 devices must serve the full
# stream, and the stats JSON must carry the per-device fleet block.
foreach(policy least-loaded consistent-hash key-range)
  set(FLEET_STATS ${RUN_DIR}/serve_fleet_${policy}.json)
  run(${GAS_SERVE} run --requests 48 --devices 3 --policy ${policy}
      --json ${FLEET_STATS})
  if(NOT last_out MATCHES "48 ok \\(0 cpu fallbacks\\), 0 not-ok, 0 unsorted")
    message(FATAL_ERROR "fleet ${policy} run not fully served:\n${last_out}")
  endif()
  file(READ ${FLEET_STATS} fleet_json)
  expect_json("${fleet_json}" 3 fleet devices)
  expect_json("${fleet_json}" dev2 fleet per_device 2 name)
endforeach()
run(${GAS_SERVE} run --requests 48 --devices 4 --policy least-loaded --async)
if(NOT last_out MATCHES "48 ok \\(0 cpu fallbacks\\), 0 not-ok, 0 unsorted")
  message(FATAL_ERROR "async fleet run not fully served:\n${last_out}")
endif()

# Health subsystem: a --health on run must serve everything (fault-free means
# nothing is shed or hedged), report the health summary line, and emit the
# "health" block in the stats JSON with its correctness gate at zero.
set(HEALTH_STATS ${RUN_DIR}/serve_health.json)
run(${GAS_SERVE} run --requests 48 --devices 2 --health on --json ${HEALTH_STATS})
if(NOT last_out MATCHES "48 ok \\(0 cpu fallbacks\\), 0 not-ok, 0 unsorted")
  message(FATAL_ERROR "health-enabled run not fully served:\n${last_out}")
endif()
if(NOT last_out MATCHES "health: on")
  message(FATAL_ERROR "health summary line missing:\n${last_out}")
endif()
file(READ ${HEALTH_STATS} health_json)
expect_json("${health_json}" ON health enabled)
expect_json("${health_json}" 0 health hedge_mismatches)
expect_json("${health_json}" healthy fleet per_device 0 health_state)
expect_json("${health_json}" healthy fleet per_device 1 health_state)
# And --health off keeps the block present but disabled (schema stability).
run(${GAS_SERVE} run --requests 16 --health off --json ${HEALTH_STATS})
file(READ ${HEALTH_STATS} health_json)
expect_json("${health_json}" OFF health enabled)

file(REMOVE_RECURSE ${RUN_DIR})
