# Parses every committed BENCH_*.json at the repository root: a bench writer
# that emits malformed JSON fails here instead of in whatever reads the file
# next.  Run as: cmake -DREPO_DIR=<source root> -P test_committed_json.cmake
file(GLOB artifacts ${REPO_DIR}/BENCH_*.json)
if(NOT artifacts)
  message(FATAL_ERROR "no BENCH_*.json found under ${REPO_DIR}")
endif()
foreach(path IN LISTS artifacts)
  file(READ ${path} text)
  string(JSON kind ERROR_VARIABLE err TYPE "${text}")
  if(err)
    message(FATAL_ERROR "${path} is not valid JSON: ${err}")
  endif()
  if(NOT kind STREQUAL "OBJECT")
    message(FATAL_ERROR "${path}: top level is ${kind}, expected OBJECT")
  endif()
endforeach()
list(LENGTH artifacts count)
message(STATUS "${count} committed BENCH_*.json files parse")
