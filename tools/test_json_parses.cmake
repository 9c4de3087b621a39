# Parses every file matching JSON_GLOB (a path or a glob) with string(JSON):
# a writer that emits malformed JSON fails here instead of in whatever reads
# the file next.  Run as: cmake -DJSON_GLOB=<pattern> -P test_json_parses.cmake
file(GLOB files ${JSON_GLOB})
if(NOT files)
  message(FATAL_ERROR "no file matches ${JSON_GLOB}")
endif()
foreach(path IN LISTS files)
  file(READ ${path} text)
  string(JSON kind ERROR_VARIABLE err TYPE "${text}")
  if(err)
    message(FATAL_ERROR "${path} is not valid JSON: ${err}")
  endif()
  if(NOT kind STREQUAL "OBJECT")
    message(FATAL_ERROR "${path}: top level is ${kind}, expected OBJECT")
  endif()
endforeach()
list(LENGTH files count)
message(STATUS "${count} JSON file(s) parse")
