# `isoee_serve --stdin` speaks the line protocol on standard output: every
# stdout line is one JSON object, a response. Status lines (the --trace-out,
# --metrics-out and --prom-out notices and the closing summary) belong on
# stderr, so a client can parse the whole stream.
#
#   cmake -DSERVE=<path to isoee_serve> -DWORK=<scratch dir> -P serve_stdin.cmake
foreach(var SERVE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_stdin.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/requests.jsonl"
  "{\"id\":1,\"method\":\"predict\",\"params\":{\"machine\":\"system_g\",\"app\":\"FT\",\"n\":4.2e6,\"p\":16}}\n"
  "{\"id\":2,\"method\":\"predict\",\"params\":{\"machine\":\"dori\",\"app\":\"CG\",\"n\":75000,\"p\":4}}\n"
  "{\"id\":3,\"method\":\"stats\"}\n")

execute_process(
  COMMAND "${SERVE}" --stdin --trace-out "${WORK}/trace.json"
          --metrics-out "${WORK}/metrics.json" --prom-out "${WORK}/metrics.prom"
  INPUT_FILE "${WORK}/requests.jsonl"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "isoee_serve --stdin exited with ${rc}\nstderr:\n${err}")
endif()

string(REGEX REPLACE "\n$" "" out "${out}")
# Lines become list items; escape the list separator first.
string(REPLACE ";" "\;" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(LENGTH lines count)
if(NOT count EQUAL 3)
  message(FATAL_ERROR "expected 3 stdout lines (one per request), got ${count}:\n${out}")
endif()
foreach(line IN LISTS lines)
  string(JSON kind ERROR_VARIABLE bad TYPE "${line}")
  if(bad OR NOT kind STREQUAL "OBJECT")
    message(FATAL_ERROR "stdout line is not a JSON object: '${line}'")
  endif()
endforeach()
message(STATUS "isoee_serve --stdin: ${count} stdout lines, all JSON objects")
