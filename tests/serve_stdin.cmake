# `isoee_serve --stdin` speaks the line protocol on standard output: every
# stdout line is one JSON object, a response. Status lines (the --trace-out,
# --metrics-out and --prom-out notices and the closing summary) belong on
# stderr, so a client can parse the whole stream. The three artifacts must
# also read back: a JSON metrics snapshot counting the 3 requests, a
# Prometheus exposition ending in `# EOF`, and a trace that parses as JSON.
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

file(READ "${WORK}/metrics.json" snapshot)
string(JSON requests ERROR_VARIABLE bad GET "${snapshot}" "service.requests" "value")
if(bad OR NOT requests EQUAL 3)
  message(FATAL_ERROR "metrics.json: service.requests is '${requests}' (${bad}), expected 3")
endif()
file(READ "${WORK}/metrics.prom" prom)
if(NOT prom MATCHES "# EOF\n$")
  message(FATAL_ERROR "metrics.prom does not end with '# EOF'")
endif()
file(READ "${WORK}/trace.json" trace)
string(JSON trace_kind ERROR_VARIABLE bad TYPE "${trace}")
if(bad OR NOT trace_kind STREQUAL "OBJECT")
  message(FATAL_ERROR "trace.json is not a JSON object: ${bad}")
endif()
message(STATUS "isoee_serve --stdin: metrics.json, metrics.prom and trace.json read back")
