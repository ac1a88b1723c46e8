# Warm-cache determinism of a figure driver: fig03 run cold into an empty
# result cache, then rerun warm from it, must write byte-identical CSVs, and
# the warm run must start zero simulations.
#
#   cmake -DBENCH=<path to fig03_validation_dori> -DWORK=<scratch dir> \
#         -P warm_cache_fig03.cmake
foreach(var BENCH WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "warm_cache_fig03.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")

function(run_fig03 label)
  execute_process(
    COMMAND "${BENCH}" --seed 42 --cache-dir "${WORK}/cache" --csv-dir "${WORK}/${label}"
            --metrics-out "${WORK}/${label}_metrics.csv"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} run of ${BENCH} exited with ${rc}")
  endif()
endfunction()

# sim.runs_started from a --metrics-out CSV ("name,kind,value" rows). The
# engine registers the counter on its first run, so a process that simulated
# nothing has no row: that reads as 0 (the cold run proves the name exists).
function(runs_started label out)
  file(STRINGS "${WORK}/${label}_metrics.csv" row REGEX "^sim\\.runs_started,")
  if(row STREQUAL "")
    set(${out} 0 PARENT_SCOPE)
  elseif(row MATCHES "^sim\\.runs_started,counter,([0-9]+)$")
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  else()
    message(FATAL_ERROR "${label} metrics: unreadable sim.runs_started row '${row}'")
  endif()
endfunction()

run_fig03(cold)
run_fig03(warm)

runs_started(cold cold_runs)
runs_started(warm warm_runs)
if(cold_runs EQUAL 0)
  message(FATAL_ERROR "cold run started no simulation; the check would prove nothing")
endif()
if(NOT warm_runs EQUAL 0)
  message(FATAL_ERROR "warm rerun started ${warm_runs} simulations (cold: ${cold_runs}); "
                      "expected every case to be a cache hit")
endif()

file(GLOB csvs RELATIVE "${WORK}/cold" "${WORK}/cold/*.csv")
if(NOT csvs)
  message(FATAL_ERROR "cold run wrote no CSV under ${WORK}/cold")
endif()
foreach(csv IN LISTS csvs)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}/cold/${csv}" "${WORK}/warm/${csv}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "warm rerun changed ${csv}")
  endif()
endforeach()
message(STATUS "fig03: ${cold_runs} cold simulations, 0 warm; ${csvs} byte-identical")
