# Warm-cache determinism of a figure driver: the driver run cold into an
# empty result cache, then rerun warm from it, must write byte-identical CSVs,
# and the warm run must start zero simulations.
#
#   cmake -DBENCH=<path to a bench driver> -DWORK=<scratch dir> -P warm_cache.cmake
foreach(var BENCH WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "warm_cache.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(driver "${BENCH}" NAME)
file(REMOVE_RECURSE "${WORK}")

function(run_driver label)
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
# engine registers the counter at load time, so every run reports it, even
# one that simulated nothing; a missing row is a failure.
function(runs_started label out)
  file(STRINGS "${WORK}/${label}_metrics.csv" row REGEX "^sim\\.runs_started,")
  if(row MATCHES "^sim\\.runs_started,counter,([0-9]+)$")
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  else()
    message(FATAL_ERROR "${label} metrics: missing or unreadable sim.runs_started row '${row}'")
  endif()
endfunction()

run_driver(cold)
run_driver(warm)

runs_started(cold cold_runs)
runs_started(warm warm_runs)
if(cold_runs EQUAL 0)
  message(FATAL_ERROR "cold run started no simulation; the check would prove nothing")
endif()
if(NOT warm_runs EQUAL 0)
  message(FATAL_ERROR "warm rerun of ${driver} started ${warm_runs} simulations "
                      "(cold: ${cold_runs}); expected every case to be a cache hit")
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
    message(FATAL_ERROR "warm rerun of ${driver} changed ${csv}")
  endif()
endforeach()
message(STATUS "${driver}: ${cold_runs} cold simulations, 0 warm; ${csvs} byte-identical")
