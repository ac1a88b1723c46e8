# Determinism of a figure driver, end to end through its CLI flags. Two modes:
#
# Warm cache (default): the driver run cold into an empty result cache, then
# rerun warm from it, must write byte-identical CSVs, and the warm run must
# start zero simulations.
#
#   cmake -DBENCH=<path to a bench driver> -DWORK=<scratch dir> -P warm_cache.cmake
#
# Two flag sets: the driver run once with each flag set (no cache; both at
# --seed 42) must write byte-identical CSVs.
#
#   cmake -DBENCH=... -DWORK=... -DFLAGS_A="--jobs 1" -DFLAGS_B="--jobs 2" -P warm_cache.cmake
foreach(var BENCH WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "warm_cache.cmake: -D${var}=... is required")
  endif()
endforeach()
if(DEFINED FLAGS_A OR DEFINED FLAGS_B)
  if(NOT DEFINED FLAGS_A OR NOT DEFINED FLAGS_B)
    message(FATAL_ERROR "warm_cache.cmake: -DFLAGS_A and -DFLAGS_B go together")
  endif()
  set(compare_flags TRUE)
else()
  set(compare_flags FALSE)
endif()

get_filename_component(driver "${BENCH}" NAME)
file(REMOVE_RECURSE "${WORK}")

# Runs the driver into ${WORK}/<label>; extra arguments are passed through.
function(run_driver label)
  execute_process(
    COMMAND "${BENCH}" --seed 42 ${ARGN} --csv-dir "${WORK}/${label}"
            --metrics-out "${WORK}/${label}_metrics.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} run of ${BENCH} exited with ${rc}")
  endif()
endfunction()

# sim.runs_started from a --metrics-out snapshot ({"<name>":{"kind":...,
# "value":...},...}). The engine registers the counter at load time, so every
# run reports it, even one that simulated nothing; a missing entry is a failure.
function(runs_started label out)
  file(READ "${WORK}/${label}_metrics.json" snapshot)
  string(JSON runs ERROR_VARIABLE bad GET "${snapshot}" "sim.runs_started" "value")
  if(bad OR NOT runs MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${label} metrics: missing or unreadable sim.runs_started (${bad})")
  endif()
  set(${out} "${runs}" PARENT_SCOPE)
endfunction()

# Fails unless every CSV under ${WORK}/<a> has a byte-identical twin under
# ${WORK}/<b>; sets <out> to the list of compared files.
function(compare_csvs a b what out)
  file(GLOB csvs RELATIVE "${WORK}/${a}" "${WORK}/${a}/*.csv")
  if(NOT csvs)
    message(FATAL_ERROR "${a} run wrote no CSV under ${WORK}/${a}")
  endif()
  foreach(csv IN LISTS csvs)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}/${a}/${csv}" "${WORK}/${b}/${csv}"
      RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      message(FATAL_ERROR "${what} of ${driver} changed ${csv}")
    endif()
  endforeach()
  set(${out} "${csvs}" PARENT_SCOPE)
endfunction()

if(compare_flags)
  separate_arguments(flags_a UNIX_COMMAND "${FLAGS_A}")
  separate_arguments(flags_b UNIX_COMMAND "${FLAGS_B}")
  run_driver(a ${flags_a})
  run_driver(b ${flags_b})
  compare_csvs(a b "the run with '${FLAGS_B}' (vs '${FLAGS_A}')" csvs)
  message(STATUS "${driver}: '${FLAGS_A}' and '${FLAGS_B}' wrote ${csvs} byte-identical")
  return()
endif()

run_driver(cold --cache-dir "${WORK}/cache")
run_driver(warm --cache-dir "${WORK}/cache")

runs_started(cold cold_runs)
runs_started(warm warm_runs)
if(cold_runs EQUAL 0)
  message(FATAL_ERROR "cold run started no simulation; the check would prove nothing")
endif()
if(NOT warm_runs EQUAL 0)
  message(FATAL_ERROR "warm rerun of ${driver} started ${warm_runs} simulations "
                      "(cold: ${cold_runs}); expected every case to be a cache hit")
endif()

compare_csvs(cold warm "warm rerun" csvs)
message(STATUS "${driver}: ${cold_runs} cold simulations, 0 warm; ${csvs} byte-identical")
