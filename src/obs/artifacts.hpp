// Run artifacts: the measurement record a binary leaves behind for reading
// back after the run, PowerPack-style.
//
//   trace       Chrome trace of every event the process-global collector saw
//               (`trace_stats <file>`)
//   metrics     MetricsRegistry::render_json, one line (`trace_stats --metrics`)
//   prometheus  MetricsRegistry::render_prometheus, ending in `# EOF`
//   flame       SchedProfiler collapsed stacks (`trace_stats <file> --flame`)
//
// record_run_artifacts() is the one writer of these files: the bench drivers
// (bench::init), isoee_serve and service_load hand it the paths their flags
// name and it does the rest.
#pragma once

#include <cstdint>
#include <string>

namespace isoee::obs {

/// Where to write each artifact; an empty path means "not requested".
struct ArtifactPaths {
  std::string trace;       // --trace-out
  std::string metrics;     // --metrics-out
  std::string prometheus;  // --prom-out
  std::string flame;       // --flame-out
  std::uint64_t flame_interval_us = 500;  // --flame-interval-us
};

/// Starts what the requested artifacts need (installs a process-global
/// TraceCollector for `trace`, starts sched_profiler() for `flame`) and
/// registers an atexit hook that writes each requested artifact once, with a
/// one-line notice on stderr. `source` lands in the trace's otherData
/// ("isoee-bench", "isoee-serve"). Call at most once, from main, before any
/// simulation or request runs; with no path set it does nothing.
void record_run_artifacts(const ArtifactPaths& paths, const std::string& source);

}  // namespace isoee::obs
