#include "obs/artifacts.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/obs.hpp"
#include "obs/sched_profiler.hpp"
#include "util/log.hpp"

namespace isoee::obs {

namespace {

struct Run {
  ArtifactPaths paths;
  std::string source;
  TraceCollector collector;
};

// Never destroyed: the atexit hook reads it after main has returned.
Run* g_run = nullptr;

/// The stderr notice for one artifact: `[<tag>] <path><detail>`, or the
/// failure of its `--<tag>-out` flag.
void report(bool ok, const char* tag, const std::string& path,
            const std::string& detail = "") {
  if (ok) {
    std::fprintf(stderr, "[%s] %s%s\n", tag, path.c_str(), detail.c_str());
  } else {
    ISOEE_ERROR("failed to write --%s-out %s", tag, path.c_str());
  }
}

void write_run_artifacts() {
  const Run& run = *g_run;
  const ArtifactPaths& out = run.paths;
  if (!out.trace.empty()) {
    set_global_sink(nullptr);
    const auto events = run.collector.sorted();
    report(ChromeTraceWriter::write(events, out.trace, {{"source", run.source}}), "trace",
           out.trace, " (" + std::to_string(events.size()) + " events)");
  }
  if (!out.metrics.empty()) {
    report(metrics().write_json(out.metrics), "metrics", out.metrics);
  }
  if (!out.prometheus.empty()) {
    report(metrics().write_prometheus(out.prometheus), "prom", out.prometheus);
  }
  if (!out.flame.empty()) {
    sched_profiler().stop();
    report(sched_profiler().write_collapsed(out.flame), "flame", out.flame,
           " (" + std::to_string(sched_profiler().total_samples()) + " samples)");
  }
}

}  // namespace

void record_run_artifacts(const ArtifactPaths& paths, const std::string& source) {
  if (paths.trace.empty() && paths.metrics.empty() && paths.prometheus.empty() &&
      paths.flame.empty()) {
    return;
  }
  g_run = new Run{paths, source, {}};
  if (!paths.trace.empty()) set_global_sink(&g_run->collector);
  if (!paths.flame.empty()) {
    SchedProfiler::Options prof;
    prof.interval_us = paths.flame_interval_us;
    sched_profiler().start(prof);
  }
  std::atexit(write_run_artifacts);
}

}  // namespace isoee::obs
