// Installation point and emission helpers for the tracing layer.
//
// Hot-path contract: when no sink is installed (the default) every
// instrumentation point reduces to one pointer null-check — the simulator's
// RankCtx resolves its sink once at construction, so segment-rate code pays a
// single predictable branch and builds no event objects. The micro_sim bench
// asserts this stays below a 2% runtime envelope.
//
// Two installation scopes:
//   * per-engine: sim::EngineOptions::trace_sink (deterministic per-case
//     traces; what the executor-driven tests use)
//   * process-global: set_global_sink() (what record_run_artifacts installs
//     for --trace-out); the per-engine sink wins when both are set.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace isoee::obs {

namespace detail {
inline std::atomic<TraceSink*>& global_sink_slot() {
  static std::atomic<TraceSink*> slot{nullptr};
  return slot;
}
}  // namespace detail

/// The process-global sink, or nullptr when tracing is off. Engines resolve
/// this once per run at rank construction; install before Engine::run.
inline TraceSink* global_sink() {
  return detail::global_sink_slot().load(std::memory_order_acquire);
}

/// Installs (or, with nullptr, removes) the process-global sink. The caller
/// retains ownership and must keep the sink alive until removal.
inline void set_global_sink(TraceSink* sink) {
  detail::global_sink_slot().store(sink, std::memory_order_release);
}

// --- emission helpers -------------------------------------------------------

inline void emit_span(TraceSink& sink, int rank, const char* cat, std::string name,
                      double t0, double dur, std::vector<TraceArg> args = {}) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSpan;
  e.rank = rank;
  e.t0 = t0;
  e.dur = dur;
  e.name = std::move(name);
  e.cat = cat;
  e.args = std::move(args);
  sink.on_event(std::move(e));
}

inline void emit_instant(TraceSink& sink, int rank, const char* cat, std::string name,
                         double t, std::vector<TraceArg> args = {}) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.rank = rank;
  e.t0 = t;
  e.name = std::move(name);
  e.cat = cat;
  e.args = std::move(args);
  sink.on_event(std::move(e));
}

inline void emit_flow(TraceSink& sink, bool begin, int rank, double t,
                      std::uint64_t flow_id) {
  TraceEvent e;
  e.kind = begin ? TraceEvent::Kind::kFlowBegin : TraceEvent::Kind::kFlowEnd;
  e.rank = rank;
  e.t0 = t;
  e.name = "msg";
  e.cat = "pt2pt";
  e.flow_id = flow_id;
  sink.on_event(std::move(e));
}

/// Deterministic flow id for the `seq`-th message rank `src` sends in a run.
/// The sender computes it once and the message carries it to the receiver,
/// so both ends of the flow agree without either counting per channel.
inline std::uint64_t flow_id(int src, std::uint64_t seq) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
  };
  std::uint64_t h = 0x0b5e7ab111ef5ULL;
  h = mix(h, static_cast<std::uint64_t>(src));
  h = mix(h, seq);
  return h;
}

/// RAII span on a caller-supplied virtual clock: captures now() at
/// construction, emits a span [t0, now()) at destruction. All methods no-op
/// when `sink` is null, so call sites need no branching.
template <typename NowFn>
class SpanScope {
 public:
  SpanScope(TraceSink* sink, int rank, const char* cat, const char* name, NowFn now)
      : sink_(sink), rank_(rank), cat_(cat), name_(name), now_(std::move(now)) {
    if (sink_ != nullptr) t0_ = now_();
  }

  void arg_int(const char* key, long long value) {
    if (sink_ != nullptr) args_.push_back(obs::arg_int(key, value));
  }
  void arg_num(const char* key, double value) {
    if (sink_ != nullptr) args_.push_back(obs::arg_num(key, value));
  }
  void arg_str(const char* key, std::string_view value) {
    if (sink_ != nullptr) args_.push_back(obs::arg_str(key, value));
  }

  ~SpanScope() {
    if (sink_ == nullptr) return;
    emit_span(*sink_, rank_, cat_, name_, t0_, now_() - t0_, std::move(args_));
  }

  SpanScope(SpanScope&& other) noexcept
      : sink_(other.sink_),
        rank_(other.rank_),
        cat_(other.cat_),
        name_(other.name_),
        now_(std::move(other.now_)),
        t0_(other.t0_),
        args_(std::move(other.args_)) {
    other.sink_ = nullptr;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope& operator=(SpanScope&&) = delete;

 private:
  TraceSink* sink_;
  int rank_;
  const char* cat_;
  const char* name_;
  NowFn now_;
  double t0_ = 0.0;
  std::vector<TraceArg> args_;
};

}  // namespace isoee::obs
