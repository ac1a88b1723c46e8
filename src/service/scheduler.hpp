// Simulation scheduler for the query service: admission control, request
// coalescing, and batched execution on the exec::run_batch pool.
//
// The service's slow tier funnels every simulation-backed job through one of
// these. A job is a named bundle of exec::Cases (an analysis::Plan's cases);
// it yields their results, which the caller folds. The scheduler gives three
// guarantees:
//
//  * Coalescing — two jobs with the same key submitted while the first is
//    still in flight share a single execution (and a single set of
//    simulations); the duplicate submission gets the same shared future.
//    `Engine::total_runs_started()` is the observable: N identical concurrent
//    cold queries move it by exactly one job's worth.
//  * Admission — at most `max_pending` distinct jobs may be queued or
//    running; beyond that, submit() rejects immediately (the caller maps this
//    to an `overloaded` error) instead of letting the queue grow without
//    bound under a request flood.
//  * Batching — a single dispatcher thread drains every queued job per cycle
//    and hands their cases to ONE run_batch call, so concurrent requests
//    share the host-thread budget FIFO-fairly instead of oversubscribing the
//    machine with per-request pools.
//
// Results are deterministic by construction: cases obey the executor's purity
// contract, so a job's results are byte-identical no matter how jobs were
// batched, coalesced, or interleaved.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"

namespace isoee::service {

/// What a finished job yields: its case results, in case order, plus whether
/// any case actually simulated (false = every case was a warm cache hit, the
/// "cache" tier; true = the "sim" tier).
struct Outcome {
  std::vector<exec::CaseResult> results;
  bool simulated = false;
};

struct SchedulerConfig {
  int jobs = 1;               // host-thread budget per batch (0 = all cores)
  int max_pending = 64;       // admission cap: queued + running jobs
  std::string cache_dir;      // result cache shared by every job ("" = off)
  std::uint64_t cache_max_bytes = 0;
};

class SimScheduler {
 public:
  struct Ticket {
    std::shared_future<Outcome> result;  // invalid when rejected
    bool coalesced = false;              // shared an in-flight identical job
    bool rejected = false;               // admission control said no
  };

  explicit SimScheduler(const SchedulerConfig& config);
  ~SimScheduler();

  /// Submits a job. `key` must be a complete content-address of the job (two
  /// jobs with equal keys must compute the same thing — coalescing depends on
  /// it). A failed case is reported in its result slot, not thrown.
  Ticket submit(const std::string& key, std::vector<exec::Case> cases);

  exec::ResultCache& cache() { return cache_; }

  /// Drains the queue and joins the dispatcher. Called by the destructor;
  /// idempotent.
  void stop();

 private:
  struct Job {
    std::string key;
    std::vector<exec::Case> cases;
    std::shared_ptr<std::promise<Outcome>> promise;
  };

  void dispatch_loop();
  void run_jobs(std::vector<Job> jobs);

  SchedulerConfig config_;
  exec::ResultCache cache_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  int pending_ = 0;  // queued + running jobs (admission accounting)
  std::map<std::string, std::shared_future<Outcome>> inflight_;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace isoee::service
