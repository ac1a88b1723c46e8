#include "sim/sched.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/sched_profiler.hpp"
#include "sim/engine.hpp"  // RankAbandoned

namespace isoee::sim::detail {

// One simulated rank: its fiber, its mailbox, and its scheduling state.
//
// Locking: `mu` guards only the mailbox (`pending`) and the
// blocked/waiting_key/poisoned flags — the handshake between a rank blocking
// in take() and a peer delivering into its mailbox. All other fields are
// touched only by the slot's owner worker (or single-threadedly in run()),
// so they need no lock.
struct FiberScheduler::RankSlot {
  Fiber fiber;
  FiberScheduler* sched = nullptr;
  int rank = 0;
  int owner = 0;          // worker index (rank % workers)
  Fiber* resume_to = nullptr;  // owner worker's home context while running

  enum class State { kRunning, kBlocked, kYield, kDone };
  State state = State::kRunning;  // read by the owner worker after switch-out
  double yield_key = 0.0;         // dispatch key for a kYield re-enqueue

  // --- mailbox (guarded by mu) ---
  std::mutex mu;
  // Delivered, not yet taken, in arrival order. take() removes the first
  // entry on its channel, so matching is FIFO per (src, tag).
  struct Pending {
    std::uint64_t key = 0;  // channel_key(src, tag)
    SimMessage msg;
  };
  std::vector<Pending> pending;
  std::uint64_t waiting_key = 0;
  bool blocked = false;     // parked in take(), waiting on waiting_key
  bool poisoned = false;
  double block_key = 0.0;   // virtual clock at block time: the wakeup key
};

struct FiberScheduler::Worker {
  int id = 0;
  Fiber home;               // the OS thread's own context, adopted in worker_loop
  // Host-time profiler slot. Disengaged (a single null-check per set_phase)
  // unless the process-wide SchedProfiler is sampling.
  obs::SchedProfiler::WorkerHandle prof;

  // Ready fibers of this shard, dispatched smallest (key, rank) first.
  struct Cmp {
    bool operator()(const ReadyItem& a, const ReadyItem& b) const {
      return a.key > b.key || (a.key == b.key && a.rank > b.rank);
    }
  };
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, Cmp> heap;

  // Cross-thread wakeups land here; the owner drains them into `heap`.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ReadyItem> inbox;

  std::thread thread;
};

FiberScheduler::FiberScheduler(int nranks, int workers) : nranks_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("FiberScheduler: nranks must be > 0");
  workers = std::clamp(workers, 1, nranks);
  single_ = workers == 1;
  slots_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto slot = std::make_unique<RankSlot>();
    slot->sched = this;
    slot->rank = r;
    slot->owner = r % workers;
    slots_.push_back(std::move(slot));
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->id = w;
  }
}

FiberScheduler::~FiberScheduler() = default;

std::exception_ptr FiberScheduler::run(const std::function<void(int)>& body) {
  body_ = &body;
  // Arm every fiber and seed the ready heaps in rank order at virtual time 0.
  // This runs single-threaded: no locks needed for the direct heap pushes.
  for (auto& slot : slots_) {
    slot->fiber.create(&FiberScheduler::fiber_main, slot.get());
    workers_[static_cast<std::size_t>(slot->owner)]->heap.push(
        ReadyItem{0.0, slot->rank});
  }
  ready_total_.store(static_cast<std::uint64_t>(nranks_), std::memory_order_relaxed);

  // Opt into host-time sampling when ISOEE_SCHED_PROFILE_US is set (or a
  // bench already started the profiler). When the profiler is off the
  // per-worker handles stay disengaged and every hook below costs one branch.
  obs::sched_profiler().maybe_start_from_env();

  if (single_) {
    // Hot path for the hundreds of small study cases: run the whole schedule
    // inline on the calling thread — no thread spawn, no cv traffic.
    worker_loop(0);
  } else {
    for (auto& wk : workers_) {
      Worker* w = wk.get();
      w->thread = std::thread([this, w] { worker_loop(w->id); });
    }
    for (auto& wk : workers_) wk->thread.join();
  }
  body_ = nullptr;
  return first_error_;
}

void FiberScheduler::worker_loop(int w) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  wk.home.adopt_thread();
  obs::SchedProfiler& prof = obs::sched_profiler();
  if (prof.enabled()) wk.prof = prof.register_worker(w);
  std::vector<ReadyItem> drained;
  for (;;) {
    wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
    if (!single_) {
      {
        std::lock_guard<std::mutex> lk(wk.mu);
        if (!wk.inbox.empty()) drained.swap(wk.inbox);
      }
      for (const ReadyItem& it : drained) wk.heap.push(it);
      drained.clear();
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (wk.heap.empty()) {
      if (single_) {
        // Sole worker with nothing ready: either everything finished (stop_
        // caught above next iteration) or every live rank is blocked — no
        // other thread exists to wake them, so that is a deadlock right now.
        if (done_count_.load(std::memory_order_relaxed) < nranks_) {
          record_deadlock();  // poisons mailboxes, re-enqueueing blocked ranks
          if (!wk.heap.empty()) continue;
        }
        break;
      }
      on_idle(wk);
      continue;
    }
    const ReadyItem item = wk.heap.top();
    wk.heap.pop();
    if (!single_) ready_total_.fetch_sub(1, std::memory_order_relaxed);
    dispatch(wk, item.rank);
  }
  wk.prof.set_phase(obs::SchedPhase::kIdle);
  wk.prof.release();
  wk.home.release_thread();
}

void FiberScheduler::dispatch(Worker& wk, int rank) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  slot.resume_to = &wk.home;
  slot.state = RankSlot::State::kRunning;
  wk.prof.set_phase(obs::SchedPhase::kFiberRun, rank);
  Fiber::switch_to(wk.home, slot.fiber);
  wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
  // The fiber has switched back: blocked, yielded, or finished.
  switch (slot.state) {
    case RankSlot::State::kBlocked:
      break;  // a matching deliver() (or poison) re-enqueues it
    case RankSlot::State::kYield:
      enqueue_ready(rank, slot.yield_key);
      break;
    case RankSlot::State::kDone:
      if (done_count_.fetch_add(1, std::memory_order_acq_rel) + 1 == nranks_) {
        stop_all();
      }
      break;
    case RankSlot::State::kRunning:
      throw std::logic_error("FiberScheduler: fiber switched out while running");
  }
}

void FiberScheduler::enqueue_ready(int rank, double key) {
  Worker& wk = *workers_[static_cast<std::size_t>(slots_[static_cast<std::size_t>(rank)]->owner)];
  if (single_) {
    // Everything runs on the one worker thread: push straight into its heap.
    wk.heap.push(ReadyItem{key, rank});
    return;
  }
  ready_total_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(wk.mu);
    wk.inbox.push_back(ReadyItem{key, rank});
  }
  wk.cv.notify_one();
}

void FiberScheduler::suspend(RankSlot& slot) {
  Fiber::switch_to(slot.fiber, *slot.resume_to);
}

SimMessage FiberScheduler::take(int rank, int src, int tag, double now) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  const std::uint64_t key = channel_key(src, tag);
  std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
  if (!single_) lk.lock();
  for (;;) {
    const auto it = std::find_if(slot.pending.begin(), slot.pending.end(),
                                 [key](const RankSlot::Pending& p) { return p.key == key; });
    if (it != slot.pending.end()) {
      // Fast path: the message already arrived — no context switch at all.
      SimMessage msg = std::move(it->msg);
      slot.pending.erase(it);
      return msg;
    }
    if (slot.poisoned) {
      throw RankAbandoned();
    }
    slot.waiting_key = key;
    slot.block_key = now;
    slot.blocked = true;
    slot.state = RankSlot::State::kBlocked;
    if (!single_) lk.unlock();
    suspend(slot);  // woken by deliver() on this channel, or by poison_all()
    if (!single_) lk.lock();
  }
}

void FiberScheduler::deliver(int dst, int src, int tag, SimMessage msg) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(dst)];
  const std::uint64_t key = channel_key(src, tag);
  bool wake = false;
  double wake_key = 0.0;
  {
    std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
    if (!single_) lk.lock();
    slot.pending.push_back(RankSlot::Pending{key, std::move(msg)});
    if (slot.blocked && slot.waiting_key == key) {
      slot.blocked = false;
      wake = true;
      wake_key = slot.block_key;
    }
  }
  if (wake) enqueue_ready(dst, wake_key);
}

void FiberScheduler::maybe_yield(int rank, double now, std::uint32_t delay_us) {
  RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
  slot.yield_key = now + static_cast<double>(delay_us) * 1e-6;
  slot.state = RankSlot::State::kYield;
  suspend(slot);
}

void FiberScheduler::poison_all() {
  for (auto& sp : slots_) {
    RankSlot& slot = *sp;
    bool wake = false;
    double wake_key = 0.0;
    {
      std::unique_lock<std::mutex> lk(slot.mu, std::defer_lock);
      if (!single_) lk.lock();
      if (slot.poisoned) continue;
      slot.poisoned = true;
      if (slot.blocked) {
        slot.blocked = false;
        wake = true;
        wake_key = slot.block_key;
      }
    }
    // Woken fibers re-check their channel: messages that already arrived are
    // still delivered (in order) before the poison pill throws RankAbandoned.
    if (wake) enqueue_ready(slot.rank, wake_key);
  }
}

void FiberScheduler::stop_all() {
  stop_.store(true, std::memory_order_release);
  if (single_) return;  // the lone worker observes stop_ on its next iteration
  for (auto& wk : workers_) {
    std::lock_guard<std::mutex> lk(wk->mu);  // pairs with the cv.wait predicate
    wk->cv.notify_all();
  }
}

// Records the root-cause deadlock error (all live ranks blocked in recv on
// messages that can never arrive) and poisons the mailboxes so every blocked fiber unwinds with RankAbandoned.
void FiberScheduler::record_deadlock() {
  {
    std::lock_guard<std::mutex> elk(err_mu_);
    if (!first_error_) {
      first_error_ = std::make_exception_ptr(std::runtime_error(
          "sim::Engine: deadlock — all live ranks blocked in recv with no "
          "message in flight"));
    }
  }
  poison_all();
}

void FiberScheduler::on_idle(Worker& wk) {
  {
    std::unique_lock<std::mutex> ilk(idle_mu_);
    ++idle_workers_;
    // Deadlock check: every worker idle, nothing enqueued anywhere, yet ranks
    // remain unfinished — no message can ever arrive for them.
    if (idle_workers_ == static_cast<int>(workers_.size()) &&
        ready_total_.load(std::memory_order_acquire) == 0 &&
        done_count_.load(std::memory_order_acquire) < nranks_ &&
        !stop_.load(std::memory_order_acquire)) {
      ilk.unlock();
      record_deadlock();
      ilk.lock();
    }
  }
  {
    wk.prof.set_phase(obs::SchedPhase::kMailboxWait);
    std::unique_lock<std::mutex> lk(wk.mu);
    wk.cv.wait(lk, [&] {
      return !wk.inbox.empty() || stop_.load(std::memory_order_acquire);
    });
    wk.prof.set_phase(obs::SchedPhase::kHeapDispatch);
  }
  {
    std::lock_guard<std::mutex> ilk(idle_mu_);
    --idle_workers_;
  }
}

void FiberScheduler::fiber_main(void* arg) {
  RankSlot& slot = *static_cast<RankSlot*>(arg);
  FiberScheduler& sched = *slot.sched;
  try {
    (*sched.body_)(slot.rank);
  } catch (...) {
    {
      std::lock_guard<std::mutex> elk(sched.err_mu_);
      if (!sched.first_error_) sched.first_error_ = std::current_exception();
    }
    // First failure or not, make sure no peer can wait forever on this rank.
    sched.poison_all();
  }
  slot.state = RankSlot::State::kDone;
  Fiber::exit_to(slot.fiber, *slot.resume_to);
}

}  // namespace isoee::sim::detail
