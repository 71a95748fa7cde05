// Cooperative safepoint protocol.
//
// Guest threads poll frequently from the interpreter loop. Stop-the-world
// operations (GC, isolate termination's stack patching, the robustness
// harness's snapshots) bring every registered thread to a halt:
//   - Running threads park at their next poll;
//   - threads inside blocking natives (monitors, sleep, I/O, join) are
//     already "safe": they registered with enterBlocked() and their guest
//     frames cannot move while blocked.
//
// The controller also owns the *safepoint era*, a monotonic counter that
// epoch-based code reclamation (exec/code_cache.cpp, docs/concurrency.md)
// advances when it retires compiled code. Each thread republishes the
// current era into JThread::safepoint_era at poll sites and on
// Blocked->Running transitions; once every counted (i.e. Running) thread
// has published an era >= the retiring one, no thread can still be inside
// the pre-retire instruction window, and the code may be freed without
// stopping the world.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <vector>

#include "support/common.h"

namespace ijvm {

class JThread;

class SafepointController {
 public:
  // Threads must be registered while in the Blocked state and transition to
  // Running via exitBlocked().
  void registerThread();
  void unregisterThread();

  // Fast check used by the interpreter before calling poll().
  bool stopRequested() const { return stop_flag_.load(std::memory_order_acquire); }

  // Parks the calling (Running) thread until the world resumes.
  void poll();

  // Bracket blocking operations: while "blocked" a thread counts as stopped.
  // Pass the calling JThread so its era publication stays coherent: a
  // blocked thread is quiescent for the era gate (its safepoint_counted is
  // cleared under m_), and on wake it republishes the current era before
  // it can reach compiled code.
  void enterBlocked(JThread* t = nullptr);
  void exitBlocked(JThread* t = nullptr);

  // Stop/resume the world. `self_guest` is the calling thread when it is a
  // registered Running guest (it is excluded from the wait; its era
  // bookkeeping is kept coherent across the park), nullptr otherwise.
  // Operations are serialized; nesting is not allowed. `proceed`, when
  // given, runs once this caller owns the operation (after any operation
  // it queued behind has resumed the world) and before anything is
  // stopped; if it returns false, nothing is stopped, the caller is back
  // where it was, and stopTheWorld returns false.
  bool stopTheWorld(JThread* self_guest,
                    const std::function<bool()>& proceed = nullptr);
  void resumeTheWorld(JThread* self_guest);

  // Always-on time-to-stop record (stop request -> every mutator parked),
  // the same measurement that feeds the SafepointTimeToStop histogram of
  // traced builds: the number of stops and the longest one.
  u64 stopCount() const { return stops_.load(std::memory_order_relaxed); }
  u64 maxTimeToStopNs() const { return max_stop_ns_.load(std::memory_order_relaxed); }

  // ---- safepoint era (epoch-based code reclamation) ----
  u64 currentEra() const { return era_.load(std::memory_order_acquire); }
  // Bumps the era and returns the *new* value (the reclaim target). The
  // fetch_add's RMW chain is what publishes the retirer's prior writes
  // (the entry un-patch) to every thread that later observes the new era.
  u64 advanceEra() { return era_.fetch_add(1, std::memory_order_acq_rel) + 1; }
  // Smallest era published by any *counted* (Running) thread among
  // `threads`; returns ~0ull when none is counted. Taken under m_, so it
  // cannot race a Blocked->Running transition: a thread that was blocked
  // during the scan republishes the current era under m_ before running.
  u64 minCountedEra(const std::vector<JThread*>& threads);

 private:
  std::mutex m_;
  std::condition_variable cv_resume_;     // parked threads wait here
  std::condition_variable cv_stopped_;    // the requester waits here
  std::atomic<bool> stop_flag_{false};
  std::atomic<u64> era_{1};
  int running_ = 0;
  std::mutex op_mutex_;  // serializes stop-the-world operations
  // Written only by the operation owner; relaxed.
  std::atomic<u64> stops_{0};
  std::atomic<u64> max_stop_ns_{0};
};

// RAII bracket for blocking natives. When a JThread is supplied, its state
// is flipped to Blocked for the duration so the CPU sampler (paper section
// 3.2: sample the isolate reference of *running* threads) does not charge
// CPU to threads parked in sleep/wait/monitor/I/O.
class BlockedScope {
 public:
  explicit BlockedScope(SafepointController& sp, JThread* t = nullptr);
  ~BlockedScope();
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  SafepointController& sp_;
  JThread* t_;
  bool was_running_ = false;
};

}  // namespace ijvm
