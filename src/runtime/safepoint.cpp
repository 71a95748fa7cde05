#include "runtime/safepoint.h"

#include "obs/clock.h"
#include "obs/trace.h"
#include "runtime/jthread.h"


namespace ijvm {


BlockedScope::BlockedScope(SafepointController& sp, JThread* t) : sp_(sp), t_(t) {
  if (t_ != nullptr) {
    was_running_ = t_->state.load(std::memory_order_acquire) == ThreadState::Running;
    if (was_running_) t_->state.store(ThreadState::Blocked, std::memory_order_release);
  }
  sp_.enterBlocked(t_);
}

BlockedScope::~BlockedScope() {
  sp_.exitBlocked(t_);
  if (t_ != nullptr && was_running_) {
    t_->state.store(ThreadState::Running, std::memory_order_release);
  }
}

void SafepointController::registerThread() {
  // Threads register in the Blocked state; exitBlocked() makes them Running.
}

void SafepointController::unregisterThread() {
  // Symmetric: threads unregister after enterBlocked().
}

void SafepointController::poll() {
  std::unique_lock<std::mutex> lock(m_);
  if (!stop_flag_.load(std::memory_order_relaxed)) return;
  --running_;
  cv_stopped_.notify_all();
  cv_resume_.wait(lock, [this] { return !stop_flag_.load(std::memory_order_relaxed); });
  ++running_;
}

void SafepointController::enterBlocked(JThread* t) {
  std::lock_guard<std::mutex> lock(m_);
  --running_;
  if (t != nullptr) t->safepoint_counted = false;
  cv_stopped_.notify_all();
}

void SafepointController::exitBlocked(JThread* t) {
  std::unique_lock<std::mutex> lock(m_);
  cv_resume_.wait(lock, [this] { return !stop_flag_.load(std::memory_order_relaxed); });
  ++running_;
  if (t != nullptr) {
    // Republish before the thread can re-enter compiled code: a reclaim
    // scan that ran while we were blocked did not count us; any era it
    // armed is visible here because its scan released m_ before we
    // acquired it.
    t->safepoint_counted = true;
    t->publishEra(era_.load(std::memory_order_acquire));
  }
}

u64 SafepointController::minCountedEra(const std::vector<JThread*>& threads) {
  std::lock_guard<std::mutex> lock(m_);
  u64 min_era = ~0ull;
  for (JThread* t : threads) {
    if (!t->safepoint_counted) continue;  // blocked => quiescent for the gate
    const u64 e = t->safepoint_era.load(std::memory_order_acquire);
    if (e < min_era) min_era = e;
  }
  return min_era;
}

bool SafepointController::stopTheWorld(JThread* self_guest,
                                       const std::function<bool()>& proceed) {
  // A guest requester must leave the Running count *before* contending for
  // the operation lock: if another stop-the-world is already in progress,
  // we would otherwise block on op_mutex_ while still counted as running,
  // and the current stopper would wait for us forever. Our guest frames
  // are stable here (we are between interpreter instructions), so being
  // treated as parked is safe.
  if (self_guest != nullptr) enterBlocked(self_guest);
  op_mutex_.lock();
  if (proceed && !proceed()) {
    op_mutex_.unlock();
    if (self_guest != nullptr) exitBlocked(self_guest);
    return false;
  }
  // Time-to-stop: measured from when this stopper *owns* the operation --
  // queueing behind another stop-the-world is not this pause's fault --
  // to when the last mutator parks.
  const u64 t0 = obs::monoNowNs();
  obs::emitAt(t0, obs::Ev::SafepointStop, obs::Ph::Begin, -1);
  std::unique_lock<std::mutex> lock(m_);
  stop_flag_.store(true, std::memory_order_release);
  cv_stopped_.wait(lock, [this] { return running_ == 0; });
  const u64 t1 = obs::monoNowNs();
  obs::emitAt(t1, obs::Ev::SafepointStop, obs::Ph::End, -1);
  obs::recordLatency(obs::Lat::SafepointTimeToStop, t1 - t0);
  stops_.store(stops_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  if (t1 - t0 > max_stop_ns_.load(std::memory_order_relaxed)) {
    max_stop_ns_.store(t1 - t0, std::memory_order_relaxed);
  }
  return true;
}

void SafepointController::resumeTheWorld(JThread* self_guest) {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_flag_.store(false, std::memory_order_release);
    cv_resume_.notify_all();
  }
  op_mutex_.unlock();
  // Re-enter the Running count (waits if the next operation already
  // started).
  if (self_guest != nullptr) exitBlocked(self_guest);
}

}  // namespace ijvm
