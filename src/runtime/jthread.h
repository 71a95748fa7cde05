// Guest threads and interpreter frames.
//
// Each guest thread carries a *current isolate* reference (paper section
// 3.1): inter-isolate calls update it on entry and restore it on return --
// this is the thread-migration mechanism that keeps inter-bundle calls as
// cheap as direct calls. The frame list is the thread's guest stack; the
// termination machinery (paper section 3.3) patches `kill_on_return` bits
// on it while the world is stopped, and the GC accounting pass reads each
// frame's isolate to charge the objects it references.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bytecode/value.h"
#include "classes/jclass.h"
#include "runtime/isolate.h"

namespace ijvm {

class AllocCache;
class VM;

// Execution tier a frame is currently running in. Stamped by the engines
// on entry and at tier transitions (OSR, deopt); read only by the owner
// thread's profiler self-sample (obs/profiler.h SampleTier mirrors the
// values). u8-backed so the Frame stays the same size class.
enum class FrameTier : u8 {
  Unknown = 0,
  Classic,
  Quickened,
  Fused,
  Jit,
  Osr,
};

struct Frame {
  JMethod* method = nullptr;
  // The isolate this frame executes in. For system-library methods this is
  // the *caller's* isolate (library code is charged to its caller).
  Isolate* isolate = nullptr;
  std::vector<Value> locals;
  std::vector<Value> stack;
  i32 pc = 0;
  FrameTier tier = FrameTier::Unknown;

  // Termination patch: when this frame completes, a StoppedIsolateException
  // targeted at `kill_isolate` is raised in the caller instead of delivering
  // the return value (models I-JVM's return-pointer rewriting).
  bool kill_on_return = false;
  i32 kill_isolate = -1;

  // Monitor held by a synchronized method (released on exit/unwind).
  Object* sync_object = nullptr;

  // Prepares a pooled frame for reuse (vectors keep their capacity).
  void reset() {
    method = nullptr;
    isolate = nullptr;
    locals.clear();
    stack.clear();
    pc = 0;
    kill_on_return = false;
    kill_isolate = -1;
    sync_object = nullptr;
    tier = FrameTier::Unknown;
  }
};

enum class ThreadState : u8 { Running, Blocked, Dead };

// RAII bracket that keeps guest objects alive while C++ code manipulates
// them between guest calls (e.g. the OSGi framework allocating an activator
// before registering a GlobalRef for it).
class LocalRootScope {
 public:
  explicit LocalRootScope(JThread* t);
  ~LocalRootScope();
  LocalRootScope(const LocalRootScope&) = delete;
  LocalRootScope& operator=(const LocalRootScope&) = delete;
  // Returns `obj` for chaining: Object* o = roots.add(vm.allocObject(...));
  Object* add(Object* obj);

 private:
  JThread* t_;
  size_t base_;
};

class JThread {
 public:
  JThread(VM& vm, i32 id, std::string name, Isolate* initial_isolate);

  JThread(const JThread&) = delete;
  JThread& operator=(const JThread&) = delete;

  VM& vm;
  const i32 id;
  std::string name;

  // Isolate that created the thread (threads are charged to their creator,
  // paper section 3.2, even though they may execute code from any isolate).
  Isolate* const creator_isolate;

  // Read by the CPU sampler without stopping the world.
  std::atomic<Isolate*> current_isolate;

  // Guest stack. Frames are pooled: entries [0, frames_active) are live,
  // the rest are retained for reuse so a method call does not heap-allocate
  // (hot path for Figure 1 / Table 1). The deque keeps Frame* stable.
  //
  // frames_active is atomic only because the governor's hung-caller scan
  // reads hasFrames() cross-thread without stopping the world (a racy
  // signal by design; strike hysteresis absorbs staleness). The owner is
  // the sole writer, so accessors use relaxed plain load/store -- no RMW,
  // the call hot path stays mov-only. The frames deque itself is owner- or
  // world-stopped-only; cross-thread readers may touch the counter, never
  // the frames.
  std::deque<Frame> frames;
  std::atomic<size_t> frames_active{0};

  Frame& pushFrame() {
    const size_t n = frames_active.load(std::memory_order_relaxed);
    if (n == frames.size()) frames.emplace_back();
    Frame& f = frames[n];
    f.reset();
    frames_active.store(n + 1, std::memory_order_relaxed);
    return f;
  }
  void popFrame() {
    frames_active.store(frames_active.load(std::memory_order_relaxed) - 1,
                        std::memory_order_relaxed);
  }
  void dropAllFrames() { frames_active.store(0, std::memory_order_relaxed); }
  Frame& frameAt(size_t i) { return frames[i]; }
  Frame& topFrame() {
    return frames[frames_active.load(std::memory_order_relaxed) - 1];
  }
  bool hasFrames() const {
    return frames_active.load(std::memory_order_relaxed) > 0;
  }

  // Thread-local allocation cache (heap/heap.h): block stash + object
  // table. Set when the thread is attached or spawned, released (and
  // nulled) when it detaches or ends; it allocates nothing after.
  AllocCache* alloc_cache = nullptr;

  // Pending guest exception being thrown/propagated (GC root). Atomic: the
  // collector's root scan reads it while a Blocked thread -- host code
  // between guest calls, which stop-the-world does not park -- may clear
  // or set it.
  std::atomic<Object*> pending_exception{nullptr};

  // The guest java/lang/Thread object, if any (GC root).
  Object* thread_object = nullptr;

  // Temporary roots for C++ code holding guest references outside any
  // frame (see LocalRootScope). Scanned by the GC, charged to the current
  // isolate.
  // Guarded by extra_roots_mutex: LocalRootScope mutates this from host
  // C++ threads that are not Running guests -- a stop-the-world does not
  // park them, so the GC's root scan must serialize with the scope's
  // push/unwind through the lock rather than through safepoints.
  std::mutex extra_roots_mutex;
  std::vector<Object*> extra_roots;

  std::atomic<bool> interrupted{false};

  // Termination: when >= 0, the next safepoint poll raises a
  // StoppedIsolateException targeting this isolate id (set when the top
  // frame belongs to a terminating isolate, or at VM shutdown).
  std::atomic<i32> pending_stop_isolate{-1};

  // Hard cancellation (VM shutdown): blocking natives return early.
  std::atomic<bool> force_kill{false};

  // Sampling-profiler handshake (obs/profiler.h): the sampler bumps
  // profile_requests (at most one ahead of profile_taken); the owner
  // notices the mismatch at its next safepoint poll site, walks its own
  // frames, and acknowledges by writing profile_taken = profile_requests.
  // profile_taken is owner-written; atomic (relaxed) only because the
  // sampler reads it to enforce the one-outstanding-request cap.
  std::atomic<u32> profile_requests{0};
  std::atomic<u32> profile_taken{0};

  // Trace sampling counter for inter-isolate calls (obs/trace.h): the
  // ~169 ns migrated-call path cannot afford two clock reads per call, so
  // 1 in 256 calls is recorded. Owner-thread only, no atomicity needed.
  u32 trace_call_counter = 0;

  std::atomic<ThreadState> state{ThreadState::Blocked};

  // ---- safepoint-era publication (epoch-based code reclamation) ----
  // The era this thread most recently observed at a safepoint poll site
  // (exec/code_cache.cpp, docs/concurrency.md). Written by the owner at
  // poll sites and on Blocked->Running transitions; read by the reclaim
  // scan. The store-if-changed guard keeps the steady-state back-edge
  // cost to two relaxed loads.
  std::atomic<u64> safepoint_era{0};
  void publishEra(u64 era) {
    if (safepoint_era.load(std::memory_order_relaxed) != era) {
      safepoint_era.store(era, std::memory_order_release);
    }
  }
  // True while this thread is counted in SafepointController's running_
  // tally. Guarded by SafepointController::m_ (NOT by `state`, which the
  // owner flips outside that mutex): the era gate must only consult
  // threads that can still be executing compiled code.
  bool safepoint_counted = false;

  // Isolate whose task this pool worker is currently running (nullptr for
  // non-pool threads). Set by MutatorPool around each task; read by the
  // governor's hung-caller scan so a worker blocked inside the bundle it
  // is scheduled FOR is not mistaken for a hung foreign caller.
  std::atomic<Isolate*> scheduled_isolate{nullptr};

  // ---- completion (Thread.join) ----
  void markDone();
  // Returns true when the thread finished, false on interrupt/cancel.
  bool awaitDone(JThread* waiter, i64 millis);
  bool isDone() const { return done_.load(std::memory_order_acquire); }

  // OS thread for spawned guest threads (empty for attached threads).
  std::thread os_thread;

  // Depth of the guest stack.
  size_t depth() const {
    return frames_active.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> done_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

}  // namespace ijvm
