// The I-JVM virtual machine.
//
// Owns the class registry, the heap, the isolates, the guest threads, the
// safepoint machinery and the CPU sampler; implements the interpreter
// (interpreter.cpp), per-isolate class initialization via task class
// mirrors, thread migration, resource accounting, GC orchestration and
// isolate termination.
//
// Typical embedding (see examples/quickstart.cpp):
//
//   VM vm;                                      // isolated mode
//   installSystemLibrary(vm);                   // stdlib module
//   ClassLoader* app = vm.registry().newLoader("app");
//   app->define(...);                           // bundle classes
//   Isolate* iso0 = vm.createIsolate(app, "app");  // first = Isolate0
//   Value r = vm.callStatic(vm.mainThread(), "app/Main", "main", "()I", {});
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "classes/class_loader.h"
#include "heap/heap.h"
#include "runtime/isolate.h"
#include "runtime/jthread.h"
#include "runtime/options.h"
#include "runtime/safepoint.h"

namespace ijvm {

class MutatorPool;

namespace obs {
class Profiler;
}

// A C++-held guest reference that keeps its object alive across GCs and
// charges it to `isolate_id` during the accounting pass. Created via
// VM::addGlobalRef, removed via VM::removeGlobalRef (or VM teardown).
struct GlobalRef {
  Object* obj = nullptr;
  i32 isolate_id = 0;
  bool active = false;
};

// Snapshot of one isolate's counters (admin/robustness reporting).
struct IsolateReport {
  i32 id = 0;
  std::string name;
  IsolateState state = IsolateState::Active;
  u64 bytes_charged = 0;
  u64 objects_charged = 0;
  u64 connections_charged = 0;
  u64 objects_allocated = 0;
  u64 bytes_allocated = 0;
  u64 bytes_since_gc = 0;  // allocated since the last accounting pass
  u64 bytes_donated_in = 0;     // ownership received via transferGraph
  u64 bytes_donated_out = 0;    // ownership given away via transferGraph
  u64 objects_donated_in = 0;
  u64 objects_donated_out = 0;
  i64 donated_bytes_delta = 0;  // signed held-bytes correction since last GC
  u64 threads_created = 0;
  i64 live_threads = 0;
  u64 gc_activations = 0;
  u64 cpu_samples = 0;
  u64 cpu_profile_samples = 0;
  i64 sleeping_threads = 0;
  u64 io_bytes_read = 0;
  u64 io_bytes_written = 0;
  u64 calls_in = 0;
  u64 method_invocations = 0;
  u64 loop_back_edges = 0;
  u64 jit_methods_compiled = 0;
  u64 jit_methods_demoted = 0;
  i64 jit_code_bytes = 0;
  u64 osr_refused_transfers = 0;
  u64 jit_recompile_requests = 0;
  u64 jit_payoff_demotions = 0;
};

class VM {
 public:
  explicit VM(VmOptions options = VmOptions{});
  ~VM();

  VM(const VM&) = delete;
  VM& operator=(const VM&) = delete;

  const VmOptions& options() const { return options_; }
  ClassRegistry& registry() { return registry_; }
  Heap& heap() { return heap_; }
  SafepointController& safepoints() { return safepoints_; }

  // ---- isolates ----
  // Creates an isolate for a (non-system) class loader. The first isolate
  // created becomes the privileged Isolate0 (paper section 3.1) and the
  // calling thread is attached to it as the main guest thread.
  Isolate* createIsolate(ClassLoader* loader, const std::string& name);
  Isolate* isolate0() { return isolate0_; }
  Isolate* isolateById(i32 id);
  std::vector<Isolate*> isolates();
  // TCM index for an isolate: its id in isolated mode, always 0 in shared
  // mode (single copy of statics -- the baseline JVM behaviour).
  i32 tcmIndex(const Isolate* iso) const {
    return options_.isolation ? iso->id : 0;
  }

  // ---- threads ----
  JThread* mainThread() { return main_thread_; }
  // Attaches an extra C++ thread as a guest thread (used by comm models).
  JThread* attachThread(const std::string& name, Isolate* initial);
  void detachThread(JThread* t);
  // Spawns a guest thread executing `thread_obj.run()`. Enforces the
  // creator's thread limit (throws on the *calling* thread).
  JThread* spawnThread(JThread* caller, Object* thread_obj, const std::string& name);
  std::vector<JThread*> threadsSnapshot();
  // Runs `fn` for every guest thread record under the thread-list lock
  // (records are never freed before ~VM, but the list itself grows
  // concurrently). Used by the sampling profiler's tick.
  void forEachThread(const std::function<void(JThread&)>& fn);

  // ---- sampling profiler (obs/profiler.h) ----
  // Never null after construction; its sampler thread -- the VM's only
  // one, which also charges the section-3.2 cpu_samples -- runs only when
  // options().profile_hz > 0.
  obs::Profiler* profiler() { return profiler_.get(); }

  // ---- mutator pool (src/runtime/mutator_pool.h) ----
  // The platform's worker pool for running bundle tasks concurrently
  // (options().mutator_threads workers; 0 = hardware_concurrency). Created
  // lazily on first use; torn down by ~VM after guest threads are
  // cancelled. Never null once returned.
  MutatorPool& mutatorPool();
  // The pool if it was ever created, else nullptr (reporting).
  MutatorPool* mutatorPoolIfStarted();

  // ---- safepoint-era reclamation support (exec/code_cache.cpp) ----
  // Smallest safepoint era published by any counted (Running) guest
  // thread; ~0ull when every thread is blocked. See docs/concurrency.md.
  u64 minMutatorEra();

  // ---- invocation (from C++) ----
  // On guest exception: returns a null-ref Value and leaves the exception in
  // t->pending_exception (use pendingMessage/clearPending).
  Value callStatic(JThread* t, const std::string& cls, const std::string& method,
                   const std::string& descriptor, std::vector<Value> args);
  // Resolves `cls` through an explicit loader (needed to reach classes that
  // are private to a bundle from host code; in-guest resolution always uses
  // the executing class's own loader).
  Value callStaticIn(JThread* t, ClassLoader* loader, const std::string& cls,
                     const std::string& method, const std::string& descriptor,
                     std::vector<Value> args);
  Value callVirtual(JThread* t, Object* receiver, const std::string& method,
                    const std::string& descriptor, std::vector<Value> args);
  Value invoke(JThread* t, JMethod* m, std::vector<Value> args);
  // Hot call path used by the interpreter: arguments are read directly from
  // the caller's operand stack (no per-call allocation). `args` must stay
  // valid and GC-visible for the duration of the call.
  Value invokeCore(JThread* t, JMethod* m, const Value* args, i32 nargs);

  std::string pendingMessage(JThread* t);
  void clearPending(JThread* t) { t->pending_exception = nullptr; }

  // ---- exceptions ----
  // Allocates a guest throwable and sets it pending on `t`.
  void throwGuest(JThread* t, const std::string& exception_class,
                  const std::string& message);
  Object* newException(JThread* t, const std::string& exception_class,
                       const std::string& message);

  // ---- strings ----
  Object* internString(JThread* t, const std::string& chars);      // per-isolate
  Object* newStringObject(JThread* t, std::string chars);          // fresh
  static std::string stringValue(Object* s);                        // payload
  // The system library's java/lang/String; installSystemLibrary sets it
  // once it has defined the class.
  void setStringClass(JClass* cls) { string_class_ = cls; }

  // ---- objects ----
  Object* allocObject(JThread* t, JClass* cls);        // checks limits, may GC
  Object* allocArrayObject(JThread* t, JClass* array_cls, i32 length);
  Object* allocNativeObject(JThread* t, JClass* cls,
                            std::unique_ptr<NativePayload> payload);
  Monitor* monitorOf(Object* obj) { return heap_.monitorFor(obj); }

  // Per-isolate java/lang/Class object of `cls` (lives in the TCM).
  Object* classObject(JThread* t, JClass* cls);

  // ---- class initialization & resolution ----
  // Ensures <clinit> ran for (cls, current isolate of t). Returns false if
  // a guest exception is pending.
  bool ensureInitialized(JThread* t, JClass* cls);
  JClass* resolveClassOrThrow(JThread* t, ClassLoader* ctx, const std::string& name);

  // ---- the isolate a method executes in for a caller currently in `cur` ----
  Isolate* executionIsolate(Isolate* cur, const JMethod* m) const;

  // ---- garbage collection ----
  // Stops the world, runs mark-sweep + the accounting pass, updates
  // per-isolate charges, detects dead isolates. `trigger` (may be null) is
  // charged one GC activation.
  GcStats collectGarbage(JThread* requester, Isolate* trigger);
  u64 gcCount() const { return gc_count_.load(std::memory_order_relaxed); }

  // ---- isolate termination (paper section 3.3) ----
  // Requires `requester` to run with Isolate0 privilege. Stops the world,
  // poisons the target's methods, patches every thread's stack, interrupts
  // blocked top frames, marks the isolate Terminating.
  // Returns false (and throws SecurityException on t) without privilege.
  bool terminateIsolate(JThread* requester, Isolate* target);

  // ---- shutdown ----
  // Cancels all guest threads (used by ~VM and the A-series attacks
  // teardown). Safe to call multiple times.
  void shutdownAllThreads();

  // ---- global refs ----
  GlobalRef* addGlobalRef(Object* obj, Isolate* charge_to);
  void removeGlobalRef(GlobalRef* ref);

  // ---- reporting ----
  IsolateReport reportFor(Isolate* iso);
  std::vector<IsolateReport> reportAll();

  // ---- named extension slots (used by stdlib channels, OSGi) ----
  void setExtension(const std::string& key, std::shared_ptr<void> value);
  std::shared_ptr<void> getExtension(const std::string& key);

  // ---- interpreter entry (internal; used by invoke) ----
  // Dispatches to the engine selected by options().exec_engine.
  Value interpret(JThread* t, Frame& frame);
  // The original single-switch interpreter (kept for differential testing
  // against the quickening engine in src/exec/).
  Value interpretClassic(JThread* t, Frame& frame);

  // Statistics for benchmarks.
  u64 interIsolateCalls() const { return inter_isolate_calls_.load(std::memory_order_relaxed); }

 private:
  friend struct NativeCtx;

  void enumerateRoots(const RootSink& sink);
  // Checks per-isolate + global memory limits before/after an allocation of
  // `bytes`; may force a GC; returns false after throwing OutOfMemoryError.
  bool checkMemoryLimits(JThread* t, size_t bytes);
  // collectGarbage, except that `needed` (when given) is asked once this
  // thread owns the stop-the-world; if it says no, nothing is stopped or
  // collected and the result is empty.
  std::optional<GcStats> runCollection(JThread* requester, Isolate* trigger,
                                       const std::function<bool()>& needed);
  void runClinit(JThread* t, JClass* cls, TaskClassMirror& mirror, Isolate* iso);
  // `cache` comes from heap_.acquireCache(), taken before threads_mutex_
  // (and isolates_mutex_): it waits for a running collection, whose root
  // scan takes both.
  JThread* newThreadLocked(const std::string& name, Isolate* initial,
                           AllocCache* cache);
  void releaseAllocCache(JThread* t);

  VmOptions options_;
  ClassRegistry registry_;
  JClass* string_class_ = nullptr;
  Heap heap_;
  SafepointController safepoints_;

  std::mutex isolates_mutex_;
  std::deque<std::unique_ptr<Isolate>> isolates_;
  Isolate* isolate0_ = nullptr;

  std::mutex threads_mutex_;
  std::deque<std::unique_ptr<JThread>> threads_;
  JThread* main_thread_ = nullptr;
  AllocCache* main_cache_ = nullptr;  // taken by the constructor, for main_thread_
  i32 next_thread_id_ = 1;

  std::mutex clinit_mutex_;
  std::condition_variable clinit_cv_;

  std::mutex globals_mutex_;
  std::deque<GlobalRef> global_refs_;

  std::mutex ext_mutex_;
  std::unordered_map<std::string, std::shared_ptr<void>> extensions_;

  std::atomic<u64> gc_count_{0};
  std::atomic<u64> inter_isolate_calls_{0};
  std::atomic<i64> live_spawned_threads_{0};
  std::atomic<bool> shutting_down_{false};

  std::mutex pool_mutex_;  // guards lazy pool creation
  std::unique_ptr<MutatorPool> mutator_pool_;

  // Declared last so it is destroyed first -- but only after ~VM's body
  // has joined every guest thread (a guest mid-IJVM_PROFILE_POLL may call
  // into it until then). Its own sampler thread is stopped at the top of
  // ~VM, before any subsystem it reads (threads, compile queue) unwinds.
  std::unique_ptr<obs::Profiler> profiler_;
};

// Name of the exception used by isolate termination. Lives in java/lang so
// bundles can catch it like any Throwable -- except frames of the isolate
// being terminated, whose handlers are skipped.
inline constexpr const char* kStoppedIsolateException =
    "java/lang/StoppedIsolateException";

}  // namespace ijvm
