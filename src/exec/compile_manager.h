// The background compile manager (docs/jit.md, "Code lifecycle").
//
// With VmOptions::background_compile every promote-to-JIT request --
// entry promotion, OSR self-promotion at a back-edge batch flush, and the
// governor's PromoteJit action alike -- is handed to a pool of
// VmOptions::compiler_threads worker threads instead of being compiled on
// the mutator. Workers drain the request queue concurrently, build
// call-threaded code off-thread (each from a snapshot of the quickened
// stream taken under the engine mutex), and park the finished JitCode on
// a shared ready list. The *mutator* performs the install at its next
// drain point (method entry or back-edge batch flush, via drainJitQueue):
// it never blocks on a compile, it just keeps running the fused tier
// until the entry flips.
//
// Mutator-side installation is what makes the entry flip
// safepoint-coordinated: isolate termination poisons methods under
// stop-the-world, when every mutator is parked, so an install can never
// interleave with a poisoning pass -- a request for a method poisoned
// mid-compile is simply dropped at install time. Adding compiler threads
// does not touch this contract: only *builds* parallelize; installs stay
// mutator-side. The workers themselves are not guest threads (like the
// profiler's sampler thread they never count as Running), so a long
// compile cannot stall a stop-the-world.
//
// Worker 0 doubles as the cache's pressure-relief valve: when retired
// (demoted/invalidated) code piles up past a fraction of the budget, it
// runs an era-gated reclamation pass (code_cache.h; no stop-the-world).
//
// background_compile=false keeps the synchronous drain (deterministic:
// code is installed the moment the request is drained).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/common.h"

namespace ijvm {
class VM;
struct JMethod;
}  // namespace ijvm

namespace ijvm::exec {

struct JitCode;

class CompileManager {
 public:
  explicit CompileManager(VM& vm);
  ~CompileManager();  // signals the workers and joins them

  CompileManager(const CompileManager&) = delete;
  CompileManager& operator=(const CompileManager&) = delete;

  // Hands a promote-to-JIT request to the workers (the caller holds the
  // QCode::jit_queued latch; it is released when the finished code is
  // installed or dropped).
  void enqueue(JMethod* m);

  size_t workerCount() const { return workers_.size(); }

  // Mutator-side install point: publishes every finished JitCode parked on
  // the ready list (dropping poisoned/superseded ones) and enforces the
  // code-cache budget. Returns the number of methods installed. Called
  // from drainJitQueue, i.e. at method entry and the back-edge batch
  // flush.
  u32 installReady();

  // True while requests are queued, building, or awaiting install --
  // deterministic tests combine this with installReady() polling.
  bool busy() const;

  // Requests queued + building + built-but-not-installed. The admin
  // report's "compile queue depth" (obs/report.h).
  u32 queueDepth() const;

 private:
  void workerLoop(size_t index);

  VM& vm_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<JMethod*> pending_;
  std::deque<std::unique_ptr<JitCode>> ready_;
  u32 building_ = 0;  // requests popped but not yet parked on ready_
  bool stop_ = false;
  // max(1, VmOptions::compiler_threads) workers sharing pending_/ready_;
  // only worker 0 runs the idle-tick pressure valve (one reclaimer is
  // enough, and it keeps the valve's cadence independent of the count).
  std::vector<std::thread> workers_;
};

// ---- tier-3 payoff model (docs/jit.md, "Payoff") ----
// Promotion stops being threshold-only: the engine times fused-tier
// invocations while a method is within reach of promotion (the *pre*
// window), compiled code times its own invocations after install (the
// *post* window; both in runJit/interpretQuickened), and when a full post
// window measures slower per profiled unit than the pre baseline the
// method is auto-demoted through demoteCompiled. The policy lives here --
// the compile manager owns the promote/demote decisions -- but the
// functions are engine-state-only and work identically with synchronous
// compilation (no CompileManager instance required).
struct QCode;

// Monotonic nanosecond clock for payoff samples. Independent of the
// tracing subsystem so the payoff model works with -DIJVM_DISABLE_TRACE.
u64 payoffNowNs();

// Drops both payoff windows, clears the settled latch and bumps the
// window generation (QCode::payoff_epoch), invalidating every in-flight
// sample. Called by retireJitCode for *every* retirement -- payoff
// demotion, budget demotion, governor demotion, deopt invalidation,
// dead-isolate retirement -- so a new compiled generation always measures
// against fresh windows and a mid-window demote resets cleanly.
void payoffResetWindows(QCode& qc);

// Folds one timed invocation into the pre (post=false) or post window,
// unless `epoch` no longer matches the current window generation (the
// sample straddled a retire; it is dropped). `units` is the invocation's
// profiled weight: 1 + the back-edges it executed. Returns true exactly
// when this sample completed the post window -- the caller then runs
// payoffEvaluate.
bool payoffAccumulate(VM& vm, QCode& qc, bool post, u32 epoch, u64 ns,
                      u64 units);

// Verdict on a full post window. With enough pre-window evidence it
// computes measured speedup = (pre ns/unit) / (post ns/unit); below
// VmOptions::jit_payoff_min_speedup the method is demoted (returns true),
// and a method demoted jit_payoff_max_demotes times is pinned
// jit-ineligible so the system converges instead of oscillating. At or
// above the bar -- or without enough pre evidence to judge (a method
// promoted before it was within sampling reach) -- the windows settle and
// sampling stops. Exactly one verdict per window generation.
bool payoffEvaluate(VM& vm, QCode& qc);

// Joins the VM's compile manager if one was ever started; safe to call
// repeatedly (VM::~VM calls it before tearing anything else down).
void shutdownCompileManager(VM& vm);

// Test helper: waits until the manager (if any) has no queued, building or
// uninstalled work, installing ready code on the caller's thread while it
// waits. Returns false on timeout.
bool waitCompileIdle(VM& vm, i64 timeout_ms);

// Current compile-queue depth of the VM's manager; 0 when no background
// manager ever started (synchronous compilation has no queue).
u32 compileQueueDepth(VM& vm);

}  // namespace ijvm::exec
