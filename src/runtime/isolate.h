// Isolates and their resource statistics.
//
// An isolate is built from a class loader (paper section 3.1): the classes
// defined by that loader execute "inside" the isolate, with their own copies
// of statics, interned strings and Class objects. Isolate0 -- the first
// isolate created -- is privileged: it may start and terminate other
// isolates and shut down the platform (it hosts the OSGi runtime).
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>

#include "support/common.h"

namespace ijvm {

class ClassLoader;
struct Object;

// All counters an administrator can inspect to locate misbehaving bundles
// (paper section 3.2). Monotonic unless noted.
struct ResourceStats {
  // Allocation-side counters (charged at allocation time to the creator).
  std::atomic<u64> objects_allocated{0};
  std::atomic<u64> bytes_allocated{0};
  // Bytes allocated since the last GC (reset by the accounting pass);
  // used together with bytes_charged for memory-limit checks.
  std::atomic<u64> bytes_since_gc{0};

  // Reachability-based charges recomputed by every GC (paper's 4-step
  // algorithm): an object is charged to the first isolate that references it.
  std::atomic<u64> bytes_charged{0};
  std::atomic<u64> objects_charged{0};
  std::atomic<u64> connections_charged{0};

  // Zero-copy communication counters (docs/comm.md): bytes/objects whose
  // ownership this isolate gave away (out) or received (in) through
  // transferGraph donations. Monotonic.
  std::atomic<u64> bytes_donated_in{0};
  std::atomic<u64> bytes_donated_out{0};
  std::atomic<u64> objects_donated_in{0};
  std::atomic<u64> objects_donated_out{0};
  // Signed correction applied to the held-bytes estimate between GCs:
  // a donation moves `byte_size` from the sender's delta to the
  // receiver's *before* any accounting pass re-derives bytes_charged, so
  // memory-limit checks see the transfer immediately. Reset to 0 by the
  // GC together with bytes_since_gc (the recomputed charges then already
  // bill donated objects to their new owner). Kept separate from the
  // unsigned bytes_since_gc so crediting the sender for an object that
  // predates the last GC cannot underflow.
  std::atomic<i64> donated_bytes_delta{0};

  std::atomic<u64> threads_created{0};
  std::atomic<i64> live_threads{0};

  std::atomic<u64> connections_opened{0};
  std::atomic<u64> io_bytes_read{0};
  std::atomic<u64> io_bytes_written{0};

  // Collections *triggered by* this isolate's allocation activity.
  std::atomic<u64> gc_activations{0};

  // Paper section 3.2 CPU charge: profiler ticks (obs/profiler.h) that
  // found a thread Running with this isolate as its current isolate.
  std::atomic<u64> cpu_samples{0};

  // Stack samples the sampling profiler (obs/profiler.h) attributed to
  // this isolate -- the leaf frame's isolate, so library code is charged
  // to its caller just like cpu_samples. The governor's Signal::CpuShare
  // reads deltas of this counter (safepoint-biased but stack-accurate).
  std::atomic<u64> cpu_profile_samples{0};

  // Threads currently blocked in Thread.sleep/Object.wait while executing
  // this isolate's code (A7 "hanging thread" detection).
  std::atomic<i64> sleeping_threads{0};

  // Calls that migrated a thread *into* this isolate.
  std::atomic<u64> calls_in{0};

  // Execution-profile counters fed by the quickening engine (src/exec):
  // guest method invocations and loop back-edges executed while a thread
  // ran in this isolate. Consumed by the governor's hot-bundle heuristics
  // and by future compilation tiers; zero under the classic interpreter.
  std::atomic<u64> method_invocations{0};
  std::atomic<u64> loop_back_edges{0};

  // Tier-3 compiled-code lifecycle counters (docs/jit.md, "Code
  // lifecycle"), charged to the isolate whose loader defines the method.
  // jit_code_bytes is the non-monotonic current footprint of *installed*
  // compiled code; it rises on install and falls on demotion or
  // deopt-invalidation, so a bounded code cache shows up here as a
  // bounded number even while compile/demote churn continues.
  std::atomic<u64> jit_methods_compiled{0};
  std::atomic<u64> jit_methods_demoted{0};
  std::atomic<i64> jit_code_bytes{0};
  // OSR tail observability (docs/jit.md, "On-stack replacement"): transfers
  // refused with compiled code present (no entry mapped at the flushed
  // loop header, or the live operand depth mismatched the entry map), and
  // promote-to-JIT requests re-fired for a method that already deopted at
  // least once (the post-deopt recompile cycle).
  std::atomic<u64> osr_refused_transfers{0};
  std::atomic<u64> jit_recompile_requests{0};
  // Payoff-model demotions (docs/jit.md, "Payoff"): compiled code that
  // measured slower than the isolate's own fused-tier baseline and was
  // auto-demoted. A nonzero rate feeds the governor's Signal::JitPayoff.
  std::atomic<u64> jit_payoff_demotions{0};
};

enum class IsolateState : u8 { Active, Terminating, Dead };

struct Isolate {
  i32 id = 0;
  std::string name;
  ClassLoader* loader = nullptr;
  bool privileged = false;  // Isolate0
  std::atomic<IsolateState> state{IsolateState::Active};

  ResourceStats stats;

  // 0 = unlimited. Checked at allocation against
  // bytes_charged + bytes_since_gc (a GC is forced before giving up).
  size_t memory_limit = 0;
  i32 thread_limit = 0;

  // Per-isolate interned string table (paper section 3.1: strings are
  // private per isolate; section 3.5: `==` therefore differs across
  // bundles). Entries are GC roots of this isolate.
  std::mutex strings_mutex;
  std::unordered_map<std::string, Object*> interned_strings;

  bool isActive() const { return state.load(std::memory_order_acquire) == IsolateState::Active; }
  bool isTerminating() const {
    return state.load(std::memory_order_acquire) == IsolateState::Terminating;
  }
};

}  // namespace ijvm
