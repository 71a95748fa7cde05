// VM configuration.
//
// `isolation=false, accounting=false` is the baseline mode: it models the
// unmodified LadyVM (performance experiments, Figures 1-3) and the Sun JVM
// (robustness experiments, section 4.3) -- one shared copy of statics,
// interned strings and Class objects, no per-isolate accounting, no
// termination support.
#pragma once

#include "heap/accounting_policy.h"
#include "support/common.h"

namespace ijvm {

// Which execution engine runs guest bytecode (see src/exec/).
//  Classic   -- the original single-switch interpreter (interpreter.cpp);
//               retained for differential testing.
//  Quickened -- direct-threaded dispatch over a rewritten instruction
//               stream with resolved operands and isolate-aware inline
//               caches (exec/engine.cpp), plus the superinstruction
//               fusion tier; never compiles.
//  Jit       -- everything Quickened does, plus tier 3: hot methods are
//               compiled to call-threaded code (exec/jit.cpp,
//               docs/jit.md). Compile the tier out with
//               -DIJVM_DISABLE_JIT (Jit then behaves as Quickened).
enum class ExecEngine : u8 { Classic, Quickened, Jit };

struct VmOptions {
  // Per-isolate statics / strings / Class objects + thread migration.
  bool isolation = true;
  // Per-isolate resource accounting (allocation, threads, I/O, GC, CPU).
  bool accounting = true;
  // How the GC accounting pass bills live objects to isolates.
  // FirstReference is the paper's design; the others implement its
  // section-4.4 future work (see heap/accounting_policy.h).
  AccountingPolicy accounting_policy = AccountingPolicy::FirstReference;
  // Run the bytecode verifier when classes are defined.
  bool verify = true;
  // Bytecode execution engine. Jit (the full tier ladder, see
  // docs/execution-tiers.md) is the default; Classic is kept for
  // differential testing (tests/test_exec_equivalence.cpp).
  ExecEngine exec_engine = ExecEngine::Jit;
  // Superinstruction fusion tier on top of the quickened engine
  // (src/exec/fuse.cpp, docs/execution-tiers.md): rewrite a hot method's
  // quickened stream a second time, collapsing hot adjacent pairs/triples
  // into fused opcodes. Ignored by the classic engine; false is the only
  // way to turn the tier off.
  bool fusion = true;
  // Hotness (profile invocations + loop back-edges) a method must exceed
  // before its stream is fused. 0 fuses as soon as a completed first
  // execution has quickened the stream (tests force the tier on this way).
  u64 fusion_threshold = 256;
  // Hotness a method must exceed before it is compiled to call-threaded
  // code (tier 3, exec/jit.cpp; only with exec_engine == ExecEngine::Jit).
  // Promotion takes effect at the method's next entry, or -- with `osr`
  // below -- mid-invocation at a loop back-edge (docs/jit.md). 0 compiles
  // as soon as a method is warmed and fused (the differential tests force
  // the tier on this way).
  u64 jit_threshold = 2048;
  // On-stack replacement (docs/jit.md, "On-stack replacement"): a method
  // that crosses jit_threshold *inside* one invocation -- the A6-style
  // single-call hot loop -- is compiled at a back-edge batch flush and the
  // running frame transfers into the compiled code without returning to
  // the caller. Only meaningful with exec_engine == ExecEngine::Jit;
  // false makes promotion entry-only.
  bool osr = true;
  // Background compilation (docs/jit.md, "Code lifecycle"): promote-to-JIT
  // requests are drained by a dedicated compiler thread
  // (exec/compile_manager.cpp) and finished code is installed by the
  // mutator at its next safepoint-coordinated drain point (method entry or
  // back-edge batch flush) -- the mutator never blocks on a compile, it
  // keeps running the fused tier until the entry flips. false compiles
  // synchronously at the drain point (deterministic: code is installed the
  // moment the request is drained -- the configuration the tier tests
  // pin; no compiler thread is ever started).
  bool background_compile = true;
  // Profile-driven payoff model (docs/jit.md, "Payoff"): promotion stops
  // being threshold-only. While a method approaches promotion the engine
  // samples its fused-tier cost per profiled unit (invocations +
  // back-edges); after the compiled code installs it samples the compiled
  // cost the same way, and when the measured speedup of a full
  // post-install window falls below jit_payoff_min_speedup the method is
  // auto-demoted through the same machinery the code-cache budget uses
  // (demoteCompiled: entry un-patched, re-heat floor raised, code
  // reclaimed once idle). A method payoff-demoted jit_payoff_max_demotes
  // times is pinned jit-ineligible -- the system converges instead of
  // oscillating. false keeps threshold-only promotion (no window
  // sampling, no payoff demotions).
  bool jit_payoff = true;
  // Timed invocations per payoff window (pre-promotion and post-install
  // each). Small enough that steady-state code stops paying clock reads
  // within a few dozen calls of installing.
  u32 jit_payoff_samples = 32;
  // Demote when measured (pre ns/unit) / (post ns/unit) is below this.
  // Below 1.0 gives the compiled tier the benefit of the doubt: both
  // windows include callee time, which dilutes the measured ratio toward
  // 1.0, so a reading under 0.95 means the compiled code is genuinely
  // slower, not noise.
  double jit_payoff_min_speedup = 0.95;
  // Payoff demotions before the method is pinned jit-ineligible.
  u32 jit_payoff_max_demotes = 3;
  // Test seam (tests/test_jit_payoff.cpp): busy-wait this many
  // nanoseconds at every compiled-code entry, making compiled code
  // deterministically slower than the fused tier so auto-demotion
  // provably fires. 0 (always, outside tests) injects nothing.
  u64 jit_payoff_test_entry_delay_ns = 0;

  // Bound on installed tier-3 compiled-code bytes (docs/jit.md, "Code
  // lifecycle"). When an install pushes the code cache past the budget,
  // the coldest compiled methods are *demoted* -- entry un-patched, method
  // back to the fused tier, code reclaimed once no frame executes it --
  // until the cache fits. 0 = unlimited. The default is generous: demotion
  // is for churny multi-bundle platforms whose compiled working set keeps
  // drifting, not for steady-state services.
  size_t code_cache_budget = 8u << 20;

  // Zero-copy inter-isolate communication (docs/comm.md): primitive
  // arrays and strings relinquished by the sender are *donated* -- re-keyed
  // to the receiver's isolate with the accounting charge transferring
  // owners -- instead of deep-copied. Only affects graphs sent through
  // transferGraph (comm/serializer.h); ineligible nodes (shared structure,
  // interned strings, monitor-bearing or foreign-created objects) fall
  // back to the copy path either way. false makes transferGraph always
  // copy.
  bool comm_zero_copy = true;
  // Frames coalesced per vectored channel send (ByteChannel::writev,
  // docs/comm.md "Batched sends"): senders buffer up to this many framed
  // messages and push them with one lock acquisition and one wakeup.
  // 1 = classic per-message sends.
  u32 channel_batch = 1;

  // Bytes allocated since the previous collection that trigger a GC.
  size_t gc_threshold = 8u << 20;
  // Hard heap cap; exceeding it after a forced GC raises OutOfMemoryError.
  size_t heap_limit = 256u << 20;
  // Default per-isolate memory cap (0 = unlimited); per-isolate overrides
  // via Isolate::memory_limit.
  size_t isolate_memory_limit = 0;
  // Default per-isolate live thread cap (0 = unlimited).
  i32 isolate_thread_limit = 0;
  // Platform-wide live spawned-thread cap, modelling the real JVM's
  // "cannot create native thread" OutOfMemoryError (attack A5's failure
  // mode on an unprotected JVM). Applies in both modes.
  i32 host_thread_cap = 1024;

  // Sampling-profiler rate in Hz (obs/profiler.h): stack samples with
  // per-isolate CPU attribution, tier tags and flame-graph export. The
  // same tick is the paper's section-3.2 CPU sampler: with `accounting`
  // it charges cpu_samples to the isolate of every Running thread. 0
  // disables the VM's only sampler thread (manual Profiler::tickOnce
  // still works -- the deterministic mode the tests drive). 97 rather
  // than 100 so the sampler cannot phase-lock with millisecond-periodic
  // guest behaviour.
  u32 profile_hz = 97;

  // Mutator thread pool (src/runtime/mutator_pool.h, docs/concurrency.md):
  // the platform-side workers that run bundle entry points so thousands of
  // concurrent bundles do not serialize on one host thread. 0 means
  // hardware_concurrency. The pool is created lazily on first submit, so
  // embedders that only ever call in on their own thread pay nothing.
  u32 mutator_threads = 0;
  // Compiler threads draining the promote-to-JIT queue concurrently (only
  // with background_compile; exec/compile_manager.cpp). Builds parallelize;
  // installs stay at the mutators' safepoint-coordinated drain points, so
  // the entry-flip contract in docs/jit.md is unchanged.
  u32 compiler_threads = 1;

  static VmOptions isolated() { return VmOptions{}; }
  static VmOptions shared() {
    VmOptions o;
    o.isolation = false;
    o.accounting = false;
    o.profile_hz = 0;  // baseline JVM: no attribution machinery running
    return o;
  }
};

}  // namespace ijvm
