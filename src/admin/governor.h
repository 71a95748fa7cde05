// Automatic denial-of-service detection (paper section 4.4, future work).
//
// The paper stops at *assisting* a human administrator: I-JVM's per-isolate
// counters let the administrator locate a misbehaving bundle and kill it by
// hand. Section 4.4 explicitly leaves automating that decision as future
// work. The ResourceGovernor implements that extension: a policy engine
// that periodically snapshots every bundle's IsolateReport, evaluates a set
// of threshold rules over counter *deltas* (rates) or levels, applies a
// strike-based hysteresis so one noisy interval cannot kill a healthy
// bundle, and then either records a warning or kills the bundle through
// Framework::killBundle (which broadcasts StoppedBundleEvent and terminates
// the isolate exactly as the paper's administrator would).
//
// The governor never judges Isolate0 (the OSGi runtime itself) and knows
// about the accounting imprecision documented in section 4.4: memory and GC
// blame can land on the wrong isolate under object sharing, so the default
// policy pairs each "blame" signal with a corroborating allocation-side
// signal charged at creation time (which is always attributed correctly).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "osgi/framework.h"

namespace ijvm {

// What a rule observes. Rate signals are deltas between two consecutive
// governor ticks; level signals are absolute values of the latest snapshot.
enum class Signal : u8 {
  // -- level signals --
  MemoryCharged,     // bytes_charged after the last GC (paper's step-4 charge)
  RetainedEstimate,  // bytes_charged + bytes allocated since that GC
  LiveThreads,       // threads created by the bundle and still running
  SleepingThreads,   // threads blocked in sleep/wait inside the bundle
  HungCallers,       // threads created by *other* isolates blocked inside
                     // this bundle -- the A7 symptom (a service call never
                     // returns); a bundle sleeping on its own threads is fine
  // -- rate signals (per tick) --
  CpuShare,          // profiler samples in this bundle / all profiler
                     // samples (cpu_profile_samples deltas), 0..1
  GcRate,            // GC activations triggered by the bundle per tick
  AllocRate,         // objects allocated per tick
  AllocBytesRate,    // bytes allocated per tick
  IoRate,            // I/O bytes (read+write) per tick
  ThreadSpawnRate,   // threads created per tick
  // Execution-profile rates fed by the quickening engine (src/exec).
  // Zero under the classic interpreter (which does not profile). They
  // flag *hot* bundles -- compilation-tier candidates and CpuShare
  // corroboration -- from the same per-method counters the engine's
  // fusion tier promotes on (docs/execution-tiers.md).
  MethodInvocationRate,  // guest method invocations per tick
  LoopBackEdgeRate,      // loop back-edges executed per tick
  JitChurnRate,          // tier-3 compiles + demotions per tick: a bundle
                         // bouncing in and out of the code cache wastes
                         // compile bandwidth and evicts stable tenants --
                         // pair with GovernorAction::DemoteJit, whose
                         // raised re-heat floor is exactly what stops the
                         // bouncing (docs/jit.md, "Code lifecycle")
  JitPayoff,             // payoff-model demotions per tick (docs/jit.md,
                         // "Payoff"): the engine measured this bundle's
                         // compiled code slower than its own fused-tier
                         // baseline and auto-demoted it. A sustained rate
                         // means the bundle's hot set keeps compiling at
                         // a loss -- surface it (Warn) or stop paying the
                         // compile bandwidth (DemoteJit); the per-method
                         // jit_payoff_max_demotes pin converges either way
};

const char* signalName(Signal s);

enum class GovernorAction : u8 {
  Warn,        // record a violation only
  Kill,        // record and killBundle()
  PromoteJit,  // record and push the bundle's hot methods onto the
               // execution engine's promote-to-JIT queue (exec/jit.h).
               // No-op (a recorded warning) unless the VM runs
               // ExecEngine::Jit. The paper's "hot bundle" answer when
               // hot is not hostile: compile it instead of killing it.
  DemoteJit,   // record and demote the bundle's compiled methods back to
               // the fused tier (exec/code_cache.h): their entries are
               // un-patched and the code is reclaimed once no frame runs
               // it -- the same managed-code lever terminateIsolate pulls
               // by poisoning, but poison-free. PromoteJit's inverse: pair
               // it with a fire_below rule on an execution-profile rate so
               // a bundle that *cooled off* stops holding code-cache
               // budget (docs/governor.md).
};

const char* actionName(GovernorAction a);

// One threshold rule. The rule fires when `signal` exceeds `threshold`
// (or, with `fire_below`, stays at or under it -- cool-down rules) for
// `strikes_to_act` *consecutive* ticks (hysteresis; strikes reset on the
// first compliant tick).
struct GovernorRule {
  Signal signal = Signal::CpuShare;
  double threshold = 0.0;
  int strikes_to_act = 2;
  GovernorAction action = GovernorAction::Kill;
  std::string label;  // for reports; defaults to signalName()
  // Inverted comparison: the rule fires while the signal is at or below
  // the threshold. Meant for cool-down actions (DemoteJit); a kill rule
  // with fire_below would fire for every idle bundle.
  bool fire_below = false;
};

struct GovernorPolicy {
  std::vector<GovernorRule> rules;
  // Force a GC before evaluating level signals if any bundle allocated more
  // than this many bytes since the last collection (0 = never). Memory
  // charges are only recomputed by the GC (paper section 3.2), so without
  // an occasional forced collection MemoryCharged lags reality.
  u64 gc_if_allocated_bytes = 4u << 20;
  // Rules are only evaluated once a bundle has been observed for at least
  // this many ticks (lets <clinit>/startup spikes pass).
  int warmup_ticks = 1;
  // PromoteJit enqueues only methods whose own profile counters
  // (invocations + loop back-edges) exceed this -- the bundle is hot, but
  // only its actually-hot methods are worth compiling.
  u64 jit_promote_min_hotness = 1024;

  // The default policy covers the paper's five DoS attacks:
  //   A3 memory exhaustion      -> RetainedEstimate level
  //   A4 excessive creation/GC  -> GcRate + AllocRate
  //   A5 thread creation        -> LiveThreads level
  //   A6 infinite loop          -> CpuShare
  //   A7 hanging thread         -> SleepingThreads level
  static GovernorPolicy standard(u64 memory_budget_bytes = 4u << 20,
                                 i64 thread_budget = 6,
                                 double cpu_share_limit = 0.85);
};

// One rule trip (over threshold on one tick). `acted` is set on the tick
// the strike count reached strikes_to_act and the action ran.
struct GovernorEvent {
  u64 tick = 0;
  i32 bundle_id = -1;
  std::string bundle_name;
  Signal signal = Signal::CpuShare;
  std::string rule_label;
  double observed = 0.0;
  double threshold = 0.0;
  // CpuShare only: the tick's platform-wide CPU-sample delta `observed`
  // is a share of (0 for every other signal). A share computed from a
  // handful of samples is noise; this makes such a verdict visible.
  u64 samples = 0;
  int strikes = 0;
  GovernorAction action = GovernorAction::Warn;
  bool acted = false;
};

// Evaluates the policy over a Framework's bundles. Drive it either
// deterministically by calling tick() yourself (tests, benches) or in the
// background via start(period)/stop().
class ResourceGovernor {
 public:
  ResourceGovernor(Framework& fw, GovernorPolicy policy);
  ~ResourceGovernor();

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  // One evaluation pass; returns the events generated by this tick.
  std::vector<GovernorEvent> tick();

  // Background operation.
  void start(i64 period_ms);
  void stop();

  // Human-readable admin snapshot (obs/report.h formatting): the full
  // platform report plus governor status and per-bundle compile/demote
  // churn over the last tick.
  std::string adminSnapshot();

  // All events so far (warnings and kills).
  std::vector<GovernorEvent> history();
  // Bundles killed by the governor (ids), in kill order.
  std::vector<i32> killed();
  u64 ticks() const { return tick_count_.load(std::memory_order_relaxed); }

  // Invoked (outside internal locks) right after a bundle is killed.
  void onKill(std::function<void(const GovernorEvent&)> cb);

 private:
  struct BundleTrack {
    IsolateReport last;       // previous snapshot (for rate deltas)
    bool has_last = false;
    int ticks_seen = 0;
    double last_jit_churn = 0;  // compiles + demotions over the last tick
    std::unordered_map<size_t, int> strikes;  // rule index -> strike count
  };

  // CpuShare reads the sampling profiler's cpu_profile_samples deltas
  // against `total_cpu_delta`, their platform-wide sum over the tick.
  double evaluate(const GovernorRule& rule, const IsolateReport& now,
                  const BundleTrack& track, u64 total_cpu_delta,
                  double hung_callers) const;

  Framework& fw_;
  GovernorPolicy policy_;
  JThread* admin_ = nullptr;  // governor's own Isolate0 guest identity

  std::mutex mutex_;
  std::unordered_map<i32, BundleTrack> tracks_;  // bundle id -> track
  std::vector<GovernorEvent> history_;
  std::vector<i32> killed_;
  u64 last_total_cpu_ = 0;
  bool has_last_total_cpu_ = false;

  std::function<void(const GovernorEvent&)> on_kill_;

  std::atomic<u64> tick_count_{0};
  std::thread worker_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace ijvm
