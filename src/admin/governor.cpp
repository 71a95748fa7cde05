#include "admin/governor.h"

#include <algorithm>
#include <chrono>

#include "exec/code_cache.h"
#include "exec/jit.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/strf.h"

namespace ijvm {

const char* actionName(GovernorAction a) {
  switch (a) {
    case GovernorAction::Warn: return "warn";
    case GovernorAction::Kill: return "kill";
    case GovernorAction::PromoteJit: return "promote-jit";
    case GovernorAction::DemoteJit: return "demote-jit";
  }
  return "?";
}

const char* signalName(Signal s) {
  switch (s) {
    case Signal::MemoryCharged: return "memory-charged";
    case Signal::RetainedEstimate: return "retained-estimate";
    case Signal::LiveThreads: return "live-threads";
    case Signal::SleepingThreads: return "sleeping-threads";
    case Signal::HungCallers: return "hung-callers";
    case Signal::CpuShare: return "cpu-share";
    case Signal::GcRate: return "gc-rate";
    case Signal::AllocRate: return "alloc-rate";
    case Signal::AllocBytesRate: return "alloc-bytes-rate";
    case Signal::IoRate: return "io-rate";
    case Signal::ThreadSpawnRate: return "thread-spawn-rate";
    case Signal::MethodInvocationRate: return "method-invocation-rate";
    case Signal::LoopBackEdgeRate: return "loop-back-edge-rate";
    case Signal::JitChurnRate: return "jit-churn-rate";
    case Signal::JitPayoff: return "jit-payoff-rate";
  }
  return "?";
}

GovernorPolicy GovernorPolicy::standard(u64 memory_budget_bytes,
                                        i64 thread_budget,
                                        double cpu_share_limit) {
  GovernorPolicy p;
  // A3: a bundle retaining more than its budget. Two strikes so a burst
  // that the next GC reclaims does not kill the bundle.
  p.rules.push_back({Signal::RetainedEstimate,
                     static_cast<double>(memory_budget_bytes), 2,
                     GovernorAction::Kill, "A3-memory"});
  // A4: sustained GC pressure. Allocation-side corroboration (AllocRate)
  // avoids killing the *victim* of misattributed GC blame (section 4.4
  // experiment 2): gc_activations charge the triggering isolate, which for
  // call-allocated garbage is the callee; the warn rule surfaces it, the
  // kill rule requires the bundle to also be the one allocating.
  p.rules.push_back({Signal::GcRate, 3.0, 2, GovernorAction::Warn, "A4-gc-warn"});
  // Threshold assumes ~50 ms ticks: a churner allocates tens of thousands
  // of objects per tick even when competing with other bundles for CPU; a
  // busy-but-honest service stays orders of magnitude below.
  p.rules.push_back({Signal::AllocRate, 15000.0, 2, GovernorAction::Kill,
                     "A4-alloc"});
  // A5: more live threads than the budget.
  p.rules.push_back({Signal::LiveThreads, static_cast<double>(thread_budget),
                     1, GovernorAction::Kill, "A5-threads"});
  // A6: monopolizing the CPU.
  p.rules.push_back({Signal::CpuShare, cpu_share_limit, 3,
                     GovernorAction::Kill, "A6-cpu"});
  // A7: foreign threads parked inside the bundle (hung callers). A bundle
  // sleeping on its *own* threads is normal; only stuck migrated-in calls
  // count. Three strikes so a slow-but-returning service call passes.
  p.rules.push_back({Signal::HungCallers, 0.5, 3, GovernorAction::Kill,
                     "A7-hang"});
  // Hot-bundle rule: sustained execution-profile rates mark a bundle as
  // interpreter-bound and hot -- and the action is now to *compile* it:
  // PromoteJit pushes the bundle's hot methods onto the promote-to-JIT
  // queue (tier 3, docs/jit.md), the answer for a bundle that is hot but
  // not hostile. The rate doubles as corroboration for an A6 CpuShare
  // kill (a bundle can pin the CPU without loop back-edges only by
  // hanging in a native call, which A7 covers). ~400k back-edges/tick
  // assumes ~50 ms ticks; an honest bursty service stays well below for
  // the 3 consecutive strikes required.
  p.rules.push_back({Signal::LoopBackEdgeRate, 400000.0, 3,
                     GovernorAction::PromoteJit, "hot-loop"});
  // Code-cache thrash: a bundle whose methods keep getting compiled and
  // demoted (or deopt-recompiled) several times per tick is burning
  // compile bandwidth and evicting stable tenants. DemoteJit raises its
  // re-heat floor, so the bundle must earn a full jit_threshold of fresh
  // heat before it competes for cache budget again -- the churn loop
  // breaks without killing anyone.
  p.rules.push_back({Signal::JitChurnRate, 8.0, 3, GovernorAction::DemoteJit,
                     "jit-thrash"});
  // Payoff losses: the engine keeps measuring this bundle's compiled code
  // slower than its own fused tier and reverting the promotions
  // (docs/jit.md, "Payoff"). Each individual demotion already handled
  // itself; a sustained *rate* means the bundle's working set is
  // systematically compile-hostile, which the administrator should see.
  // Warn only -- the per-method jit_payoff_max_demotes pin converges the
  // demote loop without governor force.
  p.rules.push_back({Signal::JitPayoff, 2.0, 2, GovernorAction::Warn,
                     "jit-payoff"});
  return p;
}

ResourceGovernor::ResourceGovernor(Framework& fw, GovernorPolicy policy)
    : fw_(fw), policy_(std::move(policy)) {
  // The governor acts as the administrator: it needs an Isolate0-privileged
  // guest identity of its own, because kills/GCs may run on its watcher
  // thread rather than the framework's main thread.
  admin_ = fw_.vm().attachThread("governor", fw_.frameworkIsolate());
}

ResourceGovernor::~ResourceGovernor() {
  stop();
  fw_.vm().detachThread(admin_);
}

void ResourceGovernor::onKill(std::function<void(const GovernorEvent&)> cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_kill_ = std::move(cb);
}

double ResourceGovernor::evaluate(const GovernorRule& rule,
                                  const IsolateReport& now,
                                  const BundleTrack& track,
                                  u64 total_cpu_delta,
                                  double hung_callers) const {
  const IsolateReport& prev = track.last;
  auto delta = [&](u64 IsolateReport::*field) -> double {
    u64 cur = now.*field;
    u64 old = track.has_last ? prev.*field : 0;
    return cur >= old ? static_cast<double>(cur - old) : 0.0;
  };
  switch (rule.signal) {
    case Signal::MemoryCharged:
      return static_cast<double>(now.bytes_charged);
    case Signal::RetainedEstimate:
      // bytes_charged is as of the last GC; bytes allocated since then are
      // an upper bound on growth (some may already be garbage). A churner
      // that keeps triggering collections keeps bytes_since_gc small, so it
      // trips the A4 allocation rules instead of this one.
      return static_cast<double>(now.bytes_charged + now.bytes_since_gc);
    case Signal::LiveThreads:
      return static_cast<double>(now.live_threads);
    case Signal::SleepingThreads:
      return static_cast<double>(now.sleeping_threads);
    case Signal::HungCallers:
      return hung_callers;
    case Signal::CpuShare: {
      if (total_cpu_delta == 0) return 0.0;
      return delta(&IsolateReport::cpu_profile_samples) /
             static_cast<double>(total_cpu_delta);
    }
    case Signal::GcRate:
      return delta(&IsolateReport::gc_activations);
    case Signal::AllocRate:
      return delta(&IsolateReport::objects_allocated);
    case Signal::AllocBytesRate:
      return delta(&IsolateReport::bytes_allocated);
    case Signal::IoRate:
      return delta(&IsolateReport::io_bytes_read) +
             delta(&IsolateReport::io_bytes_written);
    case Signal::ThreadSpawnRate:
      return delta(&IsolateReport::threads_created);
    case Signal::MethodInvocationRate:
      return delta(&IsolateReport::method_invocations);
    case Signal::LoopBackEdgeRate:
      return delta(&IsolateReport::loop_back_edges);
    case Signal::JitChurnRate:
      return delta(&IsolateReport::jit_methods_compiled) +
             delta(&IsolateReport::jit_methods_demoted);
    case Signal::JitPayoff:
      return delta(&IsolateReport::jit_payoff_demotions);
  }
  return 0.0;
}

std::vector<GovernorEvent> ResourceGovernor::tick() {
  u64 tick_no = tick_count_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Force a collection if the heap charges are stale (level signals read
  // bytes_charged, which only the GC updates).
  if (policy_.gc_if_allocated_bytes > 0) {
    // bytes_charged is only recomputed by the GC; trigger one when any
    // bundle's allocation counter grew enough since our previous tick.
    u64 allocated_since = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (Bundle* b : fw_.bundles()) {
      if (b->isolate() == nullptr) continue;
      IsolateReport now = fw_.reportFor(b);
      auto it = tracks_.find(b->id());
      u64 old = (it != tracks_.end() && it->second.has_last)
                    ? it->second.last.bytes_allocated
                    : 0;
      if (now.bytes_allocated - old > allocated_since)
        allocated_since = now.bytes_allocated - old;
    }
    if (allocated_since > policy_.gc_if_allocated_bytes) {
      fw_.vm().collectGarbage(admin_, nullptr);
    }
  }

  struct PendingKill {
    Bundle* bundle;
    GovernorEvent event;
  };
  std::vector<GovernorEvent> out;
  std::vector<PendingKill> kills;
  std::vector<Bundle*> promotes;
  std::vector<Bundle*> demotes;

  {
    std::lock_guard<std::mutex> lock(mutex_);

    // Total CPU delta across *all* isolates (including Isolate0) for the
    // share computation. reportAll sums the per-isolate atomic counters,
    // which every mutator (pool workers included) bumps on its own -- the
    // rate signals below therefore aggregate across threads by
    // construction; nothing here reads a single thread's counters.
    // The counter is the sampling profiler's (obs/profiler.h); with
    // profile_hz = 0 nothing samples and CpuShare reads 0.
    u64 total_cpu = 0;
    for (const IsolateReport& r : fw_.reportAll()) {
      total_cpu += r.cpu_profile_samples;
    }
    const u64 total_cpu_delta =
        has_last_total_cpu_ && total_cpu >= last_total_cpu_
            ? total_cpu - last_total_cpu_
            : 0;
    last_total_cpu_ = total_cpu;
    has_last_total_cpu_ = true;

    // Hung callers per isolate: threads some *other* isolate created,
    // currently blocked while migrated into this one (racy atomic reads;
    // the strike hysteresis absorbs the noise). Counter signals like this
    // must aggregate over *every* thread's state -- a single-mutator
    // shortcut (reading one thread) undercounts the moment the mutator
    // pool schedules bundle work on several workers. Pool workers are
    // creator-attributed to Isolate0, which would make any worker blocked
    // inside the very bundle it is *scheduled for* look like a hung
    // foreign caller and unjustly kill honest bundles under A7 -- the
    // scheduled_isolate marker (runtime/mutator_pool.cpp) exempts exactly
    // that thread while it runs that bundle's task.
    std::unordered_map<i32, double> hung;
    for (JThread* t : fw_.vm().threadsSnapshot()) {
      if (t->state.load(std::memory_order_acquire) != ThreadState::Blocked)
        continue;
      if (!t->hasFrames()) continue;  // attached thread idling in C++
      Isolate* cur = t->current_isolate.load(std::memory_order_acquire);
      if (cur == nullptr || cur == t->creator_isolate) continue;
      if (cur == t->scheduled_isolate.load(std::memory_order_acquire)) continue;
      hung[cur->id] += 1.0;
    }

    for (Bundle* b : fw_.bundles()) {
      if (b->isolate() == nullptr) continue;
      if (b->isolate()->privileged) continue;  // never judge Isolate0
      if (b->state() == BundleState::Uninstalled) continue;
      if (!b->isolate()->isActive()) continue;  // already dying

      IsolateReport now = fw_.reportFor(b);
      BundleTrack& track = tracks_[b->id()];
      track.ticks_seen++;

      bool warmed = track.ticks_seen > policy_.warmup_ticks;
      bool kill_queued = false;
      for (size_t i = 0; i < policy_.rules.size() && warmed; ++i) {
        const GovernorRule& rule = policy_.rules[i];
        auto hung_it = hung.find(b->isolate()->id);
        double hung_here = hung_it == hung.end() ? 0.0 : hung_it->second;
        double observed =
            evaluate(rule, now, track, total_cpu_delta, hung_here);
        int& strikes = track.strikes[i];
        const bool tripped = rule.fire_below ? observed <= rule.threshold
                                             : observed > rule.threshold;
        if (tripped) {
          strikes++;
        } else {
          strikes = 0;
          continue;
        }
        GovernorEvent ev;
        ev.tick = tick_no;
        ev.bundle_id = b->id();
        ev.bundle_name = b->symbolicName();
        ev.signal = rule.signal;
        ev.rule_label = rule.label.empty() ? signalName(rule.signal) : rule.label;
        ev.observed = observed;
        ev.threshold = rule.threshold;
        ev.samples = rule.signal == Signal::CpuShare ? total_cpu_delta : 0;
        ev.strikes = strikes;
        ev.action = rule.action;
        ev.acted = strikes >= rule.strikes_to_act;
        if (ev.acted && rule.action == GovernorAction::Kill && !kill_queued) {
          kill_queued = true;
          kills.push_back({b, ev});
        } else if (ev.acted && rule.action == GovernorAction::PromoteJit) {
          promotes.push_back(b);
        } else if (ev.acted && rule.action == GovernorAction::DemoteJit) {
          demotes.push_back(b);
        }
        if (obs::traceEnabled()) {
          obs::emit(ev.acted ? obs::Ev::GovernorAct : obs::Ev::GovernorWarn,
                    obs::Ph::Instant, b->isolate()->id,
                    obs::internTraceName(ev.rule_label));
        }
        out.push_back(ev);
        history_.push_back(ev);
      }
      track.last_jit_churn =
          evaluate(GovernorRule{Signal::JitChurnRate, 0.0, 1,
                                GovernorAction::Warn, "churn"},
                   now, track, total_cpu_delta, 0.0);
      track.last = now;
      track.has_last = true;
    }
  }
  obs::emit(obs::Ev::GovernorTick, obs::Ph::Instant, -1, tick_no, out.size());

  // Promote outside the governor lock (the enqueue takes the engine
  // mutex). The methods compile when the engine's dispatch loop drains the
  // queue: at their next entry, or -- for a bundle spinning inside one
  // call, the A6 shape this rule exists for -- at the spinning thread's
  // next back-edge batch flush, which then on-stack-replaces the live
  // frame into the compiled code (docs/jit.md, "On-stack replacement").
  // Requests are idempotent per method: re-firing every tick a bundle
  // stays hot never rebuilds an existing JitCode.
  for (Bundle* b : promotes) {
    exec::enqueueLoaderForJit(fw_.vm(), b->loader(),
                              policy_.jit_promote_min_hotness);
  }

  // Demote outside the governor lock too (the demotion takes the code
  // cache's lock). Un-patching is idempotent and poison-free: a cooled
  // bundle's compiled methods fall back to the fused tier, their code is
  // reclaimed once no frame runs it, and the raised re-heat floor
  // (docs/jit.md, "Code lifecycle") keeps the PromoteJit rule from
  // compiling them right back until they earn fresh heat.
  for (Bundle* b : demotes) {
    exec::demoteLoaderJit(fw_.vm(), b->loader());
  }

  // Kill outside the governor lock: killBundle stops the world and
  // broadcasts events, which may re-enter reporting paths.
  for (PendingKill& k : kills) {
    fw_.killBundleFrom(admin_, k.bundle);
    std::function<void(const GovernorEvent&)> cb;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      killed_.push_back(k.bundle->id());
      cb = on_kill_;
    }
    if (cb) cb(k.event);
  }
  return out;
}

void ResourceGovernor::start(i64 period_ms) {
  std::lock_guard<std::mutex> lock(wake_mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  worker_ = std::thread([this, period_ms] {
    obs::setTraceThreadName("governor");
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!stop_requested_) {
      lock.unlock();
      tick();
      lock.lock();
      wake_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                        [this] { return stop_requested_; });
    }
  });
}

void ResourceGovernor::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  worker_.join();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    running_ = false;
  }
}

std::string ResourceGovernor::adminSnapshot() {
  std::string out = obs::platformReport(fw_.vm());
  std::lock_guard<std::mutex> lock(mutex_);
  out += strf("governor: %llu ticks, %zu events, %zu kills\n",
              static_cast<unsigned long long>(
                  tick_count_.load(std::memory_order_relaxed)),
              history_.size(), killed_.size());
  out += strf("  %3s  %-18s %14s\n", "id", "bundle", "jit-churn/tick");
  for (Bundle* b : fw_.bundles()) {
    auto it = tracks_.find(b->id());
    if (it == tracks_.end()) continue;
    out += strf("  %3d  %-18s %14.1f\n", b->id(), b->symbolicName().c_str(),
                it->second.last_jit_churn);
  }
  // The newest decisions with the numbers behind them; `samples` is the
  // CPU-sample total a CpuShare share was computed over ("-" otherwise).
  constexpr size_t kRecentEvents = 8;
  const size_t first =
      history_.size() > kRecentEvents ? history_.size() - kRecentEvents : 0;
  if (first < history_.size()) {
    out += strf("  recent events:\n  %6s  %-18s %-14s %-11s %13s %13s %8s "
                "%7s\n",
                "tick", "bundle", "rule", "action", "observed", "threshold",
                "samples", "strikes");
  }
  for (size_t i = first; i < history_.size(); ++i) {
    const GovernorEvent& ev = history_[i];
    const std::string samples =
        ev.signal == Signal::CpuShare
            ? strf("%llu", static_cast<unsigned long long>(ev.samples))
            : "-";
    out += strf("  %6llu  %-18s %-14s %-11s %13.3f %13.3f %8s %7d%s\n",
                static_cast<unsigned long long>(ev.tick),
                ev.bundle_name.c_str(), ev.rule_label.c_str(),
                actionName(ev.action), ev.observed, ev.threshold,
                samples.c_str(), ev.strikes, ev.acted ? " acted" : "");
  }
  return out;
}

std::vector<GovernorEvent> ResourceGovernor::history() {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_;
}

std::vector<i32> ResourceGovernor::killed() {
  std::lock_guard<std::mutex> lock(mutex_);
  return killed_;
}

}  // namespace ijvm
