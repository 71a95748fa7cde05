// ResourceGovernor: automatic DoS detection (paper section 4.4 extension).
//
// The paper's administrator reads the per-isolate counters and kills the
// offender by hand; the governor automates the decision. These tests drive
// tick() deterministically against live attack bundles and assert that
// (a) each DoS class is detected and the offender killed, (b) well-behaved
// bundles and Isolate0 are never judged, and (c) hysteresis and warmup
// behave as specified.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "admin/governor.h"
#include "osgi/framework.h"
#include "stdlib/system_library.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

using namespace std::chrono;

struct GovernorPlatform {
  GovernorPlatform() {
    VmOptions opts = VmOptions::isolated();
    opts.gc_threshold = 512u << 10;
    opts.heap_limit = 64u << 20;
    opts.host_thread_cap = 48;
    vm = std::make_unique<VM>(opts);
    installSystemLibrary(*vm);
    FrameworkOptions fopts;
    fopts.activator_timeout_ms = 1000;
    fw = std::make_unique<Framework>(*vm, fopts);
  }
  ~GovernorPlatform() {
    vm->shutdownAllThreads();
    fw.reset();
    vm.reset();
  }

  Bundle* installAndStart(BundleDescriptor desc) {
    Bundle* b = fw->install(std::move(desc));
    fw->start(b);
    return b;
  }

  // Ticks the governor every `period_ms` until it has killed `bundle` or
  // the deadline passes. Returns true if killed.
  bool tickUntilKilled(ResourceGovernor& gov, Bundle* bundle, i64 deadline_ms,
                       i64 period_ms = 50) {
    auto deadline = steady_clock::now() + milliseconds(deadline_ms);
    while (steady_clock::now() < deadline) {
      gov.tick();
      for (i32 id : gov.killed()) {
        if (id == bundle->id()) return true;
      }
      std::this_thread::sleep_for(milliseconds(period_ms));
    }
    return false;
  }

  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
};

TEST(GovernorTest, KillsCpuHog) {
  GovernorPlatform p;
  Bundle* good = p.installAndStart(makeWellBehavedBundle("good"));
  Bundle* hog = p.installAndStart(makeCpuHogBundle("cpuhog"));

  GovernorPolicy policy = GovernorPolicy::standard();
  ResourceGovernor gov(*p.fw, policy);
  ASSERT_TRUE(p.tickUntilKilled(gov, hog, 10000));

  // The spinner thread must actually unwind after the kill.
  auto deadline = steady_clock::now() + seconds(5);
  while (hog->isolate()->stats.live_threads.load() != 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(hog->isolate()->stats.live_threads.load(), 0);
  EXPECT_EQ(hog->state(), BundleState::Uninstalled);
  EXPECT_EQ(good->state(), BundleState::Active);

  // The kill event names the CPU rule, and every CpuShare verdict records
  // how many CPU samples its share was computed over.
  bool cpu_kill = false;
  for (const GovernorEvent& ev : gov.history()) {
    if (ev.signal == Signal::CpuShare) {
      EXPECT_GT(ev.samples, 0u) << "tick " << ev.tick;
    } else {
      EXPECT_EQ(ev.samples, 0u);
    }
    if (ev.bundle_id == hog->id() && ev.acted &&
        ev.action == GovernorAction::Kill && ev.signal == Signal::CpuShare) {
      cpu_kill = true;
    }
  }
  EXPECT_TRUE(cpu_kill);
  const std::string snap = gov.adminSnapshot();
  EXPECT_NE(snap.find("samples"), std::string::npos) << snap;
  EXPECT_NE(snap.find("cpuhog"), std::string::npos) << snap;
}

TEST(GovernorTest, KillsMemoryHog) {
  GovernorPlatform p;
  Bundle* good = p.installAndStart(makeWellBehavedBundle("good"));
  // ~12 MiB retention, grabbed over ~2s -- the 4 MiB default budget trips
  // mid-flight.
  Bundle* hog = p.installAndStart(makeMemoryHogBundle("memhog", 16384, 96));

  GovernorPolicy policy = GovernorPolicy::standard(/*memory_budget_bytes=*/2u << 20);
  policy.gc_if_allocated_bytes = 256u << 10;
  ResourceGovernor gov(*p.fw, policy);
  ASSERT_TRUE(p.tickUntilKilled(gov, hog, 15000));
  EXPECT_EQ(hog->state(), BundleState::Uninstalled);
  EXPECT_EQ(good->state(), BundleState::Active);

  // After the kill + GC the hog's retention is reclaimed.
  p.vm->collectGarbage(nullptr, nullptr);
  EXPECT_LT(p.vm->reportFor(hog->isolate()).bytes_charged, 1u << 20);
}

TEST(GovernorTest, KillsThreadBomb) {
  GovernorPlatform p;
  Bundle* bomb = p.installAndStart(makeThreadBombBundle("bomb", 12));

  GovernorPolicy policy = GovernorPolicy::standard(4u << 20, /*thread_budget=*/6);
  ResourceGovernor gov(*p.fw, policy);
  ASSERT_TRUE(p.tickUntilKilled(gov, bomb, 10000));

  auto deadline = steady_clock::now() + seconds(5);
  while (bomb->isolate()->stats.live_threads.load() != 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(bomb->isolate()->stats.live_threads.load(), 0);
}

TEST(GovernorTest, KillsAllocChurner) {
  GovernorPlatform p;
  Bundle* churn = p.installAndStart(makeChurnBundle("churn"));

  GovernorPolicy policy = GovernorPolicy::standard();
  ResourceGovernor gov(*p.fw, policy);
  ASSERT_TRUE(p.tickUntilKilled(gov, churn, 10000));

  // History contains A4 GC warnings and/or the alloc-rate kill.
  bool alloc_hit = false;
  for (const GovernorEvent& ev : gov.history()) {
    if (ev.bundle_id == churn->id() &&
        (ev.signal == Signal::AllocRate || ev.signal == Signal::GcRate)) {
      alloc_hit = true;
    }
  }
  EXPECT_TRUE(alloc_hit);
}

TEST(GovernorTest, KillsHangingService) {
  GovernorPlatform p;
  defineCounterApi(*p.fw);
  Bundle* hang = p.installAndStart(makeHangServiceBundle("hang", "svc"));
  Bundle* client = p.installAndStart(makeCounterClient("client", "svc"));

  // The client calls inc() and hangs inside the hang bundle.
  std::atomic<bool> returned{false};
  std::atomic<i32> value{0};
  JThread* ct = p.vm->attachThread("caller", p.fw->frameworkIsolate());
  std::thread caller([&] {
    Value r = p.vm->callStaticIn(ct, client->loader(),
                                 bundlePkg("client") + "/Client",
                                 "callGuarded", "()I", {});
    value.store(r.kind == Kind::Int ? r.asInt() : -2);
    returned.store(true);
    p.vm->detachThread(ct);
  });

  GovernorPolicy policy = GovernorPolicy::standard();
  ResourceGovernor gov(*p.fw, policy);
  EXPECT_TRUE(p.tickUntilKilled(gov, hang, 10000));

  // Control returns to the caller; callGuarded catches the
  // StoppedIsolateException and returns -1.
  auto deadline = steady_clock::now() + seconds(5);
  while (!returned.load() && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(value.load(), -1);
  caller.join();
}

TEST(GovernorTest, SparesWellBehavedBundles) {
  GovernorPlatform p;
  Bundle* a = p.installAndStart(makeWellBehavedBundle("good.a"));
  Bundle* b = p.installAndStart(makeWellBehavedBundle("good.b"));

  ResourceGovernor gov(*p.fw, GovernorPolicy::standard());
  for (int i = 0; i < 20; i++) {
    gov.tick();
    std::this_thread::sleep_for(milliseconds(25));
  }
  EXPECT_TRUE(gov.killed().empty());
  EXPECT_EQ(a->state(), BundleState::Active);
  EXPECT_EQ(b->state(), BundleState::Active);
  for (const GovernorEvent& ev : gov.history()) {
    EXPECT_FALSE(ev.acted && ev.action == GovernorAction::Kill)
        << ev.bundle_name << " " << ev.rule_label;
  }
}

TEST(GovernorTest, NeverJudgesIsolate0) {
  GovernorPlatform p;
  // A policy that any isolate doing anything would trip.
  GovernorPolicy policy;
  policy.rules.push_back({Signal::AllocRate, -1.0, 1, GovernorAction::Kill, "any"});
  policy.warmup_ticks = 0;
  ResourceGovernor gov(*p.fw, policy);
  gov.tick();
  gov.tick();
  for (const GovernorEvent& ev : gov.history()) {
    EXPECT_NE(ev.bundle_id, 0);
    EXPECT_NE(ev.bundle_name, "framework");
  }
  // Isolate0 is alive and privileged.
  EXPECT_TRUE(p.fw->frameworkIsolate()->isActive());
}

TEST(GovernorTest, HysteresisRequiresConsecutiveStrikes) {
  GovernorPlatform p;
  Bundle* good = p.installAndStart(makeWellBehavedBundle("bursty"));

  // One-tick spikes must not kill with strikes_to_act = 3; the well-behaved
  // bundle alternates work and sleep, so AllocRate > 0 only on some ticks.
  GovernorPolicy policy;
  policy.rules.push_back({Signal::AllocRate, 0.5, 3, GovernorAction::Kill, "alloc3"});
  policy.warmup_ticks = 0;
  ResourceGovernor gov(*p.fw, policy);

  // Tick with long gaps: each tick sees at most a couple of allocations,
  // and sleep-only intervals reset the strike counter.
  bool killed = false;
  for (int i = 0; i < 10 && !killed; i++) {
    gov.tick();
    killed = !gov.killed().empty();
    std::this_thread::sleep_for(milliseconds(120));
  }
  // Strike-3 kills are *possible* if the bundle allocated in 3 consecutive
  // windows; what hysteresis guarantees is no kill before 3 strikes.
  for (const GovernorEvent& ev : gov.history()) {
    if (ev.acted && ev.action == GovernorAction::Kill) {
      EXPECT_GE(ev.strikes, 3);
    }
  }
  (void)good;
}

TEST(GovernorTest, WarmupSuppressesStartupSpikes) {
  GovernorPlatform p;
  GovernorPolicy policy;
  policy.rules.push_back({Signal::AllocRate, 0.5, 1, GovernorAction::Kill, "alloc1"});
  policy.warmup_ticks = 5;
  ResourceGovernor gov(*p.fw, policy);

  // Installing + starting a bundle allocates (activator, thread, context).
  Bundle* b = p.installAndStart(makeWellBehavedBundle("newcomer"));
  for (int i = 0; i < 5; i++) gov.tick();
  // Within warmup: no events for the newcomer at all.
  for (const GovernorEvent& ev : gov.history()) {
    EXPECT_NE(ev.bundle_id, b->id());
  }
}

TEST(GovernorTest, WarnRuleRecordsButDoesNotKill) {
  GovernorPlatform p;
  Bundle* churn = p.installAndStart(makeChurnBundle("churn"));

  GovernorPolicy policy;
  policy.rules.push_back({Signal::AllocRate, 10.0, 1, GovernorAction::Warn, "warn-only"});
  policy.warmup_ticks = 0;
  ResourceGovernor gov(*p.fw, policy);
  for (int i = 0; i < 6; i++) {
    gov.tick();
    std::this_thread::sleep_for(milliseconds(50));
  }
  EXPECT_TRUE(gov.killed().empty());
  bool warned = false;
  for (const GovernorEvent& ev : gov.history()) {
    if (ev.bundle_id == churn->id() && ev.action == GovernorAction::Warn &&
        ev.acted) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
  EXPECT_NE(churn->state(), BundleState::Uninstalled);
}

TEST(GovernorTest, BackgroundWatcherKillsHog) {
  GovernorPlatform p;
  Bundle* hog = p.installAndStart(makeCpuHogBundle("cpuhog"));

  ResourceGovernor gov(*p.fw, GovernorPolicy::standard());
  std::atomic<bool> callback_fired{false};
  gov.onKill([&](const GovernorEvent& ev) {
    EXPECT_EQ(ev.bundle_name, "cpuhog");
    callback_fired.store(true);
  });
  gov.start(50);
  auto deadline = steady_clock::now() + seconds(10);
  while (!callback_fired.load() && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  gov.stop();
  EXPECT_TRUE(callback_fired.load());
  EXPECT_EQ(hog->state(), BundleState::Uninstalled);
  EXPECT_GT(gov.ticks(), 0u);
}

TEST(GovernorTest, KilledBundleReportedOnce) {
  GovernorPlatform p;
  Bundle* hog = p.installAndStart(makeCpuHogBundle("cpuhog"));
  ResourceGovernor gov(*p.fw, GovernorPolicy::standard());
  ASSERT_TRUE(p.tickUntilKilled(gov, hog, 10000));
  // Extra ticks must not re-kill or re-record the dead bundle.
  for (int i = 0; i < 5; i++) gov.tick();
  int kills = 0;
  for (i32 id : gov.killed()) {
    if (id == hog->id()) kills++;
  }
  EXPECT_EQ(kills, 1);
}

TEST(GovernorTest, StandardPolicyCoversFiveDosSignals) {
  GovernorPolicy p = GovernorPolicy::standard();
  bool mem = false, gc = false, threads = false, cpu = false, hang = false;
  for (const GovernorRule& r : p.rules) {
    mem |= r.signal == Signal::RetainedEstimate;
    gc |= r.signal == Signal::GcRate || r.signal == Signal::AllocRate;
    threads |= r.signal == Signal::LiveThreads;
    cpu |= r.signal == Signal::CpuShare;
    hang |= r.signal == Signal::HungCallers;
  }
  EXPECT_TRUE(mem && gc && threads && cpu && hang);
}

TEST(GovernorTest, StandardPolicyPairsJitChurnWithDemote) {
  GovernorPolicy p = GovernorPolicy::standard();
  bool found = false;
  for (const GovernorRule& r : p.rules) {
    if (r.signal != Signal::JitChurnRate) continue;
    found = true;
    // Churn means the method keeps re-heating: the remedy is DemoteJit's
    // raised re-heat floor, never a kill (hot is not hostile).
    EXPECT_EQ(r.action, GovernorAction::DemoteJit);
    EXPECT_GE(r.strikes_to_act, 2);
  }
  EXPECT_TRUE(found);
}

// JitChurnRate is a pure counter-delta signal, so the test drives it
// deterministically: bump the bundle's compile/demote counters between
// ticks (exactly what installJitCode/demoteCompiled do) instead of racing
// a real compile-demote cycle against the tick clock.
TEST(GovernorTest, JitChurnRuleFiresAndDemotes) {
  GovernorPlatform p;
  Bundle* busy = p.installAndStart(makeWellBehavedBundle("busy"));

  GovernorPolicy policy;
  policy.rules.push_back(
      {Signal::JitChurnRate, 3.0, 2, GovernorAction::DemoteJit, "thrash"});
  policy.warmup_ticks = 0;
  ResourceGovernor gov(*p.fw, policy);
  gov.tick();  // baseline snapshot: no deltas yet

  ResourceStats& stats = busy->isolate()->stats;
  auto churn = [&stats](u64 compiles, u64 demotes) {
    stats.jit_methods_compiled.fetch_add(compiles);
    stats.jit_methods_demoted.fetch_add(demotes);
  };

  churn(3, 3);  // delta 6 > 3: strike 1
  std::vector<GovernorEvent> ev1 = gov.tick();
  ASSERT_EQ(ev1.size(), 1u);
  EXPECT_EQ(ev1[0].bundle_id, busy->id());
  EXPECT_EQ(ev1[0].signal, Signal::JitChurnRate);
  EXPECT_DOUBLE_EQ(ev1[0].observed, 6.0);
  EXPECT_FALSE(ev1[0].acted);

  churn(2, 2);  // strike 2: the rule acts
  std::vector<GovernorEvent> ev2 = gov.tick();
  ASSERT_EQ(ev2.size(), 1u);
  EXPECT_TRUE(ev2[0].acted);
  EXPECT_EQ(ev2[0].action, GovernorAction::DemoteJit);
  // DemoteJit never kills: the bundle is still running.
  EXPECT_EQ(busy->state(), BundleState::Active);
  EXPECT_TRUE(gov.killed().empty());

  // A quiet tick resets the strikes (hysteresis), and the churn shows up
  // in the admin snapshot's per-bundle table.
  std::vector<GovernorEvent> ev3 = gov.tick();
  EXPECT_TRUE(ev3.empty());
  std::string snap = gov.adminSnapshot();
  EXPECT_NE(snap.find("jit-churn"), std::string::npos);
  EXPECT_NE(snap.find("busy"), std::string::npos);
}

}  // namespace
}  // namespace ijvm
