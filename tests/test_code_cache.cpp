// The compiled-code lifecycle subsystem (docs/jit.md, "Code lifecycle"):
// the bounded code cache (exec/code_cache.h) and the background compile
// manager (exec/compile_manager.h). Covered here:
//   * budget-driven demotion evicts the coldest compiled method, not the
//     hot one that pushed the cache over budget;
//   * demote -> re-heat -> recompile round-trip through the
//     QCode::jit_hotness_floor gate, and reclamation of the retired code
//     by the GC's stop-the-world sweep;
//   * GovernorAction::DemoteJit (with a fire_below cool-down rule)
//     reclaims a cooled bundle's code and the raised floor keeps it from
//     bouncing straight back;
//   * demotion racing terminateIsolate poisoning, in both orders and
//     concurrently -- the spinning thread always dies, re-entry is always
//     refused, retired code is always reclaimed;
//   * a churny multi-bundle workload with a budget smaller than its
//     compiled working set keeps installed bytes bounded while results
//     stay exact;
//   * background compilation installs at a mutator drain point and the
//     post-deopt re-request counter surfaces in ResourceStats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "admin/governor.h"
#include "bytecode/builder.h"
#include "exec/code_cache.h"
#include "exec/compile_manager.h"
#include "exec/engine.h"
#include "exec/jit.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "osgi/framework.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

#ifdef IJVM_DISABLE_JIT
#define IJVM_REQUIRE_JIT() GTEST_SKIP() << "built with IJVM_DISABLE_JIT"
#else
#define IJVM_REQUIRE_JIT() (void)0
#endif

// Deterministic tiers: compile at the second entry, synchronously.
VmOptions cacheOptions(size_t budget) {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Jit;
  opts.fusion_threshold = 0;
  opts.jit_threshold = 0;
  opts.background_compile = false;
  opts.code_cache_budget = budget;
  return opts;
}

struct CacheVm {
  explicit CacheVm(VmOptions opts) : vm(opts) {
    installSystemLibrary(vm);
    app = vm.registry().newLoader("app");
  }
  void boot() { vm.createIsolate(app, "app"); }

  JMethod* method(const std::string& cls, const std::string& name,
                  const std::string& desc) {
    JClass* c = vm.registry().resolve(app, cls);
    return c == nullptr ? nullptr : c->findMethod(name, desc);
  }

  i32 call(const std::string& cls, const std::string& name, i32 arg) {
    Value r = vm.callStaticIn(vm.mainThread(), app, cls, name, "(I)I",
                              {Value::ofInt(arg)});
    EXPECT_EQ(vm.mainThread()->pending_exception, nullptr)
        << vm.pendingMessage(vm.mainThread());
    return r.asInt();
  }

  VM vm;
  ClassLoader* app = nullptr;
};

// sum(0..n-1) via the canonical hot loop (same shape as test_jit).
void defineSumLoop(ClassBuilder& cb, const std::string& method_name) {
  auto& m = cb.method(method_name, "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label head = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(1);
  m.iconst(0).istore(2);
  m.bind(head).iload(2).iload(0).ifIcmpGe(done);
  m.iload(1).iload(2).iadd().istore(1);
  m.iinc(2, 1).gotoLabel(head);
  m.bind(done).iload(1).ireturn();
}

i32 goldenSum(i32 n) {
  u32 sum = 0;
  for (u32 i = 0; i < static_cast<u32>(n); ++i) sum += i;
  return static_cast<i32>(sum);
}

bool waitUntil(i64 timeout_ms, const std::function<bool()>& cond) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// The compiled footprint of one sum-loop method, measured on a throwaway
// VM (footprints are deterministic per build, so budget arithmetic in the
// tests below stays exact without hard-coding sizes).
size_t oneLoopFootprint() {
  CacheVm f(cacheOptions(/*budget=*/0));
  {
    ClassBuilder cb("app/One");
    defineSumLoop(cb, "f");
    f.app->define(cb.build());
  }
  f.boot();
  f.call("app/One", "f", 64);
  f.call("app/One", "f", 64);  // second entry compiles
  EXPECT_NE(exec::jitCodeOf(f.method("app/One", "f", "(I)I")), nullptr);
  return exec::codeCacheStats(f.vm).installed_bytes;
}

TEST(CodeCache, BudgetDemotesColdestMethod) {
  IJVM_REQUIRE_JIT();
  const size_t one = oneLoopFootprint();
  ASSERT_GT(one, 0u);
  // Room for two compiled methods, not three.
  CacheVm f(cacheOptions(2 * one + one / 2));
  {
    ClassBuilder cb("app/T");
    defineSumLoop(cb, "cold");
    defineSumLoop(cb, "hot");
    defineSumLoop(cb, "filler");
    f.app->define(cb.build());
  }
  f.boot();

  // cold compiles with a tiny usage score; hot earns a big one.
  for (int i = 0; i < 2; ++i) EXPECT_EQ(f.call("app/T", "cold", 8), 28);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(f.call("app/T", "hot", 512), goldenSum(512));
  }
  JMethod* cold = f.method("app/T", "cold", "(I)I");
  JMethod* hot = f.method("app/T", "hot", "(I)I");
  ASSERT_NE(exec::jitCodeOf(cold), nullptr);
  ASSERT_NE(exec::jitCodeOf(hot), nullptr);

  // The third install exceeds the budget: the coldest method is demoted.
  // filler arrives with visibly more heat (64-iteration loop) than the
  // long-idle cold method's leftover score.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(f.call("app/T", "filler", 64), goldenSum(64));
  }
  EXPECT_EQ(exec::jitCodeOf(cold), nullptr) << "coldest method not demoted";
  EXPECT_NE(exec::jitCodeOf(hot), nullptr) << "hot method wrongly demoted";
  EXPECT_NE(exec::jitCodeOf(f.method("app/T", "filler", "(I)I")), nullptr);

  exec::CodeCacheStats stats = exec::codeCacheStats(f.vm);
  EXPECT_GE(stats.demotions, 1u);
  EXPECT_LE(stats.installed_bytes, 2 * one + one / 2);
  EXPECT_EQ(stats.installed_methods, 2u);

  Isolate* iso = f.vm.isolateById(0);
  ASSERT_NE(iso, nullptr);
  EXPECT_GE(iso->stats.jit_methods_demoted.load(), 1u);
  EXPECT_EQ(static_cast<u64>(iso->stats.jit_code_bytes.load()),
            stats.installed_bytes);
  // Demotion is poison-free: the demoted method still runs (interpreted).
  EXPECT_EQ(f.call("app/T", "cold", 8), 28);
}

TEST(CodeCache, DemoteReheatRecompileRoundTrip) {
  IJVM_REQUIRE_JIT();
  CacheVm f(cacheOptions(/*budget=*/0));
  {
    ClassBuilder cb("app/T");
    defineSumLoop(cb, "f");
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  JMethod* m = f.method("app/T", "f", "(I)I");
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->jit_hotness_floor.load(), 0u);

  // Demote: entry un-patched, floor raised to the method's current heat.
  ASSERT_TRUE(exec::demoteCompiled(f.vm, m));
  EXPECT_EQ(exec::jitCodeOf(m), nullptr);
  EXPECT_GT(qc->jit_hotness_floor.load(), 0u);
  EXPECT_FALSE(exec::demoteCompiled(f.vm, m)) << "double demote must no-op";
  exec::CodeCacheStats after = exec::codeCacheStats(f.vm);
  EXPECT_EQ(after.demotions, 1u);
  EXPECT_GT(after.retired_bytes, 0u);

  // The GC's stop-the-world sweep reclaims the retired code (no frame is
  // inside it: we are between guest calls).
  f.vm.collectGarbage(f.vm.mainThread(), nullptr);
  after = exec::codeCacheStats(f.vm);
  EXPECT_EQ(after.retired_bytes, 0u);
  EXPECT_EQ(after.reclaimed, 1u);

  // Re-heat: with jit_threshold 0 the very next invocation is fresh heat
  // above the floor, so the method recompiles -- the round-trip.
  EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
  EXPECT_EQ(exec::codeCacheStats(f.vm).compiles, 2u);
  EXPECT_EQ(f.call("app/T", "f", 1000), goldenSum(1000));
}

TEST(CodeCache, ReheatFloorGatesRecompilation) {
  IJVM_REQUIRE_JIT();
  // Nonzero threshold: a demoted method must earn `jit_threshold` fresh
  // invocations/back-edges before recompiling.
  VmOptions opts = cacheOptions(/*budget=*/0);
  opts.jit_threshold = 500;
  CacheVm f(opts);
  {
    ClassBuilder cb("app/T");
    defineSumLoop(cb, "f");
    f.app->define(cb.build());
  }
  f.boot();
  // 100-iteration loop: ~101 hotness per call; hot after ~5 calls.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  JMethod* m = f.method("app/T", "f", "(I)I");
  ASSERT_NE(exec::jitCodeOf(m), nullptr);

  ASSERT_TRUE(exec::demoteCompiled(f.vm, m));
  // Two calls = ~200 fresh heat: below the threshold, stays demoted.
  EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  EXPECT_EQ(exec::jitCodeOf(m), nullptr)
      << "recompiled before earning jit_threshold fresh heat";
  // Six more (~800 total): over the threshold, recompiles.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
}

TEST(CodeCache, GovernorDemoteJitActionReclaimsCooledBundle) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = cacheOptions(/*budget=*/0);
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* micro = fw.install(makeMicroBundle("cooling"));
  fw.start(micro);

  // Cool-down policy: demote when the bundle's back-edge rate stays at or
  // below 1000 for two consecutive ticks (docs/governor.md, DemoteJit).
  GovernorPolicy policy;
  GovernorRule rule;
  rule.signal = Signal::LoopBackEdgeRate;
  rule.threshold = 1000.0;
  rule.strikes_to_act = 2;
  rule.action = GovernorAction::DemoteJit;
  rule.label = "cooled";
  rule.fire_below = true;
  policy.rules.push_back(rule);
  policy.gc_if_allocated_bytes = 0;
  ResourceGovernor gov(fw, policy);

  JThread* t = vm.mainThread();
  auto spin = [&](i32 n) {
    Value r = vm.callStaticIn(t, micro->loader(), "micro/Bench", "spinFor",
                              "(I)I", {Value::ofInt(n)});
    EXPECT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
    return r.asInt();
  };
  JMethod* m = vm.registry()
                   .resolve(micro->loader(), "micro/Bench")
                   ->findMethod("spinFor", "(I)I");
  ASSERT_NE(m, nullptr);
  spin(2000);
  spin(2000);  // second entry compiles (thresholds 0, synchronous)
  ASSERT_NE(exec::jitCodeOf(m), nullptr);

  // Tick 1 warms the track; the bundle then goes quiet, so ticks 2 and 3
  // observe a sub-threshold rate and the second strike demotes.
  gov.tick();
  gov.tick();
  std::vector<GovernorEvent> events = gov.tick();
  bool demoted_event = false;
  for (const GovernorEvent& ev : events) {
    demoted_event |= ev.action == GovernorAction::DemoteJit && ev.acted &&
                     ev.bundle_id == micro->id();
  }
  EXPECT_TRUE(demoted_event) << "cooled bundle never hit the DemoteJit rule";
  EXPECT_EQ(exec::jitCodeOf(m), nullptr) << "DemoteJit did not demote";
  EXPECT_GE(exec::codeCacheStats(vm).demotions, 1u);
  EXPECT_GE(micro->isolate()->stats.jit_methods_demoted.load(), 1u);

  // Poison-free: the bundle still runs, and once it re-heats past the
  // floor it recompiles (threshold 0: one invocation of fresh heat).
  EXPECT_EQ(spin(2000), spin(2000));
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
  vm.shutdownAllThreads();
}

// A bundle whose activator spawns a thread spinning inside a compiled
// method forever (the test_jit termination shape).
BundleDescriptor spinnerBundle(const std::string& name,
                               const std::string& pkg) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  {
    ClassBuilder cb(pkg + "/Main");
    auto& m = cb.method("spin", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1);
    m.iconst(0).istore(2);
    m.bind(head).iload(2).iload(0).ifIcmpGe(done);
    m.iload(1).iload(2).ixor().istore(1);
    m.iinc(2, 1).gotoLabel(head);
    m.bind(done).iload(1).ireturn();
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb(pkg + "/Spin");
    cb.addInterface("java/lang/Runnable");
    auto& run = cb.method("run", "()V");
    Label loop = run.newLabel();
    run.bind(loop);
    run.iconst(50000).invokestatic(pkg + "/Main", "spin", "(I)I").pop();
    run.gotoLabel(loop);
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb(pkg + "/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.newObject("java/lang/Thread").dup();
    start.newDefault(pkg + "/Spin");
    start.invokespecial("java/lang/Thread", "<init>",
                        "(Ljava/lang/Runnable;)V");
    start.invokevirtual("java/lang/Thread", "start", "()V");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    desc.classes.push_back(cb.build());
  }
  desc.activator = pkg + "/Activator";
  return desc;
}

TEST(CodeCache, DemotionRacesTerminationPoisoning) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = cacheOptions(/*budget=*/0);
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);

  auto expectDeadAndRefused = [&](Bundle* b, const std::string& pkg) {
    EXPECT_TRUE(waitUntil(5000, [&] {
      return b->isolate()->stats.live_threads.load() == 0;
    })) << "spinning thread survived termination (" << pkg << ")";
    JThread* t = vm.mainThread();
    vm.callStaticIn(t, b->loader(), pkg + "/Main", "spin", "(I)I",
                    {Value::ofInt(10)});
    ASSERT_NE(t->pending_exception, nullptr);
    EXPECT_NE(vm.pendingMessage(t).find("StoppedIsolate"), std::string::npos);
    vm.clearPending(t);
  };
  auto compiledSpin = [&](Bundle* b, const std::string& pkg) {
    JMethod* spin = vm.registry()
                        .resolve(b->loader(), pkg + "/Main")
                        ->findMethod("spin", "(I)I");
    EXPECT_TRUE(
        waitUntil(5000, [&] { return exec::jitCodeOf(spin) != nullptr; }))
        << pkg << "/Main.spin was never compiled";
    return spin;
  };

  // Order 1: demote first, then terminate. The method falls back to the
  // (poison-barred) interpreter; termination still kills the spinner.
  Bundle* a = fw.install(spinnerBundle("spin-a", "sa"));
  fw.start(a);
  JMethod* spin_a = compiledSpin(a, "sa");
  exec::demoteLoaderJit(vm, a->loader());
  EXPECT_EQ(exec::jitCodeOf(spin_a), nullptr);
  fw.killBundle(a);
  expectDeadAndRefused(a, "sa");

  // Order 2: terminate first (poisons the compiled entry), then demote.
  // Demotion un-patches a poisoned entry (unless the kill's own GC
  // already declared the isolate Dead and retired the code -- either way
  // it must end un-installed); the method-level poison barrier still
  // refuses re-entry.
  Bundle* b = fw.install(spinnerBundle("spin-b", "sb"));
  fw.start(b);
  JMethod* spin_b = compiledSpin(b, "sb");
  fw.killBundle(b);
  exec::demoteLoaderJit(vm, b->loader());
  EXPECT_EQ(exec::jitCodeOf(spin_b), nullptr);
  expectDeadAndRefused(b, "sb");

  // Concurrent: demotion hammering the loader while the kill's
  // stop-the-world poisoning pass runs.
  Bundle* c = fw.install(spinnerBundle("spin-c", "sc"));
  fw.start(c);
  compiledSpin(c, "sc");
  std::atomic<bool> stop{false};
  std::thread demoter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      exec::demoteLoaderJit(vm, c->loader());
    }
  });
  fw.killBundle(c);
  stop.store(true, std::memory_order_release);
  demoter.join();
  expectDeadAndRefused(c, "sc");

  // Everything those bundles compiled is now demoted or poisoned-dead;
  // once the spinners unwound and the GC declares the isolates Dead, the
  // sweep retires the poisoned code too and frees the lot -- dead
  // bundles must not hold code-cache budget (even an unlimited one)
  // forever. (System-library methods compiled under threshold 0 stay
  // installed, so the bound is per-bundle, via jit_code_bytes.)
  EXPECT_TRUE(waitUntil(5000, [&] {
    vm.collectGarbage(vm.mainThread(), nullptr);  // Dead-marking + sweep
    if (exec::codeCacheStats(vm).retired_bytes != 0) return false;
    for (Bundle* dead : {a, b, c}) {
      if (dead->isolate()->stats.jit_code_bytes.load() != 0) return false;
    }
    return true;
  })) << "dead bundles' compiled code never fully reclaimed";
  vm.shutdownAllThreads();
}

TEST(CodeCache, ChurnyMultiBundleWorkloadStaysBounded) {
  IJVM_REQUIRE_JIT();
  const size_t one = oneLoopFootprint();
  ASSERT_GT(one, 0u);
  // Budget smaller than the compiled working set: 6 hot bundles, room for
  // ~2 compiled methods.
  const size_t budget = 2 * one + one / 2;
  VmOptions opts = cacheOptions(budget);
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  std::vector<Bundle*> bundles;
  for (int k = 0; k < 6; ++k) {
    Bundle* b = fw.install(makeMicroBundle("churn" + std::to_string(k)));
    fw.start(b);
    bundles.push_back(b);
  }

  JThread* t = vm.mainThread();
  u64 max_installed = 0;
  for (int round = 0; round < 4; ++round) {
    for (Bundle* b : bundles) {
      for (int i = 0; i < 3; ++i) {
        Value r = vm.callStaticIn(t, b->loader(), "micro/Bench", "spinFor",
                                  "(I)I", {Value::ofInt(256)});
        ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
        // spinFor xors 0..n-1 into an accumulator; value must stay exact
        // across compile/demote churn.
        i32 expect = 0;
        for (i32 j = 0; j < 256; ++j) expect ^= j;
        EXPECT_EQ(r.asInt(), expect);
      }
      max_installed =
          std::max(max_installed, exec::codeCacheStats(vm).installed_bytes);
    }
    // Churny platforms reclaim through the GC's stop-the-world sweep.
    vm.collectGarbage(t, nullptr);
  }
  exec::CodeCacheStats stats = exec::codeCacheStats(vm);
  EXPECT_LE(max_installed, budget) << "installed bytes exceeded the budget";
  EXPECT_GE(stats.demotions, 4u) << "churn should keep demoting";
  EXPECT_LE(stats.retired_bytes, 6 * one)
      << "retired code not being reclaimed";
  // Per-isolate jit_code_bytes sums to the installed footprint.
  i64 per_iso = 0;
  for (Bundle* b : bundles) {
    per_iso += b->isolate()->stats.jit_code_bytes.load();
  }
  EXPECT_EQ(static_cast<u64>(per_iso), stats.installed_bytes);
  vm.shutdownAllThreads();
}

TEST(CodeCache, BackgroundCompileInstallsAtDrainPoint) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = cacheOptions(/*budget=*/0);
  opts.background_compile = true;
  CacheVm f(opts);
  {
    ClassBuilder cb("app/T");
    defineSumLoop(cb, "f");
    f.app->define(cb.build());
  }
  f.boot();
  JMethod* m = f.method("app/T", "f", "(I)I");

  // The request is queued at the second entry; the mutator never blocks.
  EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  EXPECT_EQ(f.call("app/T", "f", 100), 4950);
  // Wait for the worker to finish building (the waiter installs ready
  // code itself, which is exactly what a mutator drain point does).
  ASSERT_TRUE(exec::waitCompileIdle(f.vm, 10000));
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  exec::CodeCacheStats stats = exec::codeCacheStats(f.vm);
  EXPECT_GE(stats.background_compiles, 1u);
  // And the installed code actually runs.
  EXPECT_EQ(f.call("app/T", "f", 1000), goldenSum(1000));
}

TEST(CodeCache, PostDeoptRecompileRequestsSurfaceInResourceStats) {
  IJVM_REQUIRE_JIT();
  CacheVm f(cacheOptions(/*budget=*/0));
  {
    // The test_jit cold-arm shape: the getstatic arm never quickens while
    // the method compiles hot on the other arm, so taking it deopts and
    // the next entry re-requests compilation.
    ClassBuilder cb("app/T");
    cb.field("s", "I", ACC_PUBLIC | ACC_STATIC);
    auto& clinit = cb.method("<clinit>", "()V", ACC_STATIC);
    clinit.iconst(77).putstatic("app/T", "s", "I").ret();
    auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label cold = m.newLabel();
    m.iload(0).ifne(cold);
    m.iconst(42).ireturn();
    m.bind(cold).getstatic("app/T", "s", "I").ireturn();
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(f.call("app/T", "f", 0), 42);
  JMethod* m = f.method("app/T", "f", "(I)I");
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->jit_recompile_requests.load(), 0u);

  EXPECT_EQ(f.call("app/T", "f", 1), 77);  // deopt
  EXPECT_EQ(exec::jitCodeOf(m), nullptr);
  EXPECT_EQ(f.call("app/T", "f", 1), 77);  // re-request + recompile
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  EXPECT_GE(qc->jit_recompile_requests.load(), 1u);

  Isolate* iso = f.vm.isolateById(0);
  ASSERT_NE(iso, nullptr);
  EXPECT_GE(iso->stats.jit_recompile_requests.load(), 1u);
  EXPECT_EQ(f.vm.reportFor(iso).jit_recompile_requests,
            iso->stats.jit_recompile_requests.load());
  // Deopt invalidation is retired-code too: the GC sweep reclaims it.
  f.vm.collectGarbage(f.vm.mainThread(), nullptr);
  exec::CodeCacheStats stats = exec::codeCacheStats(f.vm);
  EXPECT_GE(stats.deopt_invalidations, 1u);
  EXPECT_EQ(stats.retired_bytes, 0u);
}

}  // namespace
}  // namespace ijvm