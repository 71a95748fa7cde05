#include "workloads/attacks.h"

#include <chrono>
#include <memory>
#include <thread>

#include "bytecode/builder.h"
#include "heap/object.h"
#include "osgi/framework.h"
#include "stdlib/system_library.h"
#include "support/strf.h"

namespace ijvm {

const char* attackName(AttackId id) {
  switch (id) {
    case AttackId::A1_StaticMutation:
      return "A1";
    case AttackId::A2_SharedLock:
      return "A2";
    case AttackId::A3_MemoryExhaustion:
      return "A3";
    case AttackId::A4_ExcessiveGc:
      return "A4";
    case AttackId::A5_ThreadCreation:
      return "A5";
    case AttackId::A6_InfiniteLoop:
      return "A6";
    case AttackId::A7_HangingThread:
      return "A7";
    case AttackId::A8_NoTermination:
      return "A8";
  }
  return "?";
}

const char* attackTitle(AttackId id) {
  switch (id) {
    case AttackId::A1_StaticMutation:
      return "modification of a static variable";
    case AttackId::A2_SharedLock:
      return "synchronized lock on a shared object";
    case AttackId::A3_MemoryExhaustion:
      return "memory exhaustion";
    case AttackId::A4_ExcessiveGc:
      return "excessive object creation (GC thrashing)";
    case AttackId::A5_ThreadCreation:
      return "recursive thread creation";
    case AttackId::A6_InfiniteLoop:
      return "standalone infinite loop";
    case AttackId::A7_HangingThread:
      return "hanging thread";
    case AttackId::A8_NoTermination:
      return "lack of termination support";
  }
  return "?";
}

namespace {

using namespace std::chrono;

// A guest call running on its own thread; observable after a timeout (the
// hanging-thread attacks need "did it ever come back?").
struct PendingCall {
  std::shared_ptr<std::atomic<bool>> done = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<i32>> value = std::make_shared<std::atomic<i32>>(0);
  std::shared_ptr<std::atomic<bool>> threw = std::make_shared<std::atomic<bool>>(false);

  bool waitFor(i64 ms) const {
    auto deadline = steady_clock::now() + milliseconds(ms);
    while (!done->load(std::memory_order_acquire)) {
      if (steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(milliseconds(1));
    }
    return true;
  }
};

// One self-contained attack platform.
struct Platform {
  Platform(bool isolated, ExecEngine engine, const VmOptionsTweak& tweak)
      : isolated_mode(isolated) {
    VmOptions opts = isolated ? VmOptions::isolated() : VmOptions::shared();
    opts.exec_engine = engine;
    opts.gc_threshold = 512u << 10;
    opts.heap_limit = 32u << 20;
    opts.host_thread_cap = 48;
    if (isolated) {
      opts.isolate_memory_limit = 6u << 20;
      opts.isolate_thread_limit = 8;
    }
    if (tweak) tweak(opts);
    vm = std::make_unique<VM>(opts);
    installSystemLibrary(*vm);
    FrameworkOptions fopts;
    fopts.activator_timeout_ms = 500;
    fw = std::make_unique<Framework>(*vm, fopts);
  }

  ~Platform() {
    vm->shutdownAllThreads();
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    fw.reset();
    vm.reset();
  }

  PendingCall callAsync(ClassLoader* loader, const std::string& cls,
                        const std::string& method, const std::string& desc,
                        std::vector<Value> args) {
    PendingCall pc;
    JThread* t = vm->attachThread("attack-call", fw->frameworkIsolate());
    VM* vmp = vm.get();
    threads.emplace_back([vmp, t, loader, cls, method, desc,
                          args = std::move(args), pc]() mutable {
      Value r = vmp->callStaticIn(t, loader, cls, method, desc, std::move(args));
      pc.threw->store(t->pending_exception != nullptr, std::memory_order_release);
      t->pending_exception = nullptr;
      pc.value->store(r.kind == Kind::Int ? r.asInt() : 0, std::memory_order_release);
      pc.done->store(true, std::memory_order_release);
      vmp->detachThread(t);
    });
    return pc;
  }

  // Synchronous call with timeout. Returns {completed, value}.
  std::pair<bool, i32> call(ClassLoader* loader, const std::string& cls,
                            const std::string& method, const std::string& desc,
                            std::vector<Value> args, i64 timeout_ms = 3000) {
    PendingCall pc = callAsync(loader, cls, method, desc, std::move(args));
    bool ok = pc.waitFor(timeout_ms);
    return {ok, pc.value->load(std::memory_order_acquire)};
  }

  // Admin view: the isolate with the highest value of `metric`, excluding
  // Isolate0 (the paper's administrator looks at per-bundle statistics).
  Isolate* worstIsolate(const std::function<u64(const IsolateReport&)>& metric) {
    Isolate* worst = nullptr;
    u64 worst_v = 0;
    for (Isolate* iso : vm->isolates()) {
      if (iso->privileged) continue;
      IsolateReport r = vm->reportFor(iso);
      u64 v = metric(r);
      if (worst == nullptr || v > worst_v) {
        worst = iso;
        worst_v = v;
      }
    }
    return worst;
  }

  bool killByIsolate(Isolate* iso) {
    Bundle* b = nullptr;
    for (Bundle* candidate : fw->bundles()) {
      if (candidate->isolate() == iso) b = candidate;
    }
    if (b == nullptr) return false;
    if (!isolated_mode) {
      // The baseline cannot terminate: model the failed unload.
      return vm->terminateIsolate(vm->mainThread(), iso);
    }
    fw->killBundle(b);
    return true;
  }

  const bool isolated_mode;
  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
  std::vector<std::thread> threads;
};

void sleepMs(i64 ms) { std::this_thread::sleep_for(milliseconds(ms)); }

// Spin until `pred` or deadline.
bool waitUntil(i64 ms, const std::function<bool()>& pred) {
  auto deadline = steady_clock::now() + milliseconds(ms);
  while (!pred()) {
    if (steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

// -------------------------------------------------------- guest builders

// A runnable class whose run() body is provided by `body` (body must end
// with a terminator; `this` is local 0).
ClassDef makeRunnable(const std::string& name,
                      const std::function<void(MethodBuilder&)>& body) {
  ClassBuilder cb(name);
  cb.addInterface("java/lang/Runnable");
  auto& run = cb.method("run", "()V");
  body(run);
  return cb.build();
}

// Activator that spawns one thread running `runnable_cls` on start.
ClassDef makeSpawningActivator(const std::string& name,
                               const std::string& runnable_cls) {
  ClassBuilder cb(name);
  cb.addInterface("osgi/BundleActivator");
  auto& start = cb.method("start", "(Losgi/BundleContext;)V");
  start.newObject("java/lang/Thread").dup();
  start.newDefault(runnable_cls);
  start.invokespecial("java/lang/Thread", "<init>", "(Ljava/lang/Runnable;)V");
  start.invokevirtual("java/lang/Thread", "start", "()V");
  start.ret();
  cb.method("stop", "(Losgi/BundleContext;)V").ret();
  return cb.build();
}

ClassDef makeNoopActivator(const std::string& name) {
  ClassBuilder cb(name);
  cb.addInterface("osgi/BundleActivator");
  cb.method("start", "(Losgi/BundleContext;)V").ret();
  cb.method("stop", "(Losgi/BundleContext;)V").ret();
  return cb.build();
}

// ------------------------------------------------------------ A1

AttackOutcome attackA1(Platform& p) {
  AttackOutcome out;
  // Shared library class with a public static (an "exported package").
  {
    ClassBuilder cb("lib/Shared");
    cb.field("arr", "[I", ACC_PUBLIC | ACC_STATIC);
    p.fw->frameworkIsolate()->loader->define(cb.build());
  }
  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Main");
    auto& setup = cb.method("setup", "()V", ACC_PUBLIC | ACC_STATIC);
    // lib/Shared.arr = new int[4] {7,7,7,7}
    setup.iconst(4).newarray(Kind::Int).astore(0);
    for (i32 i = 0; i < 4; ++i) {
      setup.aload(0).iconst(i).iconst(7).iastore();
    }
    setup.aload(0).putstatic("lib/Shared", "arr", "[I");
    setup.ret();
    auto& check = cb.method("check", "()I", ACC_PUBLIC | ACC_STATIC);
    Label null_lbl = check.newLabel();
    check.getstatic("lib/Shared", "arr", "[I").dup().ifNull(null_lbl);
    check.iconst(0).iaload().ireturn();
    check.bind(null_lbl).pop().iconst(-1).ireturn();
    victim.classes.push_back(cb.build());
  }
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  {
    ClassBuilder cb("atk/Main");
    auto& attack = cb.method("attack", "()V", ACC_PUBLIC | ACC_STATIC);
    // Paper A1: the malicious bundle sets the shared static to null.
    attack.aconstNull().putstatic("lib/Shared", "arr", "[I");
    attack.ret();
    attacker.classes.push_back(cb.build());
  }
  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);

  auto [ok1, _] = p.call(vb->loader(), "vic/Main", "setup", "()V", {});
  auto [ok2, __] = p.call(ab->loader(), "atk/Main", "attack", "()V", {});
  auto [ok3, seen] = p.call(vb->loader(), "vic/Main", "check", "()I", {});
  out.victim_unaffected = ok1 && ok2 && ok3 && seen == 7;
  out.attacker_identified = p.isolated_mode;  // contained by design, not stats
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  out.detail = out.victim_unaffected
                   ? "victim still sees its own static copy (value 7)"
                   : strf("victim observed corrupted static (check=%d)", seen);
  return out;
}

// ------------------------------------------------------------ A2

AttackOutcome attackA2(Platform& p) {
  AttackOutcome out;
  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Ping");
    auto& ping = cb.method("ping", "()I", ACC_PUBLIC | ACC_STATIC);
    // synchronized ("GLOBAL_LOCK") { return 1; }
    ping.ldcStr("GLOBAL_LOCK").astore(0);
    ping.aload(0).monitorenter();
    ping.aload(0).monitorexit();
    ping.iconst(1).ireturn();
    victim.classes.push_back(cb.build());
  }
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  attacker.classes.push_back(makeRunnable("atk/Hold", [](MethodBuilder& run) {
    // Grab the interned string's monitor and hold it "forever".
    run.ldcStr("GLOBAL_LOCK").monitorenter();
    run.lconst(600000).invokestatic("java/lang/Thread", "sleep", "(J)V");
    run.ret();
  }));
  attacker.classes.push_back(makeSpawningActivator("atk/Activator", "atk/Hold"));
  attacker.activator = "atk/Activator";

  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);  // spawns the holder thread

  // Wait until the holder is parked in sleep while owning the monitor.
  waitUntil(2000, [&] { return ab->isolate()->stats.sleeping_threads.load() > 0; });

  auto [completed, v] = p.call(vb->loader(), "vic/Ping", "ping", "()I", {}, 500);
  out.victim_unaffected = completed && v == 1;
  out.attacker_identified =
      p.isolated_mode && ab->isolate()->stats.sleeping_threads.load() > 0;
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  out.detail = out.victim_unaffected
                   ? "victim locked its own interned string; no interference"
                   : "victim blocked on the shared interned string's monitor";
  return out;
}

// ------------------------------------------------------------ A3

AttackOutcome attackA3(Platform& p) {
  AttackOutcome out;
  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Alloc");
    // The victim needs a modest 256 KiB working buffer -- fine normally,
    // impossible once the hog has filled the heap ("all bundles get an
    // OutOfMemoryError when allocating a new object").
    auto& m = cb.method("tryAlloc", "()I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    m.bind(from);
    m.iconst(65536).newarray(Kind::Int).astore(0);
    m.bind(to).iconst(1).ireturn();
    m.bind(handler).pop().iconst(-1).ireturn();
    m.handler(from, to, handler, "java/lang/OutOfMemoryError");
    victim.classes.push_back(cb.build());
  }
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  {
    ClassBuilder cb("atk/Mem");
    cb.field("sink", "Ljava/util/ArrayList;", ACC_PUBLIC | ACC_STATIC);
    auto& m = cb.method("grab", "()I", ACC_PUBLIC | ACC_STATIC);
    // sink = new ArrayList(); while (true) sink.add(new int[16384]);
    m.newDefault("java/util/ArrayList").putstatic("atk/Mem", "sink",
                                                  "Ljava/util/ArrayList;");
    m.iconst(0).istore(0);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    Label loop = m.newLabel();
    m.bind(from);
    m.bind(loop);
    m.getstatic("atk/Mem", "sink", "Ljava/util/ArrayList;");
    m.iconst(16384).newarray(Kind::Int);
    m.invokevirtual("java/util/ArrayList", "add", "(Ljava/lang/Object;)I").pop();
    m.iinc(0, 1);
    m.gotoLabel(loop);
    m.bind(to).gotoLabel(loop);  // unreachable; keeps handler range non-empty
    m.bind(handler).pop().iload(0).ireturn();
    m.handler(from, to, handler, "java/lang/OutOfMemoryError");
    attacker.classes.push_back(cb.build());
  }
  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);

  auto [grab_done, grabbed] = p.call(ab->loader(), "atk/Mem", "grab", "()I", {}, 30000);
  auto [alloc_done, alloc_v] = p.call(vb->loader(), "vic/Alloc", "tryAlloc", "()I", {});

  out.victim_unaffected = alloc_done && alloc_v == 1;
  // Administrator: the isolate holding the most charged memory.
  p.vm->collectGarbage(p.vm->mainThread(), nullptr);
  Isolate* worst = p.worstIsolate(
      [](const IsolateReport& r) { return r.bytes_charged; });
  out.attacker_identified = p.isolated_mode && worst == ab->isolate();
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    // After the kill, the attacker's retained memory is reclaimed.
    p.vm->collectGarbage(p.vm->mainThread(), nullptr);
    auto [re_done, re_v] = p.call(vb->loader(), "vic/Alloc", "tryAlloc", "()I", {});
    out.attacker_stopped = re_done && re_v == 1 &&
                           p.vm->reportFor(ab->isolate()).bytes_charged <
                               (1u << 20);
  }
  out.detail = strf("attacker retained %d chunks before OutOfMemoryError; "
                    "victim alloc %s",
                    grab_done ? grabbed : -1,
                    out.victim_unaffected ? "succeeded" : "failed (OOM)");
  return out;
}

// ------------------------------------------------------------ A4

AttackOutcome attackA4(Platform& p) {
  AttackOutcome out;
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  attacker.classes.push_back(makeRunnable("atk/Churn", [](MethodBuilder& run) {
    // while (true) { new int[4096]; }  -- triggers GC over and over
    Label loop = run.newLabel();
    run.bind(loop);
    run.iconst(4096).newarray(Kind::Int).pop();
    run.gotoLabel(loop);
  }));
  attacker.classes.push_back(makeSpawningActivator("atk/Activator", "atk/Churn"));
  attacker.activator = "atk/Activator";

  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Work");
    auto& m = cb.method("work", "()I", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(0);
    m.iconst(0).istore(1);
    m.bind(loop).iload(1).iconst(100000).ifIcmpGe(done);
    m.iload(0).iload(1).iadd().istore(0);
    m.iinc(1, 1).gotoLabel(loop);
    m.bind(done).iload(0).ireturn();
    victim.classes.push_back(cb.build());
  }

  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);  // churn thread starts

  // Let the churner trigger collections.
  const u64 gc_before = p.vm->gcCount();
  waitUntil(3000, [&] { return p.vm->gcCount() >= gc_before + 3; });

  Isolate* worst =
      p.worstIsolate([](const IsolateReport& r) { return r.gc_activations; });
  out.attacker_identified = p.isolated_mode && worst == ab->isolate() &&
                            p.vm->reportFor(ab->isolate()).gc_activations > 0;
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    // The churn thread must actually unwind.
    out.attacker_stopped = waitUntil(3000, [&] {
      return ab->isolate()->stats.live_threads.load() == 0;
    });
  }
  auto [work_done, work_v] = p.call(vb->loader(), "vic/Work", "work", "()I", {});
  out.victim_unaffected = work_done && work_v != 0 && out.attacker_stopped;
  out.detail = strf("%llu collections triggered by the churner; churn %s",
                    static_cast<unsigned long long>(
                        p.vm->reportFor(ab->isolate()).gc_activations),
                    out.attacker_stopped ? "stopped" : "still running");
  return out;
}

// ------------------------------------------------------------ A5

AttackOutcome attackA5(Platform& p) {
  AttackOutcome out;
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  attacker.classes.push_back(makeRunnable("atk/Sleeper", [](MethodBuilder& run) {
    run.lconst(600000).invokestatic("java/lang/Thread", "sleep", "(J)V");
    run.ret();
  }));
  {
    ClassBuilder cb("atk/Threads");
    auto& m = cb.method("spawn", "()I", ACC_PUBLIC | ACC_STATIC);
    // for (i=0;i<100;i++) try { new Thread(new Sleeper()).start(); }
    // catch (OutOfMemoryError e) { return i; }   return 100;
    m.iconst(0).istore(0);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    Label loop = m.newLabel(), done = m.newLabel();
    m.bind(from);
    m.bind(loop).iload(0).iconst(100).ifIcmpGe(done);
    m.newObject("java/lang/Thread").dup();
    m.newDefault("atk/Sleeper");
    m.invokespecial("java/lang/Thread", "<init>", "(Ljava/lang/Runnable;)V");
    m.invokevirtual("java/lang/Thread", "start", "()V");
    m.iinc(0, 1).gotoLabel(loop);
    m.bind(to);
    m.bind(done).iconst(100).ireturn();
    m.bind(handler).pop().iload(0).ireturn();
    m.handler(from, to, handler, "java/lang/OutOfMemoryError");
    attacker.classes.push_back(cb.build());
  }
  attacker.classes.push_back(makeNoopActivator("atk/Activator"));
  attacker.activator = "atk/Activator";

  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  victim.classes.push_back(makeRunnable("vic/Nop", [](MethodBuilder& run) {
    run.ret();
  }));
  {
    ClassBuilder cb("vic/Spawn");
    auto& m = cb.method("trySpawn", "()I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    m.bind(from);
    m.newObject("java/lang/Thread").dup();
    m.newDefault("vic/Nop");
    m.invokespecial("java/lang/Thread", "<init>", "(Ljava/lang/Runnable;)V");
    m.invokevirtual("java/lang/Thread", "start", "()V");
    m.bind(to).iconst(1).ireturn();
    m.bind(handler).pop().iconst(-1).ireturn();
    m.handler(from, to, handler, "java/lang/OutOfMemoryError");
    victim.classes.push_back(cb.build());
  }

  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);

  auto [spawn_done, spawned] =
      p.call(ab->loader(), "atk/Threads", "spawn", "()I", {}, 20000);
  auto [try_done, try_v] = p.call(vb->loader(), "vic/Spawn", "trySpawn", "()I", {});

  out.victim_unaffected = try_done && try_v == 1;
  Isolate* worst =
      p.worstIsolate([](const IsolateReport& r) { return r.threads_created; });
  out.attacker_identified = p.isolated_mode && worst == ab->isolate();
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    out.attacker_stopped = waitUntil(5000, [&] {
      return ab->isolate()->stats.live_threads.load() == 0;
    });
  }
  out.detail = strf("attacker created %d threads before failing; victim spawn %s",
                    spawn_done ? spawned : -1,
                    out.victim_unaffected ? "succeeded" : "failed (OOM)");
  return out;
}

// ------------------------------------------------------------ A6

AttackOutcome attackA6(Platform& p) {
  AttackOutcome out;
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  attacker.classes.push_back(makeRunnable("atk/Spin", [](MethodBuilder& run) {
    // while (true) k++;
    Label loop = run.newLabel();
    run.iconst(0).istore(1);
    run.bind(loop).iinc(1, 1).gotoLabel(loop);
  }));
  attacker.classes.push_back(makeSpawningActivator("atk/Activator", "atk/Spin"));
  attacker.activator = "atk/Activator";

  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Work");
    auto& m = cb.method("work", "()I", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(0);
    m.iconst(0).istore(1);
    m.bind(loop).iload(1).iconst(50000).ifIcmpGe(done);
    m.iload(0).iload(1).ixor().istore(0);
    m.iinc(1, 1).gotoLabel(loop);
    m.bind(done).iload(0).ireturn();
    victim.classes.push_back(cb.build());
  }

  Bundle* vb = p.fw->install(std::move(victim));
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(vb);
  p.fw->start(ab);

  // Let the CPU sampler observe the spinning thread.
  sleepMs(200);
  // Victim makes progress even while the attacker spins (OS preemption),
  // matching "the non-malicious bundles make progress slowly".
  auto [work_done, work_v] = p.call(vb->loader(), "vic/Work", "work", "()I", {});

  Isolate* worst =
      p.worstIsolate([](const IsolateReport& r) { return r.cpu_samples; });
  out.attacker_identified = p.isolated_mode && worst == ab->isolate() &&
                            p.vm->reportFor(ab->isolate()).cpu_samples > 0;
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    out.attacker_stopped = waitUntil(5000, [&] {
      return ab->isolate()->stats.live_threads.load() == 0;
    });
  }
  out.victim_unaffected = work_done && out.attacker_stopped;
  out.detail = strf("attacker CPU samples: %llu; spin loop %s",
                    static_cast<unsigned long long>(
                        p.vm->reportFor(ab->isolate()).cpu_samples),
                    out.attacker_stopped ? "terminated" : "still running");
  (void)work_v;
  return out;
}

// ------------------------------------------------------------ A7

AttackOutcome attackA7(Platform& p) {
  AttackOutcome out;
  // Shared service interface.
  {
    ClassLoader* shared = p.fw->frameworkIsolate()->loader;
    if (shared->findLocal("api/Hang") == nullptr) {
      ClassBuilder cb("api/Hang", "", ACC_PUBLIC | ACC_INTERFACE);
      cb.abstractMethod("call", "()I");
      shared->define(cb.build());
    }
  }
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  {
    ClassBuilder cb("atk/HangImpl");
    cb.addInterface("api/Hang");
    auto& call = cb.method("call", "()I");
    // Thread.sleep("forever"); never returns to the caller.
    call.lconst(600000).invokestatic("java/lang/Thread", "sleep", "(J)V");
    call.iconst(0).ireturn();
    attacker.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("atk/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.aload(1).ldcStr("hang.svc");
    start.newDefault("atk/HangImpl");
    start.invokevirtual("osgi/BundleContext", "registerService",
                        "(Ljava/lang/String;Ljava/lang/Object;)V");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    attacker.classes.push_back(cb.build());
    attacker.activator = "atk/Activator";
  }
  BundleDescriptor victim;
  victim.symbolic_name = "victim";
  {
    ClassBuilder cb("vic/Caller");
    cb.field("svc", "Lapi/Hang;", ACC_PUBLIC | ACC_STATIC);
    auto& m = cb.method("callHang", "()I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    m.bind(from);
    m.getstatic("vic/Caller", "svc", "Lapi/Hang;");
    m.invokeinterface("api/Hang", "call", "()I");
    m.bind(to).ireturn();
    m.bind(handler).pop().iconst(-1).ireturn();
    m.handler(from, to, handler, "java/lang/Throwable");
    victim.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("vic/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.aload(1).ldcStr("hang.svc");
    start.invokevirtual("osgi/BundleContext", "getService",
                        "(Ljava/lang/String;)Ljava/lang/Object;");
    start.checkcast("api/Hang");
    start.putstatic("vic/Caller", "svc", "Lapi/Hang;");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    victim.classes.push_back(cb.build());
    victim.activator = "vic/Activator";
  }

  Bundle* ab = p.fw->install(std::move(attacker));
  Bundle* vb = p.fw->install(std::move(victim));
  p.fw->start(ab);
  p.fw->start(vb);

  PendingCall pc = p.callAsync(vb->loader(), "vic/Caller", "callHang", "()I", {});
  // The call hangs in both modes initially.
  bool hung = !pc.waitFor(300);

  out.attacker_identified =
      p.isolated_mode &&
      waitUntil(2000, [&] {
        return ab->isolate()->stats.sleeping_threads.load() > 0;
      });
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    // The victim was "prepared to catch the StoppedIsolateException":
    // execution must come back to it with -1.
    out.victim_unaffected =
        pc.waitFor(5000) && pc.value->load(std::memory_order_acquire) == -1;
    out.attacker_stopped = out.victim_unaffected;
  } else {
    out.victim_unaffected = pc.done->load(std::memory_order_acquire);
  }
  out.detail = strf("call into the bundle hung: %s; after kill control %s",
                    hung ? "yes" : "no",
                    out.victim_unaffected ? "returned to the caller"
                                          : "never returned");
  return out;
}

// ------------------------------------------------------------ A8

AttackOutcome attackA8(Platform& p) {
  AttackOutcome out;
  BundleDescriptor attacker;
  attacker.symbolic_name = "attacker";
  attacker.classes.push_back(makeRunnable("atk/Dos", [](MethodBuilder& run) {
    Label loop = run.newLabel();
    run.iconst(0).istore(1);
    run.bind(loop).iinc(1, 1).gotoLabel(loop);
  }));
  {
    // Attacker hands an internal object to whoever asks, then starts a DoS.
    ClassBuilder cb("atk/Internal");
    cb.field("secret", "I");
    attacker.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("atk/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.aload(1).ldcStr("internal.svc");
    start.newDefault("atk/Internal");
    start.invokevirtual("osgi/BundleContext", "registerService",
                        "(Ljava/lang/String;Ljava/lang/Object;)V");
    start.newObject("java/lang/Thread").dup();
    start.newDefault("atk/Dos");
    start.invokespecial("java/lang/Thread", "<init>", "(Ljava/lang/Runnable;)V");
    start.invokevirtual("java/lang/Thread", "start", "()V");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    attacker.classes.push_back(cb.build());
    attacker.activator = "atk/Activator";
  }
  Bundle* ab = p.fw->install(std::move(attacker));
  p.fw->start(ab);

  // The "victim" (here: framework-held reference standing for bundle A's
  // stored reference) keeps the internal object alive.
  Object* internal = p.fw->getService("internal.svc");
  GlobalRef* held =
      internal != nullptr
          ? p.vm->addGlobalRef(internal, p.fw->frameworkIsolate())
          : nullptr;

  sleepMs(100);  // let the DoS thread run
  out.attacker_stopped = p.killByIsolate(ab->isolate());
  if (out.attacker_stopped) {
    out.attacker_stopped = waitUntil(5000, [&] {
      return ab->isolate()->stats.live_threads.load() == 0;
    });
  }
  // The shared object is still alive while referenced...
  bool object_alive = false;
  p.vm->collectGarbage(p.vm->mainThread(), nullptr);
  p.vm->heap().forEachObject([&](Object* o) {
    if (o == internal) object_alive = true;
  });
  // ...but no code of the bundle can run anymore.
  out.victim_unaffected = out.attacker_stopped;
  out.attacker_identified = p.isolated_mode;
  out.detail = strf("DoS thread %s; shared object %s after kill",
                    out.attacker_stopped ? "terminated" : "still running",
                    object_alive ? "retained (still referenced)" : "reclaimed");
  if (held != nullptr) p.vm->removeGlobalRef(held);
  return out;
}

}  // namespace

AttackOutcome runAttack(AttackId id, bool isolated_mode, ExecEngine engine,
                        const VmOptionsTweak& tweak) {
  Platform p(isolated_mode, engine, tweak);
  AttackOutcome out;
  switch (id) {
    case AttackId::A1_StaticMutation:
      out = attackA1(p);
      break;
    case AttackId::A2_SharedLock:
      out = attackA2(p);
      break;
    case AttackId::A3_MemoryExhaustion:
      out = attackA3(p);
      break;
    case AttackId::A4_ExcessiveGc:
      out = attackA4(p);
      break;
    case AttackId::A5_ThreadCreation:
      out = attackA5(p);
      break;
    case AttackId::A6_InfiniteLoop:
      out = attackA6(p);
      break;
    case AttackId::A7_HangingThread:
      out = attackA7(p);
      break;
    case AttackId::A8_NoTermination:
      out = attackA8(p);
      break;
  }
  out.id = id;
  out.isolated_mode = isolated_mode;
  return out;
}

std::vector<AttackOutcome> runAllAttacks(bool isolated_mode, ExecEngine engine,
                                         const VmOptionsTweak& tweak) {
  std::vector<AttackOutcome> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(
        runAttack(static_cast<AttackId>(i), isolated_mode, engine, tweak));
  }
  return out;
}

}  // namespace ijvm
