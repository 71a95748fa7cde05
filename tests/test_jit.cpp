// The tier-3 baseline JIT (src/exec/jit.cpp, contract in docs/jit.md):
// promotion of hot methods to call-threaded compiled code, the
// deopt-to-fused fallback for cold (unquickened) sites, the governor's
// promote-to-JIT queue, and termination of a bundle spinning inside
// compiled code (entry-point patching + in-flight polls).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <regex>
#include <thread>

#include "admin/governor.h"
#include "bytecode/builder.h"
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

// The compilation-behavior tests assert that methods *do* compile, which
// the -DIJVM_DISABLE_JIT build compiles out by design.
#ifdef IJVM_DISABLE_JIT
#define IJVM_REQUIRE_JIT() GTEST_SKIP() << "built with IJVM_DISABLE_JIT"
#else
#define IJVM_REQUIRE_JIT() (void)0
#endif

VmOptions jitOptions() {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Jit;
  opts.fusion_threshold = 0;
  opts.jit_threshold = 0;  // compile at the first warmed+fused entry
  // Synchronous compiles (docs/jit.md, "Code lifecycle"): these tests pin
  // *when* promotion takes effect, so the deterministic fallback is the
  // configuration under test. The background path has its own suite
  // (test_code_cache.cpp) and rides the randomized equivalence sweep.
  opts.background_compile = false;
  return opts;
}

struct JitVm {
  explicit JitVm(VmOptions opts = jitOptions()) : vm(opts) {
    installSystemLibrary(vm);
    app = vm.registry().newLoader("app");
  }
  void boot() { vm.createIsolate(app, "app"); }

  JMethod* method(const std::string& cls, const std::string& name,
                  const std::string& desc) {
    JClass* c = vm.registry().resolve(app, cls);
    return c == nullptr ? nullptr : c->findMethod(name, desc);
  }

  Value call(const std::string& cls, const std::string& name,
             const std::string& desc, std::vector<Value> args) {
    Value r = vm.callStaticIn(vm.mainThread(), app, cls, name, desc,
                              std::move(args));
    EXPECT_EQ(vm.mainThread()->pending_exception, nullptr)
        << vm.pendingMessage(vm.mainThread());
    return r;
  }

  VM vm;
  ClassLoader* app = nullptr;
};

// sum = 0; for (i = 0; i < n; i++) sum = sum + i; return sum
// Loop head, body triple + store, and latch -- all compile to single
// thunks (the body via the jit-only arith+store peephole).
void defineLoopClass(ClassBuilder& cb) {
  auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label head = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(1);
  m.iconst(0).istore(2);
  m.bind(head).iload(2).iload(0).ifIcmpGe(done);
  m.iload(1).iload(2).iadd().istore(1);
  m.iinc(2, 1).gotoLabel(head);
  m.bind(done).iload(1).ireturn();
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

TEST(Jit, HotLoopCompilesToCallThreadedCode) {
  IJVM_REQUIRE_JIT();
  JitVm f;
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();

  // Call 1 quickens + warms; call 2 fuses (complete pass) and compiles at
  // the same entry, then runs the compiled code.
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);

  JMethod* m = f.method("app/Loop", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_NE(exec::jitCodeOf(m), nullptr);

  std::string dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("compiled call-threaded"), std::string::npos) << dis;
  EXPECT_NE(dis.find("-> t"), std::string::npos) << dis;
  // Fused groups compile to single thunks and the arith+store peephole
  // fires (CompilesWithFusionDisabled covers the unfused stream).
  EXPECT_NE(dis.find("ILOAD_ILOAD_IF_ICMPGE_F"), std::string::npos) << dis;
  EXPECT_NE(dis.find("ILOAD_ILOAD_ARITH_ISTORE_J"), std::string::npos) << dis;
  EXPECT_NE(dis.find("IINC_GOTO_F"), std::string::npos) << dis;

  // Compiled semantics stay exact across sizes (including the 0-trip loop).
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(0)}).asInt(), 0);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(1000)}).asInt(),
            499500);
}

TEST(Jit, DefaultThresholdLeavesColdMethodsUncompiled) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = VmOptions::isolated();  // defaults: Jit, threshold 2048
  JitVm f(opts);
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(10)}).asInt(), 45);
  }
  JMethod* m = f.method("app/Loop", "f", "(I)I");
  EXPECT_EQ(exec::jitCodeOf(m), nullptr);
  EXPECT_EQ(exec::disasmJit(f.vm, m), "");
}

TEST(Jit, CompilesWithFusionDisabled) {
  IJVM_REQUIRE_JIT();
  // The runtime fusion off-switch must not disable tier 3: the compiler
  // then binds the plain quickened stream (one thunk per instruction).
  VmOptions opts = jitOptions();
  opts.fusion = false;
  JitVm f(opts);
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);
  JMethod* m = f.method("app/Loop", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
  // No fused form reaches the compiled code: every thunk binds a plain
  // quickened (or JIT-peephole) instruction, never a `*_F` superinstruction.
  const std::string dis = exec::disasmJit(f.vm, m);
  std::smatch fused;
  EXPECT_FALSE(std::regex_search(dis, fused, std::regex(R"(\w+_F\b)")))
      << "fused form " << fused.str() << " with fusion=false:\n" << dis;
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(1000)}).asInt(),
            499500);
}

TEST(Jit, QuickenedEngineNeverCompiles) {
  VmOptions opts = jitOptions();
  opts.exec_engine = ExecEngine::Quickened;  // tiers 0-2 only
  JitVm f(opts);
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(50)}).asInt(), 1225);
  }
  EXPECT_EQ(exec::jitCodeOf(f.method("app/Loop", "f", "(I)I")), nullptr);
}

TEST(Jit, ColdPathDeoptsThenRecompileCoversIt) {
  IJVM_REQUIRE_JIT();
  JitVm f;
  {
    // f(flag): flag != 0 ? T.s : 42 -- the getstatic arm stays cold (never
    // quickens) while the method gets hot on the other arm, so the first
    // compile plants a deopt thunk there.
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

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(0)}).asInt(), 42);
  }
  JMethod* m = f.method("app/T", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  std::string dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("DEOPT"), std::string::npos)
      << "cold getstatic should compile as a deopt site:\n"
      << dis;

  // Taking the cold path deopts to the interpreter (which resolves the
  // static and returns the right value) and invalidates the compiled code.
  EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(1)}).asInt(), 77);
  EXPECT_EQ(exec::jitCodeOf(m), nullptr);
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_GE(qc->jit_deopts.load(), 1u);

  // The method re-promotes at its next entry; the recompile binds the
  // now-quickened site directly -- no further deopts on either path.
  EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(1)}).asInt(), 77);
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("app/T.s"), std::string::npos) << dis;
  const u32 deopts_after_recompile = qc->jit_deopts.load();
  EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(0)}).asInt(), 42);
  EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(1)}).asInt(), 77);
  EXPECT_EQ(qc->jit_deopts.load(), deopts_after_recompile);
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
}

TEST(Jit, ExceptionInCompiledCodeDispatchesToHandler) {
  IJVM_REQUIRE_JIT();
  JitVm f;
  {
    // Hot loop; on the last iteration divide by zero, caught locally.
    ClassBuilder cb("app/Exc");
    auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1);
    m.bind(head).iload(1).iload(0).ifIcmpGe(done);
    m.iinc(1, 1).gotoLabel(head);
    m.bind(done);
    m.bind(from).iload(1).iconst(0).idiv().ireturn();
    m.bind(to);
    m.bind(handler).pop().iload(1).ireturn();
    m.handler(from, to, handler, "java/lang/ArithmeticException");
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.call("app/Exc", "f", "(I)I", {Value::ofInt(500)}).asInt(), 500);
  }
  EXPECT_NE(exec::jitCodeOf(f.method("app/Exc", "f", "(I)I")), nullptr);
}

TEST(Jit, GovernorPromoteJitQueueCompilesHotBundle) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Jit;
  opts.background_compile = false;  // pin *when* the queue compiles
  // Engine's own hotness promotion effectively off: only the governor's
  // queue can get this method compiled.
  opts.jit_threshold = ~0ull;
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* micro = fw.install(makeMicroBundle("hot"));
  fw.start(micro);

  GovernorPolicy policy;
  policy.rules.push_back({Signal::LoopBackEdgeRate, 1000.0, 1,
                          GovernorAction::PromoteJit, "hot-loop"});
  policy.gc_if_allocated_bytes = 0;
  policy.jit_promote_min_hotness = 100;
  ResourceGovernor gov(fw, policy);

  JThread* t = vm.mainThread();
  auto burn = [&] {
    for (int i = 0; i < 50; ++i) {
      vm.callStaticIn(t, micro->loader(), "micro/Bench", "spinFor", "(I)I",
                      {Value::ofInt(500)});
      ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
    }
  };
  JMethod* spin = vm.registry()
                      .resolve(micro->loader(), "micro/Bench")
                      ->findMethod("spinFor", "(I)I");
  ASSERT_NE(spin, nullptr);

  bool promoted = false;
  for (int round = 0; round < 4 && !promoted; ++round) {
    burn();
    for (const GovernorEvent& ev : gov.tick()) {
      promoted |= ev.action == GovernorAction::PromoteJit && ev.acted &&
                  ev.bundle_id == micro->id();
    }
  }
  ASSERT_TRUE(promoted) << "hot bundle not promoted by the governor";
  EXPECT_EQ(exec::jitCodeOf(spin), nullptr) << "compilation happens at entry";

  // The next entry drains the promote-to-JIT queue and compiles.
  vm.callStaticIn(t, micro->loader(), "micro/Bench", "spinFor", "(I)I",
                  {Value::ofInt(500)});
  ASSERT_EQ(t->pending_exception, nullptr);
  EXPECT_NE(exec::jitCodeOf(spin), nullptr);
  // And the freshly compiled code actually runs (and agrees).
  Value r = vm.callStaticIn(t, micro->loader(), "micro/Bench", "spinFor",
                            "(I)I", {Value::ofInt(500)});
  ASSERT_EQ(t->pending_exception, nullptr);
  (void)r;
  vm.shutdownAllThreads();
}

TEST(Jit, TerminationStopsBundleSpinningInCompiledCode) {
  IJVM_REQUIRE_JIT();
  VmOptions opts = jitOptions();
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);

  // Bundle: spin(n) is a bounded loop; the activator spawns a thread
  // calling spin(50000) forever, so after the first call the thread
  // executes almost entirely inside tier-3 compiled code.
  BundleDescriptor desc;
  desc.symbolic_name = "spinner";
  {
    ClassBuilder cb("sp/Main");
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
    ClassBuilder cb("sp/Spin");
    cb.addInterface("java/lang/Runnable");
    auto& run = cb.method("run", "()V");
    Label loop = run.newLabel();
    run.bind(loop);
    run.iconst(50000).invokestatic("sp/Main", "spin", "(I)I").pop();
    run.gotoLabel(loop);
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("sp/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.newObject("java/lang/Thread").dup();
    start.newDefault("sp/Spin");
    start.invokespecial("java/lang/Thread", "<init>", "(Ljava/lang/Runnable;)V");
    start.invokevirtual("java/lang/Thread", "start", "()V");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    desc.classes.push_back(cb.build());
  }
  desc.activator = "sp/Activator";

  Bundle* b = fw.install(std::move(desc));
  fw.start(b);

  JMethod* spin = vm.registry()
                      .resolve(b->loader(), "sp/Main")
                      ->findMethod("spin", "(I)I");
  ASSERT_NE(spin, nullptr);
  // The spinning thread itself promotes and compiles spin() at its second
  // entry.
  ASSERT_TRUE(waitUntil(5000, [&] { return exec::jitCodeOf(spin) != nullptr; }))
      << "spin() was never compiled";

  // Kill the bundle: the compiled entry point is patched (paper: patching
  // compiled-method entry points) and the thread inside compiled code is
  // interrupted at its next back-edge poll.
  fw.killBundle(b);
  EXPECT_TRUE(waitUntil(5000, [&] {
    return b->isolate()->stats.live_threads.load() == 0;
  })) << "spinning thread survived termination";

  std::string dis = exec::disasmJit(vm, spin);
  EXPECT_NE(dis.find("entry POISONED"), std::string::npos) << dis;

  // Re-entry is refused: both the poisoned-method barrier and the patched
  // compiled entry raise StoppedIsolateException.
  JThread* t = vm.mainThread();
  vm.callStaticIn(t, b->loader(), "sp/Main", "spin", "(I)I",
                  {Value::ofInt(10)});
  ASSERT_NE(t->pending_exception, nullptr);
  EXPECT_NE(vm.pendingMessage(t).find("StoppedIsolate"), std::string::npos);
  vm.clearPending(t);
  vm.shutdownAllThreads();
}

TEST(Jit, SharedVCallICAcrossTiers) {
  IJVM_REQUIRE_JIT();
  // A compiled caller must drive the *same* inline cache the interpreter
  // installed: after compilation, alternating two receivers keeps hitting
  // the 2-entry polymorphic cache without allocating new entries.
  JitVm f;
  {
    ClassBuilder base("app/Base");
    auto& m = base.method("tag", "()I", ACC_PUBLIC);
    m.iconst(0).ireturn();
    f.app->define(base.build());
  }
  for (int k = 1; k <= 2; ++k) {
    ClassBuilder sub("app/Sub" + std::to_string(k), "app/Base");
    auto& m = sub.method("tag", "()I", ACC_PUBLIC);
    m.iconst(k).ireturn();
    f.app->define(sub.build());
  }
  {
    ClassBuilder cb("app/Drive");
    auto& m = cb.method("call", "(Lapp/Base;)I", ACC_PUBLIC | ACC_STATIC);
    m.aload(0).invokevirtual("app/Base", "tag", "()I").ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  JThread* t = f.vm.mainThread();
  auto callWith = [&](int k) {
    JClass* cls = f.vm.registry().resolve(f.app, "app/Sub" + std::to_string(k));
    Object* obj = f.vm.allocObject(t, cls);
    Value r = f.vm.callStaticIn(t, f.app, "app/Drive", "call", "(Lapp/Base;)I",
                                {Value::ofRef(obj)});
    EXPECT_EQ(t->pending_exception, nullptr) << f.vm.pendingMessage(t);
    return r.asInt();
  };

  // Warm + compile with both receivers in the cache.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(callWith(1), 1);
    EXPECT_EQ(callWith(2), 2);
  }
  JMethod* drive = f.method("app/Drive", "call", "(Lapp/Base;)I");
  ASSERT_NE(exec::jitCodeOf(drive), nullptr);

  auto st = std::static_pointer_cast<exec::ExecState>(
      f.vm.getExtension(exec::kStateKey));
  ASSERT_NE(st, nullptr);
  const size_t entries_before = st->vcall_ics.size();
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(callWith(1), 1);
    EXPECT_EQ(callWith(2), 2);
  }
  EXPECT_EQ(st->vcall_ics.size(), entries_before)
      << "compiled dispatch must hit the shared 2-entry polymorphic IC";
}

}  // namespace
}  // namespace ijvm
