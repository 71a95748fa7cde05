// On-stack replacement into the tier-3 JIT (src/exec/jit.cpp, contract in
// docs/jit.md "On-stack replacement"): a method that crosses jit_threshold
// *inside* one invocation is compiled at a loop back-edge batch flush and
// the live frame transfers into the compiled code without returning to the
// caller. Covered here:
//   * OSR fires mid-invocation (single long call crossing the threshold),
//     observable via profile counters (QCode::osr_entries_taken,
//     profile_invocations == 1) and disasmJit's OSR entry thunks;
//   * locals + operand stack transfer exactly (golden-value loop with a
//     live value parked on the operand stack across the back-edge);
//   * OSR + deopt round-trip (OSR into code whose post-loop tail was cold
//     at compile time, falling back to the interpreter and recompiling at
//     the next entry);
//   * terminateIsolate kills a bundle spinning in OSR'd code, poisons the
//     OSR entries, and refuses re-entry;
//   * PromoteJit-while-spinning promotion requests are idempotent per
//     method (the governor-requeue regression fix);
//   * the osr=false runtime switch keeps everything at the fused tier,
//     and makes promotion entry-only: a frame spinning in one call never
//     transfers onto code compiled while it runs.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "bytecode/builder.h"
#include "exec/engine.h"
#include "exec/jit.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "osgi/framework.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"

namespace ijvm {
namespace {

// OSR-behavior tests assert that compilation happens mid-invocation, which
// the -DIJVM_DISABLE_JIT build compiles out.
#ifdef IJVM_DISABLE_JIT
#define IJVM_REQUIRE_OSR() GTEST_SKIP() << "built with IJVM_DISABLE_JIT"
#else
#define IJVM_REQUIRE_OSR() (void)0
#endif

VmOptions osrOptions() {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Jit;
  // Production-shaped thresholds: the method must get hot *inside* the
  // invocation (at a 4096-edge batch flush), not at entry.
  opts.fusion_threshold = 256;
  opts.jit_threshold = 2048;
  // Synchronous compiles: this suite pins the exact flush at which the
  // frame transfers, which the background path intentionally decouples
  // (docs/jit.md, "Code lifecycle").
  opts.background_compile = false;
  return opts;
}

struct OsrVm {
  explicit OsrVm(VmOptions opts = osrOptions()) : vm(opts) {
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

exec::QCode* qcodeOf(JMethod* m) {
  return static_cast<exec::QCode*>(m->qcode.load());
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

// sum = 0; for (i = 0; i < n; i++) sum += i; return sum
void defineSumLoop(ClassBuilder& cb) {
  auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
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

TEST(Osr, FiresMidInvocationOnSingleHotCall) {
  IJVM_REQUIRE_OSR();
  OsrVm f;
  {
    ClassBuilder cb("app/Loop");
    defineSumLoop(cb);
    f.app->define(cb.build());
  }
  f.boot();

  // ONE call, long enough to cross jit_threshold (2048) at the first
  // 4096-edge batch flush. The invocation must finish in compiled code.
  const i32 n = 100000;
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(n)}).asInt(),
            goldenSum(n));

  JMethod* m = f.method("app/Loop", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  // Compiled during the single invocation: invocation counter still 1.
  EXPECT_EQ(m->profile_invocations.load(), 1u);
  ASSERT_NE(exec::jitCodeOf(m), nullptr)
      << "single hot call should have compiled mid-invocation";
  exec::QCode* qc = qcodeOf(m);
  ASSERT_NE(qc, nullptr);
  EXPECT_GE(qc->osr_entries_taken.load(), 1u)
      << "the invocation should have transferred onto an OSR entry";

  // The tier transition is visible in the disassembly: OSR entry thunks
  // per loop header, and fused thunks -- the fused-interpreter ->
  // compiled story of docs/jit.md.
  std::string dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("osr@pc"), std::string::npos) << dis;
  EXPECT_NE(dis.find("OSR_ENTRY"), std::string::npos) << dis;
  EXPECT_NE(dis.find("ILOAD_ILOAD_IF_ICMPGE_F"), std::string::npos) << dis;

  // Later calls (now via the compiled entry) stay exact, 0-trip included.
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(0)}).asInt(), 0);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(1000)}).asInt(),
            goldenSum(1000));
}

TEST(Osr, LocalsAndOperandStackTransferExactly) {
  IJVM_REQUIRE_OSR();
  OsrVm f;
  {
    // A value is parked on the operand stack *across* the loop (depth 1 at
    // the header), and the loop carries an int and a long local -- all of
    // it must transfer bit-exactly into the raw JIT stack at OSR.
    ClassBuilder cb("app/Gold");
    auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(12345);             // parked: consumed only after the loop
    m.iconst(0).istore(1);       // sum
    m.lconst(1).lstore(3);       // lacc
    m.iconst(0).istore(2);       // i
    m.bind(head).iload(2).iload(0).ifIcmpGe(done);
    m.iload(1).iconst(31).imul().iload(2).iadd().istore(1);
    m.lload(3).iload(2).i2l().ladd().lstore(3);
    m.iinc(2, 1).gotoLabel(head);
    m.bind(done).iload(1).iadd();  // 12345 + sum
    m.lload(3).l2i().ixor();       // ^ (int)lacc
    m.ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  const i32 n = 60000;
  u32 sum = 0;
  u64 lacc = 1;
  for (u32 i = 0; i < static_cast<u32>(n); ++i) {
    sum = sum * 31u + i;
    lacc += i;
  }
  const i32 golden =
      static_cast<i32>((12345u + sum) ^ static_cast<u32>(lacc));

  EXPECT_EQ(f.call("app/Gold", "f", "(I)I", {Value::ofInt(n)}).asInt(), golden);

  JMethod* m = f.method("app/Gold", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->profile_invocations.load(), 1u);
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  exec::QCode* qc = qcodeOf(m);
  ASSERT_NE(qc, nullptr);
  EXPECT_GE(qc->osr_entries_taken.load(), 1u);
  // The OSR entry map records the nonzero operand depth of the header.
  std::string dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("depth=1"), std::string::npos) << dis;
}

TEST(Osr, DeoptRoundTripAfterOsr) {
  IJVM_REQUIRE_OSR();
  OsrVm f;
  {
    // The post-loop tail reads a static that cannot have quickened when
    // the mid-invocation compile runs (this is the method's FIRST
    // invocation): the tail compiles as a deopt thunk, so leaving the loop
    // falls back into the interpreter, which resolves the static and
    // finishes -- the OSR -> deopt -> interpreter round-trip.
    ClassBuilder cb("app/Tail");
    cb.field("s", "I", ACC_PUBLIC | ACC_STATIC);
    auto& clinit = cb.method("<clinit>", "()V", ACC_STATIC);
    clinit.iconst(77).putstatic("app/Tail", "s", "I").ret();
    auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1);
    m.iconst(0).istore(2);
    m.bind(head).iload(2).iload(0).ifIcmpGe(done);
    m.iload(1).iload(2).iadd().istore(1);
    m.iinc(2, 1).gotoLabel(head);
    m.bind(done).iload(1).getstatic("app/Tail", "s", "I").iadd().ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  const i32 n = 100000;
  EXPECT_EQ(f.call("app/Tail", "f", "(I)I", {Value::ofInt(n)}).asInt(),
            goldenSum(n) + 77);

  JMethod* m = f.method("app/Tail", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  exec::QCode* qc = qcodeOf(m);
  ASSERT_NE(qc, nullptr);
  EXPECT_GE(qc->osr_entries_taken.load(), 1u) << "OSR should have fired";
  EXPECT_GE(qc->jit_deopts.load(), 1u) << "cold tail should have deopted";
  EXPECT_EQ(exec::jitCodeOf(m), nullptr)
      << "deopt should have invalidated the OSR'd code";

  // Next entry recompiles with the now-quickened tail bound directly; no
  // further deopts on the steady state.
  EXPECT_EQ(f.call("app/Tail", "f", "(I)I", {Value::ofInt(n)}).asInt(),
            goldenSum(n) + 77);
  ASSERT_NE(exec::jitCodeOf(m), nullptr);
  const u32 deopts = qc->jit_deopts.load();
  EXPECT_EQ(f.call("app/Tail", "f", "(I)I", {Value::ofInt(1000)}).asInt(),
            goldenSum(1000) + 77);
  EXPECT_EQ(qc->jit_deopts.load(), deopts);
  std::string dis = exec::disasmJit(f.vm, m);
  EXPECT_NE(dis.find("app/Tail.s"), std::string::npos) << dis;
}

// A bundle whose activator spawns a thread that makes ONE call into an
// infinite loop: the only way that thread ever reaches compiled code is
// on-stack replacement.
BundleDescriptor spinnerBundle() {
  BundleDescriptor desc;
  desc.symbolic_name = "osr-spinner";
  {
    ClassBuilder cb("sp/Main");
    auto& m = cb.method("spinForever", "()I", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(1).istore(0);
    m.bind(head).iload(0).ifeq(done);  // never true
    m.iconst(1).istore(0);
    m.gotoLabel(head);
    m.bind(done).iload(0).ireturn();
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("sp/Spin");
    cb.addInterface("java/lang/Runnable");
    auto& run = cb.method("run", "()V");
    run.invokestatic("sp/Main", "spinForever", "()I").pop();
    run.ret();
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
  return desc;
}

TEST(Osr, TerminateIsolateKillsBundleSpinningInOsrCode) {
  IJVM_REQUIRE_OSR();
  VmOptions opts = osrOptions();
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* b = fw.install(spinnerBundle());
  fw.start(b);

  JMethod* spin = vm.registry()
                      .resolve(b->loader(), "sp/Main")
                      ->findMethod("spinForever", "()I");
  ASSERT_NE(spin, nullptr);

  // The spinning thread never returns from its single call, so reaching
  // compiled code proves the fused frame was on-stack-replaced.
  ASSERT_TRUE(waitUntil(5000, [&] {
    exec::QCode* qc = qcodeOf(spin);
    return exec::jitCodeOf(spin) != nullptr && qc != nullptr &&
           qc->osr_entries_taken.load() >= 1;
  })) << "spinForever() never OSR'd into compiled code";
  EXPECT_EQ(spin->profile_invocations.load(), 1u);

  // Kill the bundle: entry + OSR entry points are patched under
  // stop-the-world, and the thread inside compiled code is interrupted at
  // its next back-edge poll -- the paper's patched-entry-point design
  // exercised on the hottest real path.
  fw.killBundle(b);
  EXPECT_TRUE(waitUntil(5000, [&] {
    return b->isolate()->stats.live_threads.load() == 0;
  })) << "thread spinning in OSR'd code survived termination";

  std::string dis = exec::disasmJit(vm, spin);
  EXPECT_NE(dis.find("entry POISONED"), std::string::npos) << dis;
  const size_t osr_pos = dis.find("osr@pc");
  ASSERT_NE(osr_pos, std::string::npos) << dis;
  EXPECT_NE(dis.find("POISONED", osr_pos), std::string::npos)
      << "OSR entries must be poisoned too:\n"
      << dis;

  // Re-entry is refused at every door.
  JThread* t = vm.mainThread();
  vm.callStaticIn(t, b->loader(), "sp/Main", "spinForever", "()I", {});
  ASSERT_NE(t->pending_exception, nullptr);
  EXPECT_NE(vm.pendingMessage(t).find("StoppedIsolate"), std::string::npos);
  vm.clearPending(t);
  vm.shutdownAllThreads();
}

TEST(Osr, GovernorPromoteJitWhileSpinningIsIdempotent) {
  IJVM_REQUIRE_OSR();
  // Engine self-promotion off: only PromoteJit-style queue requests can
  // compile. The regression (docs/jit.md "Promotion"): a method promoted
  // while already executing must compile exactly once -- not once per
  // back-edge batch flush, and re-fired promotion requests for an
  // already-compiled method must be no-ops.
  VmOptions opts = osrOptions();
  opts.jit_threshold = ~0ull;
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* b = fw.install(spinnerBundle());
  fw.start(b);

  JMethod* spin = vm.registry()
                      .resolve(b->loader(), "sp/Main")
                      ->findMethod("spinForever", "()I");
  ASSERT_NE(spin, nullptr);
  ASSERT_TRUE(waitUntil(5000, [&] {
    return spin->profile_loop_edges.load() > 8192;
  })) << "spinner never got going";
  EXPECT_EQ(exec::jitCodeOf(spin), nullptr) << "self-promotion should be off";

  // The governor's PromoteJit action, fired mid-spin.
  exec::enqueueLoaderForJit(vm, b->loader(), /*min_hotness=*/0);
  ASSERT_TRUE(waitUntil(5000, [&] {
    exec::QCode* qc = qcodeOf(spin);
    return exec::jitCodeOf(spin) != nullptr && qc != nullptr &&
           qc->osr_entries_taken.load() >= 1;
  })) << "PromoteJit request was not serviced at the spinning back-edge";

  auto st = std::static_pointer_cast<exec::ExecState>(
      vm.getExtension(exec::kStateKey));
  ASSERT_NE(st, nullptr);
  // Let any stragglers from the first request compile, then snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const size_t codes_after_first = [&] {
    std::lock_guard<std::mutex> lock(st->mutex);
    return st->jit_codes.size();
  }();

  // Re-fire the promotion every "tick" across thousands of batch flushes:
  // no JitCode may be rebuilt.
  for (int tick = 0; tick < 10; ++tick) {
    exec::enqueueLoaderForJit(vm, b->loader(), /*min_hotness=*/0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    EXPECT_EQ(st->jit_codes.size(), codes_after_first)
        << "repeated PromoteJit requests recompiled an already-compiled "
           "method";
  }

  fw.killBundle(b);
  EXPECT_TRUE(waitUntil(5000, [&] {
    return b->isolate()->stats.live_threads.load() == 0;
  }));
  vm.shutdownAllThreads();
}

TEST(Osr, RuntimeSwitchOffStaysAtFusedTier) {
  // Runs in every build flavor: with osr=false a single hot call must
  // finish in the interpreter tiers.
  VmOptions opts = osrOptions();
  opts.osr = false;
  OsrVm f(opts);
  {
    ClassBuilder cb("app/Loop");
    defineSumLoop(cb);
    f.app->define(cb.build());
  }
  f.boot();

  const i32 n = 100000;
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(n)}).asInt(),
            goldenSum(n));
  JMethod* m = f.method("app/Loop", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(exec::jitCodeOf(m), nullptr)
      << "osr=false must not compile mid-invocation";
  if (exec::QCode* qc = qcodeOf(m)) {
    EXPECT_EQ(qc->osr_entries_taken.load(), 0u);
  }
#if !defined(IJVM_DISABLE_JIT)
  // The entry-promotion path is untouched by the switch: the second call
  // compiles at entry as before.
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(n)}).asInt(),
            goldenSum(n));
  EXPECT_NE(exec::jitCodeOf(m), nullptr);
#endif
}

TEST(Osr, RuntimeSwitchOffIsEntryOnlyForASpinningFrame) {
  IJVM_REQUIRE_OSR();
  // Entry-only promotion: with osr=false, a PromoteJit request for a
  // bundle spinning inside one call still compiles the method at the next
  // drain point (any method entry), but the running frame's back-edge
  // flushes never transfer onto that code.
  VmOptions opts = osrOptions();
  opts.osr = false;
  opts.jit_threshold = ~0ull;  // only the explicit request compiles
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* b = fw.install(spinnerBundle());
  fw.start(b);

  JMethod* spin = vm.registry()
                      .resolve(b->loader(), "sp/Main")
                      ->findMethod("spinForever", "()I");
  ASSERT_NE(spin, nullptr);
  ASSERT_TRUE(waitUntil(5000, [&] {
    return spin->profile_loop_edges.load() > 8192;
  })) << "spinner never got going";

  exec::enqueueLoaderForJit(vm, b->loader(), /*min_hotness=*/0);
  // A method entry on another thread is the drain point.
  ClassLoader* app = vm.registry().newLoader("app");
  vm.createIsolate(app, "app");
  {
    ClassBuilder cb("app/Loop");
    defineSumLoop(cb);
    app->define(cb.build());
  }
  EXPECT_EQ(vm.callStaticIn(vm.mainThread(), app, "app/Loop", "f", "(I)I",
                            {Value::ofInt(10)})
                .asInt(),
            goldenSum(10));
  ASSERT_NE(exec::jitCodeOf(spin), nullptr)
      << "the entry drain should have compiled the spinning method";

  // Many more batch flushes (4096 edges each) run past the installed code.
  const u64 edges = spin->profile_loop_edges.load();
  ASSERT_TRUE(waitUntil(5000, [&] {
    return spin->profile_loop_edges.load() > edges + 8 * 4096;
  }));
  exec::QCode* qc = qcodeOf(spin);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->osr_entries_taken.load(), 0u)
      << "osr=false must not transfer a running frame";
  EXPECT_EQ(spin->profile_invocations.load(), 1u);

  fw.killBundle(b);
  EXPECT_TRUE(waitUntil(5000, [&] {
    return b->isolate()->stats.live_threads.load() == 0;
  })) << "thread spinning in the interpreter survived termination";
  vm.shutdownAllThreads();
}

// Regression for the ResourceStats observability item (ROADMAP): a
// refused OSR transfer -- compiled code exists, but the live frame cannot
// enter it at the flushed loop header -- must be counted per method and
// per isolate instead of silently interpreting on.
//
// The hand-crafted stream (the only known way to provoke a refusal): the
// loop header is reachable at depth 0 on the fast path, but the executing
// path parks an extra value on the operand stack across the whole loop.
// The method is compiled *mid-invocation* by a native trigger while the
// cold call after it has not quickened yet, so the depth analysis never
// sees the deep path (the call is compile-terminal) and the entry map
// records depth 0 -- every subsequent back-edge batch flush then offers a
// depth-1 frame and is refused. The bytecode fails stack-height merging
// (depth 0 vs 1 at the header), so the verifier is off: this shape cannot
// come from verified code, which is exactly why the ROADMAP called it
// "never observed outside hand-crafted streams".
TEST(Osr, RefusedTransferIsCountedInResourceStats) {
  IJVM_REQUIRE_OSR();
  VmOptions opts = osrOptions();
  opts.verify = false;
  OsrVm f(opts);
  {
    ClassBuilder cb("app/T");
    cb.nativeMethod("trigger", "()V", ACC_STATIC);
    auto& cold = cb.method("coldPush", "()I", ACC_PUBLIC | ACC_STATIC);
    cold.iconst(7).ireturn();
    auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
    Label fast = m.newLabel(), head = m.newLabel();
    m.iload(0).ifeq(fast);                       // n == 0: enter at depth 0
    m.invokestatic("app/T", "trigger", "()V");   // compiles f right here
    m.invokestatic("app/T", "coldPush", "()I");  // cold at compile time
    m.gotoLabel(head);                           // enter loop at depth 1
    m.bind(fast);
    m.bind(head);
    m.iinc(1, 1);
    m.iload(1).iload(0).ifIcmpLt(head);  // back-edge; flushes try OSR
    m.iload(1).ireturn();                // parked value discarded with frame
    f.app->define(cb.build());
  }
  f.boot();
  JMethod* fm = f.method("app/T", "f", "(I)I");
  JMethod* trig = f.method("app/T", "trigger", "()V");
  ASSERT_NE(fm, nullptr);
  ASSERT_NE(trig, nullptr);
  trig->native = [fm](NativeCtx& ctx) -> Value {
    exec::enqueueForJit(ctx.vm, fm);
    exec::drainJitQueue(ctx.vm);  // synchronous: code exists on return
    return {};
  };

  const i32 n = 3 * 4096 + 512;  // several batch flushes inside the loop
  EXPECT_EQ(f.call("app/T", "f", "(I)I", {Value::ofInt(n)}).asInt(), n);

  // Compiled at the trigger, never entered, never invalidated -- and every
  // flush refused the transfer.
  ASSERT_NE(exec::jitCodeOf(fm), nullptr);
  exec::QCode* qc = qcodeOf(fm);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->osr_entries_taken.load(), 0u);
  EXPECT_GE(qc->osr_refused_transfers.load(), 3u);
  std::string dis = exec::disasmJit(f.vm, fm);
  EXPECT_NE(dis.find("depth=0"), std::string::npos) << dis;

  Isolate* iso = f.vm.isolateById(0);
  ASSERT_NE(iso, nullptr);
  EXPECT_GE(iso->stats.osr_refused_transfers.load(), 3u);
  EXPECT_EQ(f.vm.reportFor(iso).osr_refused_transfers,
            iso->stats.osr_refused_transfers.load());
}

}  // namespace
}  // namespace ijvm
