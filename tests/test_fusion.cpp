// The fusion execution tier (src/exec/fuse.cpp) and the polymorphic
// inline caches: hot adjacent pairs/triples must fuse into
// superinstructions with unchanged semantics, fusion must respect branch
// targets and the off switches, and virtual call sites must walk the
// documented mono -> 2-entry poly -> megamorphic state machine
// (docs/execution-tiers.md).
#include <gtest/gtest.h>

#include "admin/governor.h"
#include "bytecode/builder.h"
#include "exec/engine.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

VmOptions fusedOptions() {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Quickened;
  opts.fusion_threshold = 0;  // force the tier on at the first opportunity
  return opts;
}

struct FusionVm {
  explicit FusionVm(VmOptions opts = fusedOptions()) : vm(opts) {
    installSystemLibrary(vm);
    app = vm.registry().newLoader("app");
  }
  // Isolate creation is deferred so tests can define classes first.
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

// sum = 0; for (i = 0; i < n; i++) sum = sum + i * 2(via locals); return sum
// Shape: the loop head is ILOAD/ILOAD/IF_ICMPGE, the body has an
// ILOAD/ILOAD/IADD triple and the latch is IINC/GOTO -- all four fusible
// patterns the Figure-1 loops exercise.
void defineLoopClass(ClassBuilder& cb) {
  auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label head = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(1);  // sum
  m.iconst(0).istore(2);  // i
  m.bind(head).iload(2).iload(0).ifIcmpGe(done);
  m.iload(1).iload(2).iadd().istore(1);
  m.iinc(2, 1).gotoLabel(head);
  m.bind(done).iload(1).ireturn();
}

TEST(Fusion, HotPairsAndTriplesFuse) {
  FusionVm f;
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();

  // First call quickens, second call crosses the (zero) threshold at entry
  // and fuses; both must compute the same sum.
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(100)}).asInt(), 4950);

  JMethod* m = f.method("app/Loop", "f", "(I)I");
  ASSERT_NE(m, nullptr);
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_TRUE(qc->fusion_done.load());
  EXPECT_GE(qc->fused_groups, 3u);

  std::string dis = exec::disasmQuickened(f.vm, m);
  EXPECT_NE(dis.find("ILOAD_ILOAD_IF_ICMPGE_F"), std::string::npos) << dis;
  EXPECT_NE(dis.find("ILOAD_ILOAD_IADD_F"), std::string::npos) << dis;
  EXPECT_NE(dis.find("IINC_GOTO_F"), std::string::npos) << dis;
  EXPECT_NE(dis.find("in fused group"), std::string::npos) << dis;

  // Fused semantics stay exact across sizes (including the 0-trip loop).
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(0)}).asInt(), 0);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(1000)}).asInt(),
            499500);
}

TEST(Fusion, AloadGetfieldFusesAfterQuickening) {
  FusionVm f;
  {
    ClassBuilder cb("app/Box");
    cb.field("x", "I", ACC_PUBLIC);
    auto& m = cb.method("get", "(Lapp/Box;)I", ACC_PUBLIC | ACC_STATIC);
    m.aload(0).getfield("app/Box", "x", "I").ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  JThread* t = f.vm.mainThread();
  JClass* box = f.vm.registry().resolve(f.app, "app/Box");
  ASSERT_NE(box, nullptr);
  Object* obj = f.vm.allocObject(t, box);
  ASSERT_NE(obj, nullptr);
  JField* x = box->findField("x");
  ASSERT_NE(x, nullptr);
  obj->fields()[x->slot] = Value::ofInt(41);

  // Call 1 quickens GETFIELD -> GETFIELD_Q; call 2 fuses the pair.
  EXPECT_EQ(f.call("app/Box", "get", "(Lapp/Box;)I", {Value::ofRef(obj)}).asInt(), 41);
  EXPECT_EQ(f.call("app/Box", "get", "(Lapp/Box;)I", {Value::ofRef(obj)}).asInt(), 41);

  JMethod* m = f.method("app/Box", "get", "(Lapp/Box;)I");
  std::string dis = exec::disasmQuickened(f.vm, m);
  EXPECT_NE(dis.find("ALOAD_GETFIELD_F"), std::string::npos) << dis;
  EXPECT_NE(dis.find("app/Box.x"), std::string::npos) << dis;

  // The fused null check must throw the same NPE as the unfused stream.
  Value r = f.vm.callStaticIn(t, f.app, "app/Box", "get", "(Lapp/Box;)I",
                              {Value::nullRef()});
  (void)r;
  ASSERT_NE(t->pending_exception, nullptr);
  EXPECT_NE(f.vm.pendingMessage(t).find("NullPointerException"),
            std::string::npos);
  f.vm.clearPending(t);
}

TEST(Fusion, BranchTargetIntoGroupMiddlePreventsFusion) {
  FusionVm f;
  {
    // The IADD of the ILOAD/ILOAD/IADD triple is itself a branch target
    // (another path jumps straight to it with its operands pushed): the
    // triple must not fuse, and the jump must keep working.
    //   f(flag, a, b): flag != 0 ? 10 + 20 : a + b
    //
    //   0: iload 0
    //   1: ifeq -> 5
    //   2: iconst 10
    //   3: iconst 20
    //   4: goto -> 7
    //   5: iload 1
    //   6: iload 2
    //   7: iadd        <- branch target inside the 5..7 triple
    //   8: ireturn
    ClassBuilder cb("app/Mid");
    auto& m = cb.method("f", "(III)I", ACC_PUBLIC | ACC_STATIC);
    Label norm = m.newLabel(), mid = m.newLabel();
    m.iload(0).ifeq(norm);
    m.iconst(10).iconst(20).gotoLabel(mid);
    m.bind(norm).iload(1).iload(2);
    m.bind(mid).iadd().ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  EXPECT_EQ(f.call("app/Mid", "f", "(III)I",
                   {Value::ofInt(0), Value::ofInt(3), Value::ofInt(4)})
                .asInt(),
            7);
  EXPECT_EQ(f.call("app/Mid", "f", "(III)I",
                   {Value::ofInt(1), Value::ofInt(3), Value::ofInt(4)})
                .asInt(),
            30);
  EXPECT_EQ(f.call("app/Mid", "f", "(III)I",
                   {Value::ofInt(0), Value::ofInt(10), Value::ofInt(-2)})
                .asInt(),
            8);

  JMethod* m = f.method("app/Mid", "f", "(III)I");
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  ASSERT_TRUE(qc->fusion_done.load());
  // The head of the would-be triple must still be a plain ILOAD.
  EXPECT_EQ(qc->insns[5].op.load(), Op::ILOAD);
  EXPECT_EQ(qc->insns[7].op.load(), Op::IADD);
}

TEST(Fusion, OffSwitchesKeepStreamUnfused) {
  // Per-VM off switch.
  VmOptions off = fusedOptions();
  off.fusion = false;
  FusionVm f(off);
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(50)}).asInt(), 1225);
  }
  JMethod* m = f.method("app/Loop", "f", "(I)I");
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_FALSE(qc->fusion_done.load());
  EXPECT_EQ(exec::disasmQuickened(f.vm, m).find("_F"), std::string::npos);
}

TEST(Fusion, DefaultThresholdPromotesOnlyHotMethods) {
  VmOptions opts = VmOptions::isolated();  // default threshold (256)
  FusionVm f(opts);
  {
    ClassBuilder cb("app/Loop");
    defineLoopClass(cb);
    f.app->define(cb.build());
  }
  f.boot();
  // Two cold calls: 2 invocations + ~20 back-edges stay under threshold.
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(10)}).asInt(), 45);
  EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(10)}).asInt(), 45);
  JMethod* m = f.method("app/Loop", "f", "(I)I");
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_FALSE(qc->fusion_done.load());

  // A burst of calls crosses it (invocations + edges > 256).
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(f.call("app/Loop", "f", "(I)I", {Value::ofInt(10)}).asInt(), 45);
  }
  EXPECT_TRUE(qc->fusion_done.load());
}

TEST(Fusion, PartialFirstInvocationPassThenCompletePass) {
  FusionVm f;
  {
    ClassBuilder cb("app/Box");
    cb.field("x", "I", ACC_PUBLIC);
    f.app->define(cb.build());
  }
  {
    // Hot inside its very first invocation (loop > one 4096-edge batch),
    // with a fusible ALOAD+GETFIELD pair *after* the loop: the mid-loop
    // promotion runs a partial pass (the tail has not quickened yet), and
    // the complete pass at the next entry picks the tail up.
    //   static int f(Box b, int n) {
    //     int s = 0; for (int i = 0; i < n; i++) s += i;
    //     return s + b.x;
    //   }
    ClassBuilder cb("app/Hot");
    auto& m = cb.method("f", "(Lapp/Box;I)I", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(2);
    m.iconst(0).istore(3);
    m.bind(head).iload(3).iload(1).ifIcmpGe(done);
    m.iload(2).iload(3).iadd().istore(2);
    m.iinc(3, 1).gotoLabel(head);
    m.bind(done).iload(2);
    m.aload(0).getfield("app/Box", "x", "I");
    m.iadd().ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  JThread* t = f.vm.mainThread();
  JClass* box = f.vm.registry().resolve(f.app, "app/Box");
  Object* obj = f.vm.allocObject(t, box);
  ASSERT_NE(obj, nullptr);
  obj->fields()[box->findField("x")->slot] = Value::ofInt(7);

  // Call 1: 10000 back-edges cross a batch flush mid-loop -> partial pass.
  EXPECT_EQ(f.call("app/Hot", "f", "(Lapp/Box;I)I",
                   {Value::ofRef(obj), Value::ofInt(10000)})
                .asInt(),
            49995000 + 7);
  JMethod* m = f.method("app/Hot", "f", "(Lapp/Box;I)I");
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_TRUE(qc->fusion_partial.load());
  EXPECT_FALSE(qc->fusion_done.load());
  std::string dis = exec::disasmQuickened(f.vm, m);
  EXPECT_NE(dis.find("IINC_GOTO_F"), std::string::npos) << dis;
  EXPECT_EQ(dis.find("ALOAD_GETFIELD_F"), std::string::npos)
      << "tail pair fused before it quickened:\n"
      << dis;

  // Call 2: the complete pass fuses the now-quickened tail and retires
  // the method from promotion checks.
  EXPECT_EQ(f.call("app/Hot", "f", "(Lapp/Box;I)I",
                   {Value::ofRef(obj), Value::ofInt(10)})
                .asInt(),
            45 + 7);
  EXPECT_TRUE(qc->fusion_done.load());
  dis = exec::disasmQuickened(f.vm, m);
  EXPECT_NE(dis.find("ALOAD_GETFIELD_F"), std::string::npos) << dis;
}

TEST(Fusion, RecursiveEntryDoesNotRetireStillQuickeningStream) {
  FusionVm f;
  {
    ClassBuilder cb("app/Box");
    cb.field("x", "I", ACC_PUBLIC);
    f.app->define(cb.build());
  }
  {
    // Recursive, with a fusible ALOAD+GETFIELD pair *after* the recursive
    // call: nested entries bump the invocation counter while the first
    // execution is still on the stack and that pair has never run. The
    // complete pass must wait for a finished execution, then fuse it.
    //   static int f(Box b, int n) { return n <= 0 ? b.x : f(b, n-1) + b.x; }
    ClassBuilder cb("app/Rec");
    auto& m = cb.method("f", "(Lapp/Box;I)I", ACC_PUBLIC | ACC_STATIC);
    Label base = m.newLabel();
    m.iload(1).ifle(base);
    m.aload(0).iload(1).iconst(1).isub();
    m.invokestatic("app/Rec", "f", "(Lapp/Box;I)I");
    m.aload(0).getfield("app/Box", "x", "I");
    m.iadd().ireturn();
    m.bind(base).aload(0).getfield("app/Box", "x", "I").ireturn();
    f.app->define(cb.build());
  }
  f.boot();

  JThread* t = f.vm.mainThread();
  JClass* box = f.vm.registry().resolve(f.app, "app/Box");
  Object* obj = f.vm.allocObject(t, box);
  ASSERT_NE(obj, nullptr);
  obj->fields()[box->findField("x")->slot] = Value::ofInt(3);

  EXPECT_EQ(f.call("app/Rec", "f", "(Lapp/Box;I)I",
                   {Value::ofRef(obj), Value::ofInt(5)})
                .asInt(),
            18);
  EXPECT_EQ(f.call("app/Rec", "f", "(Lapp/Box;I)I",
                   {Value::ofRef(obj), Value::ofInt(5)})
                .asInt(),
            18);

  JMethod* m = f.method("app/Rec", "f", "(Lapp/Box;I)I");
  auto* qc = static_cast<exec::QCode*>(m->qcode.load());
  ASSERT_NE(qc, nullptr);
  EXPECT_TRUE(qc->fusion_done.load());
  std::string dis = exec::disasmQuickened(f.vm, m);
  EXPECT_NE(dis.find("ALOAD_GETFIELD_F"), std::string::npos)
      << "post-call pair lost to a premature complete pass:\n"
      << dis;
}

// ---- the polymorphic IC state machine ----

struct IcVm {
  IcVm() : vm(fusedOptions()) {
    installSystemLibrary(vm);
    app = vm.registry().newLoader("app");
    {
      ClassBuilder base("app/Base");
      auto& m = base.method("tag", "()I", ACC_PUBLIC);
      m.iconst(0).ireturn();
      app->define(base.build());
    }
    for (int k = 1; k <= 12; ++k) {
      ClassBuilder sub("app/Sub" + std::to_string(k), "app/Base");
      auto& m = sub.method("tag", "()I", ACC_PUBLIC);
      m.iconst(k).ireturn();
      app->define(sub.build());
    }
    {
      ClassBuilder cb("app/Drive");
      auto& m = cb.method("call", "(Lapp/Base;)I", ACC_PUBLIC | ACC_STATIC);
      m.aload(0).invokevirtual("app/Base", "tag", "()I").ireturn();
      app->define(cb.build());
    }
    vm.createIsolate(app, "app");
  }

  i32 callWith(int k) {
    JThread* t = vm.mainThread();
    JClass* cls = vm.registry().resolve(app, "app/Sub" + std::to_string(k));
    EXPECT_NE(cls, nullptr);
    Object* obj = vm.allocObject(t, cls);
    EXPECT_NE(obj, nullptr);
    Value r = vm.callStaticIn(t, app, "app/Drive", "call", "(Lapp/Base;)I",
                              {Value::ofRef(obj)});
    EXPECT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
    return r.asInt();
  }

  // The IC installed at Drive.call's single virtual call site.
  exec::VCallIC* siteIc() {
    JMethod* m = vm.registry()
                     .resolve(app, "app/Drive")
                     ->findMethod("call", "(Lapp/Base;)I");
    auto* qc = static_cast<exec::QCode*>(m->qcode.load());
    if (qc == nullptr) return nullptr;
    for (auto& q : qc->insns) {
      if (q.op.load() == Op::INVOKEVIRTUAL_Q) {
        return static_cast<exec::VCallIC*>(q.ic.load());
      }
    }
    return nullptr;
  }

  VM vm;
  ClassLoader* app = nullptr;
};

TEST(PolymorphicIC, MonoToPolyToMegamorphic) {
  IcVm f;

  // One receiver class: monomorphic.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(f.callWith(1), 1);
  exec::VCallIC* ic = f.siteIc();
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->ways(), 1);
  EXPECT_FALSE(ic->megamorphic);

  // A second receiver: one miss promotes to a 2-entry polymorphic cache
  // holding both classes; alternating between the two then hits forever
  // (the miss counter stays put).
  EXPECT_EQ(f.callWith(2), 2);
  ic = f.siteIc();
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->ways(), 2);
  const u32 misses_after_poly = ic->misses.load();
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(f.callWith(1), 1);
    EXPECT_EQ(f.callWith(2), 2);
  }
  exec::VCallIC* after = f.siteIc();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after, ic) << "alternating bi-morphic receivers must not miss";
  EXPECT_EQ(after->misses.load(), misses_after_poly);

  // A parade of 12 classes blows past kMegamorphicMisses: the site pins
  // megamorphic (no ways, no further entry allocation) but dispatch stays
  // exact via the vtable.
  for (int round = 0; round < 3; ++round) {
    for (int k = 1; k <= 12; ++k) EXPECT_EQ(f.callWith(k), k);
  }
  ic = f.siteIc();
  ASSERT_NE(ic, nullptr);
  EXPECT_TRUE(ic->megamorphic);
  EXPECT_EQ(ic->ways(), 0);
  EXPECT_GE(ic->misses.load(), exec::kMegamorphicMisses);

  auto st = std::static_pointer_cast<exec::ExecState>(
      f.vm.getExtension(exec::kStateKey));
  ASSERT_NE(st, nullptr);
  // Installs stop at the pin: initial + one per miss until the pin.
  EXPECT_LE(st->vcall_ics.size(), exec::kMegamorphicMisses + 2);
}

// ---- the governor sees the same profile counters ----

TEST(HotBundleSignals, GovernorFlagsHotLoopBundle) {
  VmOptions opts = VmOptions::isolated();
  opts.gc_threshold = 512u << 10;
  opts.heap_limit = 64u << 20;
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);
  Bundle* micro = fw.install(makeMicroBundle("hot"));
  fw.start(micro);

  GovernorPolicy policy;
  policy.rules.push_back({Signal::MethodInvocationRate, 50.0, 1,
                          GovernorAction::Warn, "hot-invoke"});
  policy.rules.push_back({Signal::LoopBackEdgeRate, 1000.0, 1,
                          GovernorAction::Warn, "hot-loop"});
  policy.gc_if_allocated_bytes = 0;
  ResourceGovernor gov(fw, policy);

  // Drive interpreter-bound guest work in the bundle between ticks: the
  // per-tick deltas of the profile counters must flag it as hot. (Each
  // spinFor call is one invocation + 500 back-edges.)
  JThread* t = vm.mainThread();
  auto burn = [&] {
    for (int i = 0; i < 200; ++i) {
      vm.callStaticIn(t, micro->loader(), "micro/Bench", "spinFor", "(I)I",
                      {Value::ofInt(500)});
      ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
    }
  };
  bool invoke_seen = false, loop_seen = false;
  for (int i = 0; i < 6 && !(invoke_seen && loop_seen); ++i) {
    burn();
    for (const GovernorEvent& ev : gov.tick()) {
      if (ev.bundle_id != micro->id()) continue;
      invoke_seen |= ev.signal == Signal::MethodInvocationRate;
      loop_seen |= ev.signal == Signal::LoopBackEdgeRate;
    }
  }
  EXPECT_TRUE(loop_seen) << "hot loop back-edges not flagged";
  EXPECT_TRUE(invoke_seen) << "hot invocations not flagged";
  vm.shutdownAllThreads();
}

}  // namespace
}  // namespace ijvm
