// The quickening execution engine (tentpole of the staged-execution plan).
//
// Three mechanisms layered on the classic interpreter's semantics:
//
//  * Quickening: on first execution each pool-referencing instruction
//    resolves its operand (with the classic engine's lazy-resolution
//    exception behaviour) and rewrites itself in the method's QCode stream
//    to a quickened form carrying direct JClass*/JField*/JMethod* payloads
//    (see quickened.h for the publication protocol).
//
//  * Direct-threaded dispatch: computed-goto label threading on GCC/Clang
//    (one indirect branch per handler, no bounds check, no per-instruction
//    safepoint atomics), with a portable switch fallback. Safepoint and
//    termination polls move to method entry, loop back-edges and exception
//    dispatch -- every unbounded execution path still crosses a poll, so
//    isolate termination (paper section 3.3) keeps working; attack A6's
//    infinite loop is interrupted at its back-edge.
//
//  * Inline caches: monomorphic receiver-class caches for invokevirtual /
//    invokeinterface, and *isolate-keyed* mirror caches for static access.
//    The static cache is indexed by the executing isolate's TCM index
//    because per-isolate statics are exactly what the paper's isolation
//    model (section 3.1) re-clones per bundle -- a global static cache
//    would leak one isolate's mirror into another.
//
// Profile counters (per-method invocation + loop-edge, plus per-isolate
// aggregates in ResourceStats) are the seam the governor and future tiers
// (superinstructions, baseline JIT) consume.
#include "exec/engine.h"

#include "bytecode/disasm.h"
#include "exec/compile_manager.h"
#include "exec/fuse.h"
#include "exec/interp_support.h"
#include "exec/jit.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "obs/profiler.h"
#include "runtime/vm.h"
#include "support/strf.h"

// Dispatch flavor: label threading needs GNU computed goto; define
// IJVM_FORCE_SWITCH_DISPATCH to test the portable fallback.
#if !defined(IJVM_FORCE_SWITCH_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define IJVM_COMPUTED_GOTO 1
#else
#define IJVM_COMPUTED_GOTO 0
#endif

namespace ijvm::exec {

using namespace interp;

ExecState& engineState(VM& vm) {
  auto sp = std::static_pointer_cast<ExecState>(vm.getExtension(kStateKey));
  if (sp != nullptr) return *sp;
  static std::mutex create_mutex;
  std::lock_guard<std::mutex> lock(create_mutex);
  sp = std::static_pointer_cast<ExecState>(vm.getExtension(kStateKey));
  if (sp == nullptr) {
    sp = std::make_shared<ExecState>();
    vm.setExtension(kStateKey, sp);
  }
  return *sp;
}

namespace {

// Builds the QCode mirror of a method's instruction stream (generic opcodes,
// original operands); instructions quicken themselves as they execute.
QCode* quicken(VM& vm, JMethod* m) {
  ExecState& st = engineState(vm);
  std::lock_guard<std::mutex> lock(st.mutex);
  if (void* p = m->qcode.load(std::memory_order_relaxed)) {
    return static_cast<QCode*>(p);
  }
  auto qc = std::make_unique<QCode>();
  qc->method = m;
  qc->state = &st;
  const std::vector<Instruction>& insns = m->code.insns;
  qc->insns = std::vector<QInsn>(insns.size());
  for (size_t i = 0; i < insns.size(); ++i) {
    qc->insns[i].op.store(insns[i].op, std::memory_order_relaxed);
    qc->insns[i].a = insns[i].a;
    qc->insns[i].b = insns[i].b;
  }
  QCode* raw = qc.get();
  st.codes.push_back(std::move(qc));
  m->qcode.store(raw, std::memory_order_release);
  return raw;
}

// In-place instruction rewrite: payload under the lock, opcode published
// with release. Racing rewrites of one instruction compute identical
// payloads (resolution is cached and deterministic), so last-write-wins.
void rewrite(ExecState& st, QInsn& q, Op op, i32 c, void* ptr, i64 imm = 0,
             double dimm = 0.0) {
  std::lock_guard<std::mutex> lock(st.mutex);
  if (q.op.load(std::memory_order_relaxed) == op) return;
  q.c = c;
  q.ptr = ptr;
  q.imm = imm;
  q.dimm = dimm;
  q.op.store(op, std::memory_order_release);
}

// Installs `mirror` as the initialized mirror for TCM index `idx`,
// growing the isolate-keyed table as needed. Replaced tables are retired
// to the arena, never freed, so lock-free readers stay valid.
void installStaticIC(ExecState& st, QInsn& q, i32 idx, TaskClassMirror* mirror) {
  std::lock_guard<std::mutex> lock(st.mutex);
  auto* cur = static_cast<StaticIC*>(q.ic.load(std::memory_order_relaxed));
  if (cur != nullptr && static_cast<size_t>(idx) < cur->slots.size()) {
    cur->slots[static_cast<size_t>(idx)].store(mirror, std::memory_order_release);
    return;
  }
  // Grow geometrically: isolate ids are never reused, so sizing to
  // exactly idx+1 would retire O(isolates) tables per site over time.
  size_t cap = cur != nullptr ? cur->slots.size() : 4;
  while (cap <= static_cast<size_t>(idx)) cap *= 2;
  auto grown = std::make_unique<StaticIC>(cap);
  if (cur != nullptr) {
    for (size_t i = 0; i < cur->slots.size(); ++i) {
      grown->slots[i].store(cur->slots[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
  }
  grown->slots[static_cast<size_t>(idx)].store(mirror, std::memory_order_relaxed);
  q.ic.store(grown.get(), std::memory_order_release);
  st.static_ics.push_back(std::move(grown));
}

}  // namespace

// Polymorphic call-site cache update (mono -> 2-entry poly -> megamorphic;
// see VCallIC in quickened.h). The miss count is carried across replacement
// entries; after kMegamorphicMisses total misses the site is pinned
// megamorphic (all-null ways never match, and the pin is never replaced)
// so a polymorphic site stops allocating new entries. Below the pin, the
// missing receiver takes way 0 and the previous way-0 pair is demoted to
// way 1 (evicting the old way 1): the two most recent receiver classes
// stay cached, which a strict alternation between two receivers turns
// into permanent hits.
void installVCallIC(ExecState& st, QInsn& q, JClass* cls, JMethod* target,
                    VCallIC* missed) {
  u32 misses = 0;
  if (missed != nullptr) {
    if (missed->megamorphic) return;  // pinned
    misses = missed->misses.load(std::memory_order_relaxed) + 1;
  }
  std::lock_guard<std::mutex> lock(st.mutex);
  auto entry = std::make_unique<VCallIC>();
  if (missed != nullptr && misses >= kMegamorphicMisses) {
    entry->megamorphic = true;
  } else {
    entry->receiver_cls[0] = cls;
    entry->target[0] = target;
    if (missed != nullptr && missed->receiver_cls[0] != nullptr &&
        missed->receiver_cls[0] != cls) {
      entry->receiver_cls[1] = missed->receiver_cls[0];
      entry->target[1] = missed->target[0];
    }
  }
  entry->misses.store(misses, std::memory_order_relaxed);
  q.ic.store(entry.get(), std::memory_order_release);
  st.vcall_ics.push_back(std::move(entry));
}

// The classic static-access slow path (both VM modes), plus cache
// installation once this isolate's mirror is Initialized. Returns null
// with a guest exception pending on initialization failure.
TaskClassMirror* staticMirrorSlow(VM& vm, JThread* t, ExecState& st, QInsn& q,
                                  JField* f) {
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  TaskClassMirror* mirror;
  if (!vm.options().isolation) {
    // Baseline path: direct access to the single shared mirror, as an
    // unmodified JVM loads a resolved static slot.
    mirror = &f->owner->sharedMirror();
    if (mirror->state.load(std::memory_order_acquire) !=
        TaskClassMirror::InitState::Initialized) {
      if (!vm.ensureInitialized(t, f->owner)) return nullptr;
    }
  } else {
    // I-JVM path (paper section 3.1): task-class-mirror indirection with
    // the initialization check reentrant code cannot elide.
    mirror = f->owner->tcmFast(iso->id);
    if (mirror == nullptr ||
        mirror->state.load(std::memory_order_acquire) !=
            TaskClassMirror::InitState::Initialized) {
      if (!vm.ensureInitialized(t, f->owner)) return nullptr;
      mirror = &f->owner->tcm(vm.tcmIndex(iso));
    }
  }
  // Only a fully initialized mirror enters the cache: a slot hit then
  // proves <clinit> ran for that isolate, so the fast path needs no state
  // check. During <clinit> (state Running) every access stays slow.
  if (mirror->state.load(std::memory_order_acquire) ==
      TaskClassMirror::InitState::Initialized) {
    installStaticIC(st, q, vm.tcmIndex(iso), mirror);
  }
  return mirror;
}

Value interpretQuickened(VM& vm, JThread* t, Frame& frame) {
  JMethod* const method = frame.method;
  JClass* const owner = method->owner;
  const bool accounting = vm.options().accounting;

  method->profile_invocations.fetch_add(1, std::memory_order_relaxed);
  if (accounting && frame.isolate != nullptr) {
    frame.isolate->stats.method_invocations.fetch_add(1, std::memory_order_relaxed);
  }

#ifndef IJVM_DISABLE_JIT
  // Steady-state compiled entry: a method with installed tier-3 code goes
  // straight to it, skipping the tier-1/2 bookkeeping below -- the fusion
  // and promotion checks are settled by construction once code is
  // installed (fusion_done gates promotion), and the profile counters
  // above still tick for the demotion re-heat floor and the governor's
  // invocation-rate signal. A Deopt exit falls through into the full
  // interpreter path with the compiled code already retired; jit_ran
  // keeps that continuation from re-promoting or pre-sampling within the
  // same entry.
  bool jit_ran = false;
  if (vm.options().exec_engine == ExecEngine::Jit) {
    void* jcp = method->jitcode.load(std::memory_order_acquire);
    if (jcp != nullptr) {
      JitResult r = runJit(vm, t, frame, *static_cast<JitCode*>(jcp));
      if (r.exit != JitExit::Deopt) return r.value;
      jit_ran = true;
    }
  }
#endif

  QCode* qc = static_cast<QCode*>(method->qcode.load(std::memory_order_acquire));
  if (qc == nullptr) qc = quicken(vm, method);
  ExecState& st = *qc->state;
  QInsn* const qinsns = qc->insns.data();
  const i32 code_size = static_cast<i32>(qc->insns.size());
  std::vector<Value>& stack = frame.stack;
  std::vector<Value>& locals = frame.locals;
  SafepointController& safepoints = vm.safepoints();

  const bool fusion_on = vm.options().fusion;
  // Promotion to the fusion tier (docs/execution-tiers.md): once hot,
  // rewrite the quickened stream a second time into superinstructions.
  // A pass is *complete* only after a prior execution finished (the whole
  // stream has quickened); a method that gets hot inside its very first
  // invocation (the back-edge batch flush below) gets a partial pass over
  // the loop it is spinning, and the complete pass -- which alone retires
  // the method from these checks -- runs at its next entry.
  auto maybeFuse = [&]() {
    if (!fusion_on || qc->fusion_done.load(std::memory_order_relaxed)) return;
    const u64 hot =
        method->profile_invocations.load(std::memory_order_relaxed) +
        method->profile_loop_edges.load(std::memory_order_relaxed);
    if (hot > vm.options().fusion_threshold) {
      // Complete only once an execution ran to a normal return (see
      // QCode::warmed): a recursive method's nested entry, or a first
      // call that unwound mid-body, must not pass a still-quickening
      // stream off as fully warmed.
      fuseQCode(*qc, qc->warmed.load(std::memory_order_relaxed));
    }
  };
  // Runs at normal returns; steady state is one relaxed load. Maintained
  // regardless of the fusion switch: warmed also gates tier-3 promotion,
  // which must keep working with fusion=false.
  auto markWarm = [&]() {
    if (!qc->warmed.load(std::memory_order_relaxed)) {
      qc->warmed.store(true, std::memory_order_relaxed);
    }
  };
  // A warmed stream can take the complete pass at entry. (Cold methods
  // wait; in-first-execution hot loops are promoted partially at the
  // back-edge batch flush below.)
  if (qc->warmed.load(std::memory_order_relaxed)) maybeFuse();

  // Tier tag for the profiler's stack samples (obs/profiler.h): stamped
  // here and re-stamped wherever the tier changes mid-invocation (fusion
  // at a batch flush, OSR transfer, deopt continuation).
  auto stampTier = [&]() {
    frame.tier = qc->fusion_done.load(std::memory_order_relaxed)
                     ? FrameTier::Fused
                     : FrameTier::Quickened;
  };
  stampTier();

#ifndef IJVM_DISABLE_JIT
  // Tier-3 promotion (docs/jit.md): once a warmed method is hot past
  // VmOptions::jit_threshold -- and settled at the fusion tier, so the
  // compiler sees the final stream -- it is pushed through the
  // promote-to-JIT queue and compiled to call-threaded code. (Steady-state
  // calls to already-compiled methods never reach this block -- the fast
  // path at function entry dispatched them.) A call whose compile lands
  // here runs the fresh code and returns without ever touching the
  // dispatch loop below; a Deopt exit falls through into the
  // interpreter at frame.pc with the compiled code invalidated. A method
  // that only gets hot *inside* an invocation is handled by on-stack
  // replacement at the back-edge batch flush instead (IJVM_MAYBE_OSR
  // below).
  if (!jit_ran && vm.options().exec_engine == ExecEngine::Jit) {
    if (st.jit_pending.load(std::memory_order_relaxed)) drainJitQueue(vm);
    void* jcp = method->jitcode.load(std::memory_order_acquire);
    if (jcp == nullptr && qc->warmed.load(std::memory_order_relaxed) &&
        !qc->jit_ineligible.load(std::memory_order_relaxed)) {
      // Hotness above the demotion re-heat floor (docs/jit.md, "Code
      // lifecycle"): a freshly demoted method must earn jit_threshold of
      // new heat before it recompiles.
      const u64 hot = effectiveJitHotness(method);
      const bool fusion_settled =
          !fusion_on || qc->fusion_done.load(std::memory_order_relaxed);
      if (hot > vm.options().jit_threshold && fusion_settled) {
        enqueueForJit(vm, method);
        drainJitQueue(vm);
        jcp = method->jitcode.load(std::memory_order_acquire);
      }
    }
    if (jcp != nullptr) {
      JitResult r = runJit(vm, t, frame, *static_cast<JitCode*>(jcp));
      if (r.exit != JitExit::Deopt) return r.value;
      // Deopt: the cold site quickens below and the method re-promotes at
      // a later entry with a compiled form covering strictly more of the
      // stream (bounded by kMaxJitDeopts).
      jit_ran = true;
      stampTier();  // back to the interpreter tier for the continuation
    }
  }
#endif

  auto push = [&stack](Value v) { stack.push_back(v); };
  auto pop = [&stack]() {
    IJVM_CHECK(!stack.empty(), "operand stack underflow (verifier miss)");
    Value v = stack.back();
    stack.pop_back();
    return v;
  };
  auto throwNPE = [&vm, t](const char* what) {
    vm.throwGuest(t, "java/lang/NullPointerException", what);
  };
  // Loop back-edges are counted in a register and flushed in batches (at
  // returns, call sites, exception dispatch and every 4096 edges): two
  // atomic RMWs per back-edge would dominate a tight guest loop.
  u64 pending_edges = 0;
#ifndef IJVM_DISABLE_JIT
  // Payoff pre-promotion window (docs/jit.md, "Payoff"): time fused-tier
  // invocations while the method is within reach of promotion (hotness
  // past half the threshold, or a compile already in flight), so a later
  // post-install window has a baseline to beat. Two clock reads per
  // sampled invocation, and only until the window fills or the verdict
  // settles; everyone else pays one relaxed load. The sample accumulates
  // in the destructor -- i.e. at *every* return path, unwinds included,
  // matching what the compiled-side sampler times -- unless cancelled: an
  // invocation that OSR-transfers mid-flight is neither purely
  // interpreted nor purely compiled, and a deopt continuation (jit_ran)
  // never starts a sample for the same reason.
  struct PayoffPreSample {
    VM* vm = nullptr;
    QCode* qc = nullptr;
    u32 epoch = 0;
    u64 t0 = 0;
    const u64* edges = nullptr;
    void cancel() { qc = nullptr; }
    ~PayoffPreSample() {
      if (qc != nullptr) {
        payoffAccumulate(*vm, *qc, /*post=*/false, epoch,
                         payoffNowNs() - t0, 1 + *edges);
      }
    }
  } payoff_pre;
  u64 invocation_edges = 0;
  if (!jit_ran && vm.options().jit_payoff &&
      vm.options().exec_engine == ExecEngine::Jit &&
      !qc->payoff_settled.load(std::memory_order_relaxed) &&
      qc->payoff_pre_samples.load(std::memory_order_relaxed) <
          vm.options().jit_payoff_samples &&
      (qc->jit_queued.load(std::memory_order_relaxed) ||
       effectiveJitHotness(method) > vm.options().jit_threshold / 2)) {
    payoff_pre.vm = &vm;
    payoff_pre.qc = qc;
    payoff_pre.epoch = qc->payoff_epoch.load(std::memory_order_acquire);
    payoff_pre.t0 = payoffNowNs();
    payoff_pre.edges = &invocation_edges;
  }
  // On-stack replacement (docs/jit.md): at a back-edge batch flush a
  // method hot past jit_threshold compiles and the live frame transfers
  // into the compiled code without returning to the caller. osr_requested
  // is the per-invocation promotion latch (promotion requests are
  // idempotent per method -- see exec::tryOsr).
  const bool osr_on =
      vm.options().exec_engine == ExecEngine::Jit && vm.options().osr;
  bool osr_requested = false;
#endif
  auto flushProfile = [&]() {
    if (pending_edges == 0) return;
#ifndef IJVM_DISABLE_JIT
    invocation_edges += pending_edges;  // payoff unit weight, see above
#endif
    method->profile_loop_edges.fetch_add(pending_edges, std::memory_order_relaxed);
    if (accounting && frame.isolate != nullptr) {
      frame.isolate->stats.loop_back_edges.fetch_add(pending_edges,
                                                     std::memory_order_relaxed);
    }
    pending_edges = 0;
  };
  // Safepoint & thread-attention checks; runs at method entry, loop
  // back-edges and after exception dispatch (the classic engine polls
  // before every instruction).
  auto poll = [&]() {
    if (safepoints.stopRequested()) safepoints.poll();
    t->publishEra(safepoints.currentEra());
    if (t->force_kill.load(std::memory_order_relaxed) &&
        t->pending_exception == nullptr) {
      throwStopped(vm, t, kKillAll);
    } else if (t->pending_stop_isolate.load(std::memory_order_relaxed) >= 0 &&
               t->pending_exception == nullptr) {
      i32 target = t->pending_stop_isolate.exchange(-1, std::memory_order_acq_rel);
      if (target >= 0) throwStopped(vm, t, target);
    }
    IJVM_PROFILE_POLL(vm, t);
  };

  i32 pc = frame.pc;
  i32 next = frame.pc;
  const QInsn* ip = qinsns;
  // Invoke staging (shared L_invoke tail below; plain locals because
  // computed goto cannot pass arguments).
  JMethod* inv_resolved = nullptr;
  i32 inv_nargs = 0;
  Op inv_kind = Op::NOP;

#if IJVM_COMPUTED_GOTO
  static const void* const kDispatch[] = {
#define IJVM_LABEL_ADDR(name, pops, pushes, doc) &&L_##name,
      IJVM_OPCODES(IJVM_LABEL_ADDR)
#undef IJVM_LABEL_ADDR
  };
#define CASE(name) L_##name:
#define NEXT()                                                                 \
  do {                                                                         \
    if (t->pending_exception != nullptr) goto L_exception;                     \
    pc = next;                                                                 \
    IJVM_CHECK(static_cast<u32>(pc) < static_cast<u32>(code_size),             \
               strf("pc %d out of range in %s", pc,                            \
                    method->fullName().c_str()));                              \
    frame.pc = pc;                                                             \
    ip = &qinsns[pc];                                                          \
    next = pc + 1;                                                             \
    goto* kDispatch[static_cast<u8>(ip->op.load(std::memory_order_acquire))];  \
  } while (0)
#else
#define CASE(name) case Op::name:
#define NEXT() goto L_dispatch
#endif

// On-stack replacement at the back-edge batch flush (docs/jit.md): with
// frame.pc moved to the branch target -- the loop header -- the live
// frame transfers into tier-3 compiled code. Returned/Unwound finish the
// whole invocation right here; Deopt hands the frame back ready for the
// interpreter at frame.pc and interpretation simply continues there.
#ifndef IJVM_DISABLE_JIT
#define IJVM_MAYBE_OSR()                                                       \
  do {                                                                         \
    if (osr_on) {                                                              \
      frame.pc = next;                                                         \
      JitResult osr_result;                                                    \
      if (tryOsr(vm, t, frame, *qc, osr_requested, &osr_result)) {             \
        payoff_pre.cancel(); /* mixed-tier invocation: not a pre sample */     \
        if (osr_result.exit == JitExit::Deopt) {                               \
          next = frame.pc;                                                     \
          stampTier(); /* deopt continuation runs interpreted again */         \
        } else if (osr_result.exit == JitExit::Unwound) {                      \
          return {};                                                           \
        } else {                                                               \
          markWarm();                                                          \
          return osr_result.value;                                             \
        }                                                                      \
      }                                                                        \
    }                                                                          \
  } while (0)
#else
#define IJVM_MAYBE_OSR() \
  do {                   \
  } while (0)
#endif

// Taken branches: count + poll at back-edges only. frame.pc moves to the
// branch target *before* the poll so a stop exception raised here
// dispatches at the target, as it does in the classic engine. The batch
// flush doubles as the promotion point for methods that get hot inside
// one invocation (a single call spinning a loop): by the time 4096 edges
// accumulated, the loop body has long quickened -- fusion takes a partial
// pass here, and the OSR hook above can compile and transfer the frame
// into tier-3 code.
#define TAKE_BRANCH(tgt)                                                       \
  do {                                                                         \
    next = (tgt);                                                              \
    if (next <= pc) {                                                          \
      if ((++pending_edges & 0xFFF) == 0) {                                    \
        flushProfile();                                                        \
        maybeFuse();                                                           \
        stampTier(); /* a partial fusion pass may just have run */             \
        IJVM_MAYBE_OSR();                                                      \
      }                                                                        \
      frame.pc = next;                                                         \
      poll();                                                                  \
    }                                                                          \
  } while (0)

  poll();
  next = frame.pc;
#if IJVM_COMPUTED_GOTO
  NEXT();
#else
L_dispatch:
  if (t->pending_exception != nullptr) goto L_exception;
  pc = next;
  IJVM_CHECK(static_cast<u32>(pc) < static_cast<u32>(code_size),
             strf("pc %d out of range in %s", pc, method->fullName().c_str()));
  frame.pc = pc;
  ip = &qinsns[pc];
  next = pc + 1;
  switch (ip->op.load(std::memory_order_acquire)) {
#endif

  CASE(NOP) { NEXT(); }
  CASE(ACONST_NULL) {
    push(Value::nullRef());
    NEXT();
  }
  CASE(ICONST) {
    push(Value::ofInt(ip->a));
    NEXT();
  }

  // ---- constants: generic LDC quickens per pool tag ----
  CASE(LDC) {
    CpEntry& e = owner->pool.at(ip->a);
    switch (e.tag) {
      case CpTag::Int:
        rewrite(st, qinsns[pc], Op::LDC_INT_Q, 0, nullptr, e.i);
        push(Value::ofInt(static_cast<i32>(e.i)));
        break;
      case CpTag::Long:
        rewrite(st, qinsns[pc], Op::LDC_LONG_Q, 0, nullptr, e.i);
        push(Value::ofLong(e.i));
        break;
      case CpTag::Double:
        rewrite(st, qinsns[pc], Op::LDC_DOUBLE_Q, 0, nullptr, 0, e.d);
        push(Value::ofDouble(e.d));
        break;
      case CpTag::String: {
        rewrite(st, qinsns[pc], Op::LDC_STR_Q, 0, &e);
        // Interned in the *current* isolate's string map: two bundles
        // loading the same literal get different objects (paper 3.5).
        Object* s = vm.internString(t, e.text);
        if (s != nullptr) push(Value::ofRef(s));
        break;
      }
      default:
        IJVM_UNREACHABLE("LDC with non-constant pool entry");
    }
    NEXT();
  }
  CASE(LDC_INT_Q) {
    push(Value::ofInt(static_cast<i32>(ip->imm)));
    NEXT();
  }
  CASE(LDC_LONG_Q) {
    push(Value::ofLong(ip->imm));
    NEXT();
  }
  CASE(LDC_DOUBLE_Q) {
    push(Value::ofDouble(ip->dimm));
    NEXT();
  }
  CASE(LDC_STR_Q) {
    Object* s = vm.internString(t, static_cast<CpEntry*>(ip->ptr)->text);
    if (s != nullptr) push(Value::ofRef(s));
    NEXT();
  }

  // ---- locals ----
  CASE(ILOAD) CASE(LLOAD) CASE(DLOAD) CASE(ALOAD) {
    push(locals[static_cast<size_t>(ip->a)]);
    NEXT();
  }
  CASE(ISTORE) CASE(LSTORE) CASE(DSTORE) CASE(ASTORE) {
    locals[static_cast<size_t>(ip->a)] = pop();
    NEXT();
  }
  CASE(IINC) {
    Value& v = locals[static_cast<size_t>(ip->a)];
    v = Value::ofInt(v.asInt() + ip->b);
    NEXT();
  }

  // ---- stack ----
  CASE(POP) {
    pop();
    NEXT();
  }
  CASE(DUP) {
    Value v = pop();
    push(v);
    push(v);
    NEXT();
  }
  CASE(DUP_X1) {
    Value a = pop();
    Value b = pop();
    push(a);
    push(b);
    push(a);
    NEXT();
  }
  CASE(SWAP) {
    Value a = pop();
    Value b = pop();
    push(a);
    push(b);
    NEXT();
  }

  // ---- int arithmetic (wrapping) ----
#define IJVM_IBIN(OPNAME, EXPR)                                                \
  CASE(OPNAME) {                                                               \
    i32 b = pop().asInt();                                                     \
    i32 a = pop().asInt();                                                     \
    push(Value::ofInt(EXPR));                                                  \
    NEXT();                                                                    \
  }
  IJVM_IBIN(IADD, static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
  IJVM_IBIN(ISUB, static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
  IJVM_IBIN(IMUL, static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
  IJVM_IBIN(ISHL, static_cast<i32>(static_cast<u32>(a) << wrapShift32(b)))
  IJVM_IBIN(ISHR, a >> wrapShift32(b))
  IJVM_IBIN(IUSHR, static_cast<i32>(static_cast<u32>(a) >> wrapShift32(b)))
  IJVM_IBIN(IAND, a & b)
  IJVM_IBIN(IOR, a | b)
  IJVM_IBIN(IXOR, a ^ b)
#undef IJVM_IBIN
  CASE(IDIV) CASE(IREM) {
    i32 b = pop().asInt();
    i32 a = pop().asInt();
    if (b == 0) {
      vm.throwGuest(t, "java/lang/ArithmeticException", "/ by zero");
      NEXT();
    }
    const bool is_div = ip->op.load(std::memory_order_relaxed) == Op::IDIV;
    push(Value::ofInt(is_div ? idivSafe(a, b) : iremSafe(a, b)));
    NEXT();
  }
  CASE(INEG) {
    i32 a = pop().asInt();
    push(Value::ofInt(static_cast<i32>(0u - static_cast<u32>(a))));
    NEXT();
  }

  // ---- long arithmetic ----
#define IJVM_LBIN(OPNAME, EXPR)                                                \
  CASE(OPNAME) {                                                               \
    i64 b = pop().asLong();                                                    \
    i64 a = pop().asLong();                                                    \
    push(Value::ofLong(EXPR));                                                 \
    NEXT();                                                                    \
  }
  IJVM_LBIN(LADD, static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b)))
  IJVM_LBIN(LSUB, static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b)))
  IJVM_LBIN(LMUL, static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b)))
  IJVM_LBIN(LAND, a & b)
  IJVM_LBIN(LOR, a | b)
  IJVM_LBIN(LXOR, a ^ b)
#undef IJVM_LBIN
  CASE(LSHL) {
    i32 sh = pop().asInt();
    i64 a = pop().asLong();
    push(Value::ofLong(static_cast<i64>(static_cast<u64>(a) << wrapShift64(sh))));
    NEXT();
  }
  CASE(LSHR) {
    i32 sh = pop().asInt();
    i64 a = pop().asLong();
    push(Value::ofLong(a >> wrapShift64(sh)));
    NEXT();
  }
  CASE(LDIV) CASE(LREM) {
    i64 b = pop().asLong();
    i64 a = pop().asLong();
    if (b == 0) {
      vm.throwGuest(t, "java/lang/ArithmeticException", "/ by zero");
      NEXT();
    }
    const bool is_div = ip->op.load(std::memory_order_relaxed) == Op::LDIV;
    push(Value::ofLong(is_div ? ldivSafe(a, b) : lremSafe(a, b)));
    NEXT();
  }
  CASE(LNEG) {
    i64 a = pop().asLong();
    push(Value::ofLong(static_cast<i64>(0ull - static_cast<u64>(a))));
    NEXT();
  }
  CASE(LCMP) {
    i64 b = pop().asLong();
    i64 a = pop().asLong();
    push(Value::ofInt(a < b ? -1 : (a > b ? 1 : 0)));
    NEXT();
  }

  // ---- double arithmetic ----
#define IJVM_DBIN(OPNAME, EXPR)                                                \
  CASE(OPNAME) {                                                               \
    double b = pop().asDouble();                                               \
    double a = pop().asDouble();                                               \
    push(Value::ofDouble(EXPR));                                               \
    NEXT();                                                                    \
  }
  IJVM_DBIN(DADD, a + b)
  IJVM_DBIN(DSUB, a - b)
  IJVM_DBIN(DMUL, a * b)
  IJVM_DBIN(DDIV, a / b)
  IJVM_DBIN(DREM, std::fmod(a, b))
#undef IJVM_DBIN
  CASE(DNEG) {
    push(Value::ofDouble(-pop().asDouble()));
    NEXT();
  }
  CASE(DCMPL) CASE(DCMPG) {
    double b = pop().asDouble();
    double a = pop().asDouble();
    i32 r;
    if (std::isnan(a) || std::isnan(b)) {
      r = ip->op.load(std::memory_order_relaxed) == Op::DCMPL ? -1 : 1;
    } else {
      r = a < b ? -1 : (a > b ? 1 : 0);
    }
    push(Value::ofInt(r));
    NEXT();
  }

  // ---- conversions ----
  CASE(I2L) {
    push(Value::ofLong(pop().asInt()));
    NEXT();
  }
  CASE(I2D) {
    push(Value::ofDouble(pop().asInt()));
    NEXT();
  }
  CASE(L2I) {
    push(Value::ofInt(static_cast<i32>(pop().asLong())));
    NEXT();
  }
  CASE(L2D) {
    push(Value::ofDouble(static_cast<double>(pop().asLong())));
    NEXT();
  }
  CASE(D2I) {
    push(Value::ofInt(d2iSat(pop().asDouble())));
    NEXT();
  }
  CASE(D2L) {
    push(Value::ofLong(d2lSat(pop().asDouble())));
    NEXT();
  }

  // ---- branches ----
#define IJVM_IF1(OPNAME, CMP)                                                  \
  CASE(OPNAME) {                                                               \
    i32 a = pop().asInt();                                                     \
    if (a CMP 0) TAKE_BRANCH(ip->a);                                           \
    NEXT();                                                                    \
  }
  IJVM_IF1(IFEQ, ==)
  IJVM_IF1(IFNE, !=)
  IJVM_IF1(IFLT, <)
  IJVM_IF1(IFGE, >=)
  IJVM_IF1(IFGT, >)
  IJVM_IF1(IFLE, <=)
#undef IJVM_IF1
#define IJVM_IF2(OPNAME, CMP)                                                  \
  CASE(OPNAME) {                                                               \
    i32 b = pop().asInt();                                                     \
    i32 a = pop().asInt();                                                     \
    if (a CMP b) TAKE_BRANCH(ip->a);                                           \
    NEXT();                                                                    \
  }
  IJVM_IF2(IF_ICMPEQ, ==)
  IJVM_IF2(IF_ICMPNE, !=)
  IJVM_IF2(IF_ICMPLT, <)
  IJVM_IF2(IF_ICMPGE, >=)
  IJVM_IF2(IF_ICMPGT, >)
  IJVM_IF2(IF_ICMPLE, <=)
#undef IJVM_IF2
  CASE(IF_ACMPEQ) {
    Object* b = pop().asRef();
    Object* a = pop().asRef();
    if (a == b) TAKE_BRANCH(ip->a);
    NEXT();
  }
  CASE(IF_ACMPNE) {
    Object* b = pop().asRef();
    Object* a = pop().asRef();
    if (a != b) TAKE_BRANCH(ip->a);
    NEXT();
  }
  CASE(IFNULL) {
    if (pop().asRef() == nullptr) TAKE_BRANCH(ip->a);
    NEXT();
  }
  CASE(IFNONNULL) {
    if (pop().asRef() != nullptr) TAKE_BRANCH(ip->a);
    NEXT();
  }
  CASE(GOTO) {
    TAKE_BRANCH(ip->a);
    NEXT();
  }

  // ---- fused superinstructions (fusion tier, exec/fuse.cpp) ----
  // One dispatch per group; `next` advances past the whole group. Locals
  // are read directly instead of bouncing through the operand stack -- the
  // net stack effect is identical to the unfused sequence, and nothing in
  // a fused group can fault mid-way with a partial stack observable by a
  // handler (handlers clear the stack on entry anyway).
#define IJVM_FUSED_ARITH(OPNAME, EXPR)                                         \
  CASE(OPNAME) {                                                               \
    const i32 a = locals[static_cast<size_t>(ip->a)].asInt();                  \
    const i32 b = locals[static_cast<size_t>(ip->c)].asInt();                  \
    push(Value::ofInt(EXPR));                                                  \
    next = pc + 3;                                                             \
    NEXT();                                                                    \
  }
  IJVM_FUSED_ARITH(ILOAD_ILOAD_IADD_F,
                   static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
  IJVM_FUSED_ARITH(ILOAD_ILOAD_ISUB_F,
                   static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
  IJVM_FUSED_ARITH(ILOAD_ILOAD_IMUL_F,
                   static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
  IJVM_FUSED_ARITH(ILOAD_ILOAD_IAND_F, a & b)
  IJVM_FUSED_ARITH(ILOAD_ILOAD_IOR_F, a | b)
  IJVM_FUSED_ARITH(ILOAD_ILOAD_IXOR_F, a ^ b)
#undef IJVM_FUSED_ARITH
#define IJVM_FUSED_CMP(OPNAME, CMP)                                            \
  CASE(OPNAME) {                                                               \
    const i32 a = locals[static_cast<size_t>(ip->a)].asInt();                  \
    const i32 b = locals[static_cast<size_t>(ip->c)].asInt();                  \
    next = pc + 3;                                                             \
    if (a CMP b) TAKE_BRANCH(static_cast<i32>(ip->imm));                       \
    NEXT();                                                                    \
  }
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPEQ_F, ==)
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPNE_F, !=)
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPLT_F, <)
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPGE_F, >=)
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPGT_F, >)
  IJVM_FUSED_CMP(ILOAD_ILOAD_IF_ICMPLE_F, <=)
#undef IJVM_FUSED_CMP
  CASE(ICONST_IADD_F) {
    const i32 a = pop().asInt();
    push(Value::ofInt(static_cast<i32>(static_cast<u32>(a) +
                                       static_cast<u32>(ip->a))));
    next = pc + 2;
    NEXT();
  }
  CASE(ALOAD_GETFIELD_F) {
    Object* obj = locals[static_cast<size_t>(ip->a)].asRef();
    if (obj == nullptr) {
      throwNPE(static_cast<JField*>(ip->ptr)->name.c_str());
      NEXT();
    }
    push(obj->fields()[ip->c]);
    next = pc + 2;
    NEXT();
  }
  CASE(IINC_GOTO_F) {
    Value& v = locals[static_cast<size_t>(ip->a)];
    v = Value::ofInt(v.asInt() + ip->b);
    TAKE_BRANCH(ip->c);
    NEXT();
  }

  // ---- returns ----
  CASE(RETURN) {
    flushProfile();
    markWarm();
    return {};
  }
  CASE(IRETURN) CASE(LRETURN) CASE(DRETURN) CASE(ARETURN) {
    flushProfile();
    markWarm();
    return pop();
  }

  // ---- statics: the task-class-mirror indirection (paper 3.1) ----
  CASE(GETSTATIC) {
    JField* f = resolveFieldRef(vm, t, owner, owner->pool.at(ip->a),
                                /*want_static=*/true);
    if (f == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::GETSTATIC_Q, f->slot, f);
    TaskClassMirror* mirror = staticMirrorSlow(vm, t, st, qinsns[pc], f);
    if (mirror == nullptr) NEXT();
    push(mirror->statics[static_cast<size_t>(f->slot)]);
    NEXT();
  }
  CASE(PUTSTATIC) {
    JField* f = resolveFieldRef(vm, t, owner, owner->pool.at(ip->a),
                                /*want_static=*/true);
    if (f == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::PUTSTATIC_Q, f->slot, f);
    TaskClassMirror* mirror = staticMirrorSlow(vm, t, st, qinsns[pc], f);
    if (mirror == nullptr) NEXT();
    mirror->statics[static_cast<size_t>(f->slot)] = pop();
    NEXT();
  }
  CASE(GETSTATIC_Q) {
    TaskClassMirror* mirror = nullptr;
    if (auto* sic = static_cast<StaticIC*>(ip->ic.load(std::memory_order_acquire))) {
      const i32 idx =
          vm.tcmIndex(t->current_isolate.load(std::memory_order_relaxed));
      if (static_cast<size_t>(idx) < sic->slots.size()) {
        mirror = sic->slots[static_cast<size_t>(idx)].load(std::memory_order_acquire);
      }
    }
    if (mirror == nullptr) {
      mirror = staticMirrorSlow(vm, t, st, qinsns[pc],
                                static_cast<JField*>(ip->ptr));
      if (mirror == nullptr) NEXT();
    }
    push(mirror->statics[static_cast<size_t>(ip->c)]);
    NEXT();
  }
  CASE(PUTSTATIC_Q) {
    TaskClassMirror* mirror = nullptr;
    if (auto* sic = static_cast<StaticIC*>(ip->ic.load(std::memory_order_acquire))) {
      const i32 idx =
          vm.tcmIndex(t->current_isolate.load(std::memory_order_relaxed));
      if (static_cast<size_t>(idx) < sic->slots.size()) {
        mirror = sic->slots[static_cast<size_t>(idx)].load(std::memory_order_acquire);
      }
    }
    if (mirror == nullptr) {
      mirror = staticMirrorSlow(vm, t, st, qinsns[pc],
                                static_cast<JField*>(ip->ptr));
      if (mirror == nullptr) NEXT();
    }
    mirror->statics[static_cast<size_t>(ip->c)] = pop();
    NEXT();
  }

  // ---- instance fields ----
  CASE(GETFIELD) {
    JField* f = resolveFieldRef(vm, t, owner, owner->pool.at(ip->a),
                                /*want_static=*/false);
    if (f == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::GETFIELD_Q, f->slot, f);
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE(f->name.c_str());
      NEXT();
    }
    push(obj->fields()[f->slot]);
    NEXT();
  }
  CASE(PUTFIELD) {
    JField* f = resolveFieldRef(vm, t, owner, owner->pool.at(ip->a),
                                /*want_static=*/false);
    if (f == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::PUTFIELD_Q, f->slot, f);
    Value v = pop();
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE(f->name.c_str());
      NEXT();
    }
    obj->fields()[f->slot] = v;
    NEXT();
  }
  CASE(GETFIELD_Q) {
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE(static_cast<JField*>(ip->ptr)->name.c_str());
      NEXT();
    }
    push(obj->fields()[ip->c]);
    NEXT();
  }
  CASE(PUTFIELD_Q) {
    Value v = pop();
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE(static_cast<JField*>(ip->ptr)->name.c_str());
      NEXT();
    }
    obj->fields()[ip->c] = v;
    NEXT();
  }

  // ---- calls: generic forms resolve + rewrite, then share the tail ----
  CASE(INVOKEVIRTUAL) {
    inv_resolved = resolveMethodRef(vm, t, owner, owner->pool.at(ip->a));
    if (inv_resolved == nullptr) NEXT();
    inv_nargs = inv_resolved->argSlots();
    rewrite(st, qinsns[pc], Op::INVOKEVIRTUAL_Q, inv_nargs, inv_resolved);
    inv_kind = Op::INVOKEVIRTUAL;
    goto L_invoke;
  }
  CASE(INVOKESPECIAL) {
    inv_resolved = resolveMethodRef(vm, t, owner, owner->pool.at(ip->a));
    if (inv_resolved == nullptr) NEXT();
    inv_nargs = inv_resolved->argSlots();
    rewrite(st, qinsns[pc], Op::INVOKESPECIAL_Q, inv_nargs, inv_resolved);
    inv_kind = Op::INVOKESPECIAL;
    goto L_invoke;
  }
  CASE(INVOKESTATIC) {
    inv_resolved = resolveMethodRef(vm, t, owner, owner->pool.at(ip->a));
    if (inv_resolved == nullptr) NEXT();
    inv_nargs = inv_resolved->argSlots();
    rewrite(st, qinsns[pc], Op::INVOKESTATIC_Q, inv_nargs, inv_resolved);
    inv_kind = Op::INVOKESTATIC;
    goto L_invoke;
  }
  CASE(INVOKEINTERFACE) {
    inv_resolved = resolveMethodRef(vm, t, owner, owner->pool.at(ip->a));
    if (inv_resolved == nullptr) NEXT();
    inv_nargs = inv_resolved->argSlots();
    rewrite(st, qinsns[pc], Op::INVOKEINTERFACE_Q, inv_nargs, inv_resolved);
    inv_kind = Op::INVOKEINTERFACE;
    goto L_invoke;
  }
  CASE(INVOKEVIRTUAL_Q) {
    inv_resolved = static_cast<JMethod*>(ip->ptr);
    inv_nargs = ip->c;
    inv_kind = Op::INVOKEVIRTUAL;
    goto L_invoke;
  }
  CASE(INVOKESPECIAL_Q) {
    inv_resolved = static_cast<JMethod*>(ip->ptr);
    inv_nargs = ip->c;
    inv_kind = Op::INVOKESPECIAL;
    goto L_invoke;
  }
  CASE(INVOKESTATIC_Q) {
    inv_resolved = static_cast<JMethod*>(ip->ptr);
    inv_nargs = ip->c;
    inv_kind = Op::INVOKESTATIC;
    goto L_invoke;
  }
  CASE(INVOKEINTERFACE_Q) {
    inv_resolved = static_cast<JMethod*>(ip->ptr);
    inv_nargs = ip->c;
    inv_kind = Op::INVOKEINTERFACE;
    goto L_invoke;
  }

L_invoke: {
  const i32 nargs = inv_nargs;
  IJVM_CHECK(static_cast<size_t>(nargs) <= stack.size(),
             "operand stack underflow at call (verifier miss)");
  // Arguments are passed directly from the caller's operand stack; they
  // stay rooted there (and GC-visible) until the call returns.
  const Value* args = stack.data() + (stack.size() - static_cast<size_t>(nargs));
  JMethod* callee = inv_resolved;
  if (inv_kind == Op::INVOKEVIRTUAL || inv_kind == Op::INVOKEINTERFACE) {
    Object* recv = args[0].asRef();
    if (recv == nullptr) {
      throwNPE(inv_resolved->name.c_str());
      NEXT();
    }
    auto* cache = static_cast<VCallIC*>(ip->ic.load(std::memory_order_acquire));
    if (cache != nullptr && cache->receiver_cls[0] == recv->cls) {
      callee = cache->target[0];
    } else if (cache != nullptr && cache->receiver_cls[1] == recv->cls) {
      callee = cache->target[1];
    } else {
      if (inv_kind == Op::INVOKEVIRTUAL && inv_resolved->vtable_index >= 0 &&
          static_cast<size_t>(inv_resolved->vtable_index) <
              recv->cls->vtable.size()) {
        callee = recv->cls->vtable[static_cast<size_t>(inv_resolved->vtable_index)];
      } else {
        callee = recv->cls->resolveVirtual(inv_resolved->name,
                                           inv_resolved->descriptor);
        if (callee == nullptr) {
          vm.throwGuest(t, "java/lang/AbstractMethodError",
                        inv_resolved->fullName());
          NEXT();
        }
      }
      installVCallIC(st, qinsns[pc], recv->cls, callee, cache);
    }
  } else if (inv_kind == Op::INVOKESTATIC) {
    if (!inv_resolved->isStatic()) {
      vm.throwGuest(t, "java/lang/IncompatibleClassChangeError",
                    inv_resolved->fullName());
      NEXT();
    }
  } else {  // INVOKESPECIAL: ctor / super / private -- direct
    if (args[0].asRef() == nullptr) {
      throwNPE(inv_resolved->name.c_str());
      NEXT();
    }
  }
  flushProfile();
  Value r = vm.invokeCore(t, callee, args, nargs);
  stack.resize(stack.size() - static_cast<size_t>(nargs));
  if (t->pending_exception != nullptr) NEXT();
  if (callee->sig.ret.kind != Kind::Void) push(r);
  NEXT();
}

  // ---- objects & arrays ----
  CASE(NEW) {
    JClass* cls = resolveClassRef(vm, t, owner, owner->pool.at(ip->a));
    if (cls == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::NEW_Q, 0, cls);
    if (cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0) {
      vm.throwGuest(t, "java/lang/InstantiationError", cls->name);
      NEXT();
    }
    if (!vm.ensureInitialized(t, cls)) NEXT();
    Object* obj = vm.allocObject(t, cls);
    if (obj != nullptr) push(Value::ofRef(obj));
    NEXT();
  }
  CASE(NEW_Q) {
    JClass* cls = static_cast<JClass*>(ip->ptr);
    if (cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0) {
      vm.throwGuest(t, "java/lang/InstantiationError", cls->name);
      NEXT();
    }
    if (!vm.ensureInitialized(t, cls)) NEXT();
    Object* obj = vm.allocObject(t, cls);
    if (obj != nullptr) push(Value::ofRef(obj));
    NEXT();
  }
  CASE(NEWARRAY) {
    i32 len = pop().asInt();
    const char* name = ip->a == 0 ? "[I" : (ip->a == 1 ? "[J" : "[D");
    JClass* cls = vm.registry().arrayClass(name);
    Object* arr = vm.allocArrayObject(t, cls, len);
    if (arr != nullptr) push(Value::ofRef(arr));
    NEXT();
  }
  CASE(ANEWARRAY) {
    i32 len = pop().asInt();
    JClass* elem = resolveClassRef(vm, t, owner, owner->pool.at(ip->a));
    if (elem == nullptr) NEXT();
    JClass* cls = vm.registry().resolve(elem->loader, "[L" + elem->name + ";");
    if (cls == nullptr) {
      vm.throwGuest(t, "java/lang/NoClassDefFoundError", elem->name);
      NEXT();
    }
    rewrite(st, qinsns[pc], Op::ANEWARRAY_Q, 0, cls);
    Object* arr = vm.allocArrayObject(t, cls, len);
    if (arr != nullptr) push(Value::ofRef(arr));
    NEXT();
  }
  CASE(ANEWARRAY_Q) {
    i32 len = pop().asInt();
    Object* arr = vm.allocArrayObject(t, static_cast<JClass*>(ip->ptr), len);
    if (arr != nullptr) push(Value::ofRef(arr));
    NEXT();
  }
  CASE(ARRAYLENGTH) {
    Object* arr = pop().asRef();
    if (arr == nullptr) {
      throwNPE("arraylength");
      NEXT();
    }
    push(Value::ofInt(arr->length));
    NEXT();
  }

#define IJVM_ALOAD(OPNAME, ACCESSOR, MAKE)                                     \
  CASE(OPNAME) {                                                               \
    i32 idx = pop().asInt();                                                   \
    Object* arr = pop().asRef();                                               \
    if (arr == nullptr) {                                                      \
      throwNPE(#OPNAME);                                                       \
      NEXT();                                                                  \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      vm.throwGuest(t, "java/lang/ArrayIndexOutOfBoundsException",             \
                    strf("%d", idx));                                          \
      NEXT();                                                                  \
    }                                                                          \
    push(MAKE(arr->ACCESSOR()[idx]));                                          \
    NEXT();                                                                    \
  }
  IJVM_ALOAD(IALOAD, intElems, Value::ofInt)
  IJVM_ALOAD(LALOAD, longElems, Value::ofLong)
  IJVM_ALOAD(DALOAD, doubleElems, Value::ofDouble)
  IJVM_ALOAD(AALOAD, refElems, Value::ofRef)
#undef IJVM_ALOAD

#define IJVM_ASTORE(OPNAME, ACCESSOR, GETTER, CAST)                            \
  CASE(OPNAME) {                                                               \
    Value v = pop();                                                           \
    i32 idx = pop().asInt();                                                   \
    Object* arr = pop().asRef();                                               \
    if (arr == nullptr) {                                                      \
      throwNPE(#OPNAME);                                                       \
      NEXT();                                                                  \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      vm.throwGuest(t, "java/lang/ArrayIndexOutOfBoundsException",             \
                    strf("%d", idx));                                          \
      NEXT();                                                                  \
    }                                                                          \
    arr->ACCESSOR()[idx] = CAST(v.GETTER());                                   \
    NEXT();                                                                    \
  }
  IJVM_ASTORE(IASTORE, intElems, asInt, static_cast<i32>)
  IJVM_ASTORE(LASTORE, longElems, asLong, static_cast<i64>)
  IJVM_ASTORE(DASTORE, doubleElems, asDouble, static_cast<double>)
#undef IJVM_ASTORE
  CASE(AASTORE) {
    Value v = pop();
    i32 idx = pop().asInt();
    Object* arr = pop().asRef();
    if (arr == nullptr) {
      throwNPE("AASTORE");
      NEXT();
    }
    if (idx < 0 || idx >= arr->length) {
      vm.throwGuest(t, "java/lang/ArrayIndexOutOfBoundsException",
                    strf("%d", idx));
      NEXT();
    }
    Object* elem = v.asRef();
    if (elem != nullptr && arr->cls->elem_class != nullptr &&
        !elem->cls->isAssignableTo(arr->cls->elem_class)) {
      vm.throwGuest(t, "java/lang/ArrayStoreException", elem->cls->name);
      NEXT();
    }
    arr->refElems()[idx] = elem;
    NEXT();
  }

  // ---- type checks ----
  CASE(CHECKCAST) {
    JClass* target = resolveClassRef(vm, t, owner, owner->pool.at(ip->a));
    if (target == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::CHECKCAST_Q, 0, target);
    Object* obj = stack.empty() ? nullptr : stack.back().asRef();
    if (obj != nullptr && !obj->cls->isAssignableTo(target)) {
      vm.throwGuest(t, "java/lang/ClassCastException",
                    strf("%s -> %s", obj->cls->name.c_str(), target->name.c_str()));
    }
    NEXT();
  }
  CASE(CHECKCAST_Q) {
    JClass* target = static_cast<JClass*>(ip->ptr);
    Object* obj = stack.empty() ? nullptr : stack.back().asRef();
    if (obj != nullptr && !obj->cls->isAssignableTo(target)) {
      vm.throwGuest(t, "java/lang/ClassCastException",
                    strf("%s -> %s", obj->cls->name.c_str(), target->name.c_str()));
    }
    NEXT();
  }
  CASE(INSTANCEOF) {
    JClass* target = resolveClassRef(vm, t, owner, owner->pool.at(ip->a));
    if (target == nullptr) NEXT();
    rewrite(st, qinsns[pc], Op::INSTANCEOF_Q, 0, target);
    Object* obj = pop().asRef();
    push(Value::ofInt(obj != nullptr && obj->cls->isAssignableTo(target) ? 1 : 0));
    NEXT();
  }
  CASE(INSTANCEOF_Q) {
    JClass* target = static_cast<JClass*>(ip->ptr);
    Object* obj = pop().asRef();
    push(Value::ofInt(obj != nullptr && obj->cls->isAssignableTo(target) ? 1 : 0));
    NEXT();
  }

  // ---- monitors ----
  CASE(MONITORENTER) {
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE("monitorenter");
      NEXT();
    }
    Monitor* mon = vm.monitorOf(obj);
    bool acquired = mon->tryEnter(t);
    if (!acquired) {
      BlockedScope blocked(safepoints, t);
      acquired = mon->enter(t, &t->force_kill);
    }
    if (!acquired) throwStopped(vm, t, kKillAll);
    NEXT();
  }
  CASE(MONITOREXIT) {
    Object* obj = pop().asRef();
    if (obj == nullptr) {
      throwNPE("monitorexit");
      NEXT();
    }
    if (!vm.monitorOf(obj)->exit(t)) {
      vm.throwGuest(t, "java/lang/IllegalMonitorStateException", "not owner");
    }
    NEXT();
  }

  // ---- exceptions ----
  CASE(ATHROW) {
    Object* exc = pop().asRef();
    if (exc == nullptr) {
      throwNPE("athrow");
      NEXT();
    }
    t->pending_exception = exc;
    NEXT();
  }

#if !IJVM_COMPUTED_GOTO
  }
  IJVM_UNREACHABLE("opcode missing from quickened dispatch");
#endif

L_exception:
  flushProfile();
  if (dispatchExceptionInFrame(vm, t, frame)) {
    poll();
    next = frame.pc;
    NEXT();
  }
  return {};  // unwind to caller (an aborted execution does not warm the
              // stream -- see QCode::warmed)

#undef CASE
#undef NEXT
#undef TAKE_BRANCH
#undef IJVM_MAYBE_OSR
}

std::string disasmQuickened(VM& vm, JMethod* m) {
  (void)vm;
  auto* qc = static_cast<QCode*>(m->qcode.load(std::memory_order_acquire));
  if (qc == nullptr) return "";
  const bool fused = qc->fusion_partial.load(std::memory_order_acquire);
  std::string out =
      fused ? strf("%s  (quickened+fused, %zu insns, %u fused groups)\n",
                   m->fullName().c_str(), qc->insns.size(),
                   qc->fused_groups.load(std::memory_order_relaxed))
            : strf("%s  (quickened, %zu insns)\n", m->fullName().c_str(),
                   qc->insns.size());
  for (size_t i = 0; i < qc->insns.size(); ++i) {
    const QInsn& q = qc->insns[i];
    const Op op = q.op.load(std::memory_order_acquire);
    if (opIsFused(op)) {
      // Fused heads carry lifted operands in the payload fields; the
      // covered inner instructions follow, marked as such (they keep
      // their original opcodes but are skipped by fall-through).
      std::string field_sym;
      if (op == Op::ALOAD_GETFIELD_F) {
        const auto* f = static_cast<const JField*>(q.ptr);
        field_sym = strf("%s.%s", f->owner->name.c_str(), f->name.c_str());
      }
      out += "  " + disasmFusedInsn(op, static_cast<i32>(i), q.a, q.b, q.c,
                                    q.imm, field_sym) +
             "\n";
      continue;
    }
    Instruction insn;
    insn.op = op;
    insn.a = q.a;
    insn.b = q.b;
    std::string line = disasmInsn(m->owner->pool, insn, static_cast<i32>(i));
    // Annotate instructions swallowed by a preceding fused head.
    for (i32 back = 1; back <= 2 && static_cast<i32>(i) - back >= 0; ++back) {
      const Op head =
          qc->insns[i - static_cast<size_t>(back)].op.load(std::memory_order_acquire);
      if (opIsFused(head) && opFusedLength(head) > back) {
        line += "   ; in fused group";
        break;
      }
    }
    out += "  " + line + "\n";
  }
  return out;
}

}  // namespace ijvm::exec
