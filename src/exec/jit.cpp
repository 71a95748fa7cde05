// The tier-3 baseline JIT: a call-threaded method compiler.
//
// "Compilation" here is portable call-threading, not native code: a hot
// method's quickened/fused stream is translated once into a flat array of
// MInsn thunks -- each a pre-bound handler function pointer plus fully
// resolved operands -- and execution is
//
//   const MInsn* ip = jc.entry;            // the patchable entry point
//   while (ip != nullptr) ip = ip->fn(cx, *ip);
//
// one indirect call per thunk. Relative to the threaded interpreter this
// removes, per executed instruction: the atomic opcode load, the pc bounds
// check, the per-instruction frame.pc store, the operand decode, and the
// std::vector push/pop traffic (the compiled frame drives a raw
// operand-stack pointer over a pre-sized region of frame.stack). Branch
// targets are pre-linked as MInsn pointers; fused superinstructions
// compile to single thunks; and the compiler peepholes one jit-only
// combination (fused arithmetic straight into a local store) on top.
//
// Everything the execution tiers must agree on -- inline-cache state,
// safepoint/termination polling, per-isolate statics, exception dispatch,
// profile counters -- is shared with engine.cpp, not duplicated: compiled
// thunks read and install ICs through the *same* QInsn::ic slots, and the
// slow paths (installVCallIC / staticMirrorSlow) are the interpreter's
// own. The full compiled-code contract lives in docs/jit.md.
//
// GC discipline: the compiled frame resizes frame.stack to the method's
// verified max stack depth once at entry and keeps it that size, so the
// GC's frame scan always covers every slot the raw stack pointer can
// touch. Slots above the logical depth hold dead-but-traceable values
// (they were either zero-initialized or legitimately popped), which can
// retain garbage until the frame exits but can never dangle.
#include "exec/jit.h"

#include <deque>
#include <vector>

#include "bytecode/disasm.h"
#include "classes/class_loader.h"
#include "exec/code_cache.h"
#include "exec/compile_manager.h"
#include "exec/interp_support.h"
#include "exec/jit_internal.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/vm.h"
#include "support/strf.h"

namespace ijvm::exec {

using namespace interp;

namespace {

// Trace payloads for compile-pipeline events (obs/trace.h): the method's
// interned "Class.name" and its defining isolate. Cold paths only (the
// interning takes a lock).
u32 jitTraceName(const JMethod* m) {
  if (!obs::traceEnabled()) return 0;
  return obs::internTraceName(m->owner->name + "." + m->name);
}

i32 jitTraceIsolate(const JMethod* m) {
  Isolate* iso = m->owner->loader->isolate();
  return iso != nullptr ? iso->id : -1;
}

}  // namespace

// Out-of-line so ExecState's jit_codes arena can own the otherwise-opaque
// JitCode (quickened.h forward-declares it), and so its CodeCache /
// CompileManager members see complete types. The CompileManager itself is
// created lazily by the first background promote-to-JIT request.
ExecState::ExecState() : code_cache(std::make_unique<CodeCache>()) {}
ExecState::~ExecState() = default;

struct JitCtx {
  JitCtx(VM& vm_in, JThread* t_in, Frame& frame_in, JitCode& jc_in)
      : vm(vm_in), t(t_in), frame(frame_in), jc(jc_in) {}

  VM& vm;
  JThread* t;
  Frame& frame;
  JitCode& jc;
  Value* base = nullptr;  // frame.stack backing, sized to max_stack
  Value* sp = nullptr;    // next free operand slot
  Value* locals = nullptr;
  u64 pending_edges = 0;
  // Total back-edges this compiled execution ran (accumulated at every
  // flushEdges): the payoff model's per-invocation unit weight, so an
  // invocation spinning a long loop is not costed like a straight call.
  u64 total_edges = 0;
  bool accounting = false;
  // The executing isolate's TCM index, hoisted once per compiled entry:
  // a thread's isolate reference is fixed for the duration of one frame
  // (inter-isolate calls switch it on entry and restore it on return), so
  // every static access in this frame keys the same cache slot.
  i32 tcm_idx = 0;
  JitExit exit = JitExit::Returned;
  Value result;
};

namespace {

// ---- shared runtime helpers -------------------------------------------

void flushEdges(JitCtx& cx) {
  if (cx.pending_edges == 0) return;
  cx.total_edges += cx.pending_edges;
  cx.frame.method->profile_loop_edges.fetch_add(cx.pending_edges,
                                                std::memory_order_relaxed);
  if (cx.accounting && cx.frame.isolate != nullptr) {
    cx.frame.isolate->stats.loop_back_edges.fetch_add(cx.pending_edges,
                                                      std::memory_order_relaxed);
  }
  cx.pending_edges = 0;
}

// Safepoint & thread-attention poll; same cadence as the threaded
// interpreter (method entry, taken loop back-edges, exception dispatch).
void pollJit(JitCtx& cx) {
  JThread* t = cx.t;
  SafepointController& sps = cx.vm.safepoints();
  if (sps.stopRequested()) sps.poll();
  t->publishEra(sps.currentEra());
  if (t->force_kill.load(std::memory_order_relaxed) &&
      t->pending_exception == nullptr) {
    throwStopped(cx.vm, t, kKillAll);
  } else if (t->pending_stop_isolate.load(std::memory_order_relaxed) >= 0 &&
             t->pending_exception == nullptr) {
    i32 target = t->pending_stop_isolate.exchange(-1, std::memory_order_acq_rel);
    if (target >= 0) throwStopped(cx.vm, t, target);
  }
  IJVM_PROFILE_POLL(cx.vm, t);
}

// Exception raised at this thunk: record the faulting pc and enter the
// shared dispatch thunk.
inline const MInsn* throwHere(JitCtx& cx, const MInsn& mi) {
  cx.frame.pc = mi.pc;
  return &cx.jc.exn;
}

void invalidate(JitCode& jc) {
  jc.invalidated.store(true, std::memory_order_release);
  jc.qc->jit_deopts.fetch_add(1, std::memory_order_relaxed);
  obs::emit(obs::Ev::JitDeopt, obs::Ph::Instant, jitTraceIsolate(jc.method),
            jitTraceName(jc.method));
  // Un-patch the entry and retire the code into the cache's reclaim set
  // (code_cache.cpp). The arena keeps the JitCode alive for threads still
  // inside it; sweepRetiredJitCode frees it once none are.
  retireJitCode(jc, /*deopt=*/true);
}

// Deoptimize: hand the frame to the threaded interpreter at `pc` with the
// operand stack resized to its logical depth, and invalidate the compiled
// code (the cold site will quicken under the interpreter; the method
// re-promotes later and the next compile covers it -- docs/jit.md).
const MInsn* deoptAt(JitCtx& cx, i32 pc) {
  flushEdges(cx);
  cx.frame.pc = pc;
  cx.frame.stack.resize(static_cast<size_t>(cx.sp - cx.base));
  cx.exit = JitExit::Deopt;
  invalidate(cx.jc);
  return nullptr;
}

// Taken branch: pre-linked target, with back-edge counting and the
// termination poll (frame.pc moves to the target *before* the poll so a
// stop exception dispatches there, as in the interpreter tiers).
inline const MInsn* takeBranch(JitCtx& cx, const MInsn& mi) {
  if (mi.tpc <= mi.pc) {
    if ((++cx.pending_edges & 0xFFF) == 0) flushEdges(cx);
    cx.frame.pc = mi.tpc;
    pollJit(cx);
    if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  }
  return mi.target;
}

inline void jpush(JitCtx& cx, Value v) { *cx.sp++ = v; }
inline Value jpop(JitCtx& cx) { return *--cx.sp; }

#define JH(name) const MInsn* name(JitCtx& cx, const MInsn& mi)

// ---- control thunks ---------------------------------------------------

// The shared exception-dispatch thunk. frame.pc was set by whoever threw.
JH(op_exception) {
  (void)mi;
  flushEdges(cx);
  Frame& f = cx.frame;
  if (!dispatchExceptionInFrame(cx.vm, cx.t, f)) {
    cx.exit = JitExit::Unwound;
    return nullptr;  // unwind to caller with the exception pending
  }
  // Handled: the dispatcher left [exc] as the sole stack entry. Restore
  // the full scanned region and resume at the handler's thunk.
  f.stack.resize(cx.jc.max_stack);
  cx.base = f.stack.data();
  cx.sp = cx.base + 1;
  pollJit(cx);
  if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  const i32 slot = cx.jc.slot_of_pc[static_cast<size_t>(f.pc)];
  if (slot < 0) return deoptAt(cx, f.pc);  // handler pc not compiled
  return &cx.jc.code[static_cast<size_t>(slot)];
}

// Entry thunk installed by poisonCompiledEntry: the paper's patched
// compiled-method entry point. Raises StoppedIsolateException targeting
// the owning (terminated) isolate; the dispatch thunk then skips every
// handler of that isolate, so the method can never be re-entered.
JH(op_entry_poisoned) {
  (void)mi;
  Isolate* iso = cx.frame.method->owner->loader->isolate();
  throwStopped(cx.vm, cx.t, iso != nullptr ? iso->id : kKillAll);
  cx.frame.pc = 0;
  return &cx.jc.exn;
}

// Compiled placeholder for an instruction that had not quickened when the
// method was compiled (a cold path inside a hot method).
JH(op_deopt) { return deoptAt(cx, mi.pc); }

// First thunk of an on-stack-replacement entry (docs/jit.md): the
// method-entry poll, run at the loop header the live frame just
// transferred onto. frame.pc is already at the header, so a stop raised
// by the poll dispatches there -- the same rule compiled back-edges obey.
JH(op_osr_enter) {
  pollJit(cx);
  if (cx.t->pending_exception != nullptr) {
    cx.frame.pc = mi.pc;
    return &cx.jc.exn;
  }
  return mi.target;
}

// Poisoned OSR entry installed by poisonCompiledEntry: the same
// patched-entry mechanism as op_entry_poisoned, but frame.pc stays at the
// loop header the transfer targeted (every handler of the dead isolate is
// skipped by the dispatch thunk regardless).
JH(op_osr_poisoned) {
  (void)mi;
  Isolate* iso = cx.frame.method->owner->loader->isolate();
  throwStopped(cx.vm, cx.t, iso != nullptr ? iso->id : kKillAll);
  return &cx.jc.exn;
}

// ---- constants / locals / stack ---------------------------------------

JH(op_nop) {
  (void)cx;
  return mi.next;
}
JH(op_aconst_null) {
  jpush(cx, Value::nullRef());
  return mi.next;
}
JH(op_iconst) {
  jpush(cx, Value::ofInt(mi.a));
  return mi.next;
}
JH(op_ldc_int) {
  jpush(cx, Value::ofInt(static_cast<i32>(mi.imm)));
  return mi.next;
}
JH(op_ldc_long) {
  jpush(cx, Value::ofLong(mi.imm));
  return mi.next;
}
JH(op_ldc_double) {
  jpush(cx, Value::ofDouble(mi.dimm));
  return mi.next;
}
JH(op_ldc_str) {
  Object* s = cx.vm.internString(cx.t, static_cast<CpEntry*>(mi.ptr)->text);
  if (s != nullptr) jpush(cx, Value::ofRef(s));
  if (cx.t->pending_exception != nullptr) return throwHere(cx, mi);
  return mi.next;
}
JH(op_load) {
  jpush(cx, cx.locals[mi.a]);
  return mi.next;
}
JH(op_store) {
  cx.locals[mi.a] = jpop(cx);
  return mi.next;
}
JH(op_iinc) {
  Value& v = cx.locals[mi.a];
  v = Value::ofInt(v.asInt() + mi.b);
  return mi.next;
}
JH(op_pop) {
  --cx.sp;
  return mi.next;
}
JH(op_dup) {
  cx.sp[0] = cx.sp[-1];
  ++cx.sp;
  return mi.next;
}
JH(op_dup_x1) {
  Value a = cx.sp[-1];
  Value b = cx.sp[-2];
  cx.sp[-2] = a;
  cx.sp[-1] = b;
  cx.sp[0] = a;
  ++cx.sp;
  return mi.next;
}
JH(op_swap) {
  Value a = cx.sp[-1];
  cx.sp[-1] = cx.sp[-2];
  cx.sp[-2] = a;
  return mi.next;
}

// ---- arithmetic -------------------------------------------------------

#define JIT_IBIN(NAME, EXPR)                                                   \
  JH(NAME) {                                                                   \
    const i32 b = cx.sp[-1].asInt();                                           \
    const i32 a = cx.sp[-2].asInt();                                           \
    --cx.sp;                                                                   \
    cx.sp[-1] = Value::ofInt(EXPR);                                            \
    return mi.next;                                                            \
  }
JIT_IBIN(op_iadd, static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
JIT_IBIN(op_isub, static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
JIT_IBIN(op_imul, static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
JIT_IBIN(op_ishl, static_cast<i32>(static_cast<u32>(a) << wrapShift32(b)))
JIT_IBIN(op_ishr, a >> wrapShift32(b))
JIT_IBIN(op_iushr, static_cast<i32>(static_cast<u32>(a) >> wrapShift32(b)))
JIT_IBIN(op_iand, a & b)
JIT_IBIN(op_ior, a | b)
JIT_IBIN(op_ixor, a ^ b)
#undef JIT_IBIN

JH(op_idiv) {
  const i32 b = jpop(cx).asInt();
  const i32 a = jpop(cx).asInt();
  if (b == 0) {
    cx.vm.throwGuest(cx.t, "java/lang/ArithmeticException", "/ by zero");
    return throwHere(cx, mi);
  }
  jpush(cx, Value::ofInt(idivSafe(a, b)));
  return mi.next;
}
JH(op_irem) {
  const i32 b = jpop(cx).asInt();
  const i32 a = jpop(cx).asInt();
  if (b == 0) {
    cx.vm.throwGuest(cx.t, "java/lang/ArithmeticException", "/ by zero");
    return throwHere(cx, mi);
  }
  jpush(cx, Value::ofInt(iremSafe(a, b)));
  return mi.next;
}
JH(op_ineg) {
  cx.sp[-1] = Value::ofInt(
      static_cast<i32>(0u - static_cast<u32>(cx.sp[-1].asInt())));
  return mi.next;
}

#define JIT_LBIN(NAME, EXPR)                                                   \
  JH(NAME) {                                                                   \
    const i64 b = cx.sp[-1].asLong();                                          \
    const i64 a = cx.sp[-2].asLong();                                          \
    --cx.sp;                                                                   \
    cx.sp[-1] = Value::ofLong(EXPR);                                           \
    return mi.next;                                                            \
  }
JIT_LBIN(op_ladd, static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b)))
JIT_LBIN(op_lsub, static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b)))
JIT_LBIN(op_lmul, static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b)))
JIT_LBIN(op_land, a & b)
JIT_LBIN(op_lor, a | b)
JIT_LBIN(op_lxor, a ^ b)
#undef JIT_LBIN

JH(op_lshl) {
  const i32 sh = jpop(cx).asInt();
  const i64 a = cx.sp[-1].asLong();
  cx.sp[-1] =
      Value::ofLong(static_cast<i64>(static_cast<u64>(a) << wrapShift64(sh)));
  return mi.next;
}
JH(op_lshr) {
  const i32 sh = jpop(cx).asInt();
  const i64 a = cx.sp[-1].asLong();
  cx.sp[-1] = Value::ofLong(a >> wrapShift64(sh));
  return mi.next;
}
JH(op_ldiv) {
  const i64 b = jpop(cx).asLong();
  const i64 a = jpop(cx).asLong();
  if (b == 0) {
    cx.vm.throwGuest(cx.t, "java/lang/ArithmeticException", "/ by zero");
    return throwHere(cx, mi);
  }
  jpush(cx, Value::ofLong(ldivSafe(a, b)));
  return mi.next;
}
JH(op_lrem) {
  const i64 b = jpop(cx).asLong();
  const i64 a = jpop(cx).asLong();
  if (b == 0) {
    cx.vm.throwGuest(cx.t, "java/lang/ArithmeticException", "/ by zero");
    return throwHere(cx, mi);
  }
  jpush(cx, Value::ofLong(lremSafe(a, b)));
  return mi.next;
}
JH(op_lneg) {
  cx.sp[-1] = Value::ofLong(
      static_cast<i64>(0ull - static_cast<u64>(cx.sp[-1].asLong())));
  return mi.next;
}
JH(op_lcmp) {
  const i64 b = jpop(cx).asLong();
  const i64 a = cx.sp[-1].asLong();
  cx.sp[-1] = Value::ofInt(a < b ? -1 : (a > b ? 1 : 0));
  return mi.next;
}

#define JIT_DBIN(NAME, EXPR)                                                   \
  JH(NAME) {                                                                   \
    const double b = cx.sp[-1].asDouble();                                     \
    const double a = cx.sp[-2].asDouble();                                     \
    --cx.sp;                                                                   \
    cx.sp[-1] = Value::ofDouble(EXPR);                                         \
    return mi.next;                                                            \
  }
JIT_DBIN(op_dadd, a + b)
JIT_DBIN(op_dsub, a - b)
JIT_DBIN(op_dmul, a * b)
JIT_DBIN(op_ddiv, a / b)
JIT_DBIN(op_drem, std::fmod(a, b))
#undef JIT_DBIN

JH(op_dneg) {
  cx.sp[-1] = Value::ofDouble(-cx.sp[-1].asDouble());
  return mi.next;
}
JH(op_dcmpl) {
  const double b = jpop(cx).asDouble();
  const double a = cx.sp[-1].asDouble();
  i32 r = (std::isnan(a) || std::isnan(b)) ? -1 : (a < b ? -1 : (a > b ? 1 : 0));
  cx.sp[-1] = Value::ofInt(r);
  return mi.next;
}
JH(op_dcmpg) {
  const double b = jpop(cx).asDouble();
  const double a = cx.sp[-1].asDouble();
  i32 r = (std::isnan(a) || std::isnan(b)) ? 1 : (a < b ? -1 : (a > b ? 1 : 0));
  cx.sp[-1] = Value::ofInt(r);
  return mi.next;
}

JH(op_i2l) {
  cx.sp[-1] = Value::ofLong(cx.sp[-1].asInt());
  return mi.next;
}
JH(op_i2d) {
  cx.sp[-1] = Value::ofDouble(cx.sp[-1].asInt());
  return mi.next;
}
JH(op_l2i) {
  cx.sp[-1] = Value::ofInt(static_cast<i32>(cx.sp[-1].asLong()));
  return mi.next;
}
JH(op_l2d) {
  cx.sp[-1] = Value::ofDouble(static_cast<double>(cx.sp[-1].asLong()));
  return mi.next;
}
JH(op_d2i) {
  cx.sp[-1] = Value::ofInt(d2iSat(cx.sp[-1].asDouble()));
  return mi.next;
}
JH(op_d2l) {
  cx.sp[-1] = Value::ofLong(d2lSat(cx.sp[-1].asDouble()));
  return mi.next;
}

// ---- branches ---------------------------------------------------------

#define JIT_IF1(NAME, CMP)                                                     \
  JH(NAME) {                                                                   \
    const i32 a = jpop(cx).asInt();                                            \
    if (a CMP 0) return takeBranch(cx, mi);                                    \
    return mi.next;                                                            \
  }
JIT_IF1(op_ifeq, ==)
JIT_IF1(op_ifne, !=)
JIT_IF1(op_iflt, <)
JIT_IF1(op_ifge, >=)
JIT_IF1(op_ifgt, >)
JIT_IF1(op_ifle, <=)
#undef JIT_IF1

#define JIT_IF2(NAME, CMP)                                                     \
  JH(NAME) {                                                                   \
    const i32 b = jpop(cx).asInt();                                            \
    const i32 a = jpop(cx).asInt();                                            \
    if (a CMP b) return takeBranch(cx, mi);                                    \
    return mi.next;                                                            \
  }
JIT_IF2(op_if_icmpeq, ==)
JIT_IF2(op_if_icmpne, !=)
JIT_IF2(op_if_icmplt, <)
JIT_IF2(op_if_icmpge, >=)
JIT_IF2(op_if_icmpgt, >)
JIT_IF2(op_if_icmple, <=)
#undef JIT_IF2

JH(op_if_acmpeq) {
  Object* b = jpop(cx).asRef();
  Object* a = jpop(cx).asRef();
  if (a == b) return takeBranch(cx, mi);
  return mi.next;
}
JH(op_if_acmpne) {
  Object* b = jpop(cx).asRef();
  Object* a = jpop(cx).asRef();
  if (a != b) return takeBranch(cx, mi);
  return mi.next;
}
JH(op_ifnull) {
  if (jpop(cx).asRef() == nullptr) return takeBranch(cx, mi);
  return mi.next;
}
JH(op_ifnonnull) {
  if (jpop(cx).asRef() != nullptr) return takeBranch(cx, mi);
  return mi.next;
}
JH(op_goto) { return takeBranch(cx, mi); }

// ---- fused superinstructions (compiled from the tier-2 stream) --------

#define JIT_FUSED_ARITH(NAME, EXPR)                                            \
  JH(NAME) {                                                                   \
    const i32 a = cx.locals[mi.a].asInt();                                     \
    const i32 b = cx.locals[mi.c].asInt();                                     \
    jpush(cx, Value::ofInt(EXPR));                                             \
    return mi.next;                                                            \
  }
JIT_FUSED_ARITH(op_ll_iadd, static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
JIT_FUSED_ARITH(op_ll_isub, static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
JIT_FUSED_ARITH(op_ll_imul, static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
JIT_FUSED_ARITH(op_ll_iand, a & b)
JIT_FUSED_ARITH(op_ll_ior, a | b)
JIT_FUSED_ARITH(op_ll_ixor, a ^ b)
#undef JIT_FUSED_ARITH

// Jit-only peephole: fused arithmetic straight into a local store
// (`ILOAD a; ILOAD c; <op>; ISTORE b` in one thunk, zero stack traffic).
#define JIT_FUSED_ARITH_ST(NAME, EXPR)                                         \
  JH(NAME) {                                                                   \
    const i32 a = cx.locals[mi.a].asInt();                                     \
    const i32 b = cx.locals[mi.c].asInt();                                     \
    cx.locals[mi.b] = Value::ofInt(EXPR);                                      \
    return mi.next;                                                            \
  }
JIT_FUSED_ARITH_ST(op_ll_iadd_st, static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
JIT_FUSED_ARITH_ST(op_ll_isub_st, static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
JIT_FUSED_ARITH_ST(op_ll_imul_st, static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
JIT_FUSED_ARITH_ST(op_ll_iand_st, a & b)
JIT_FUSED_ARITH_ST(op_ll_ior_st, a | b)
JIT_FUSED_ARITH_ST(op_ll_ixor_st, a ^ b)
#undef JIT_FUSED_ARITH_ST

// Jit-only peephole: the long/double analog of the int local-pair triples
// (`DLOAD a; DLOAD c; <op>` / `LLOAD a; LLOAD c; <op>` in one thunk).
// The fusion tier never forms these -- wide pairs are rare in classic
// OSGi code -- but numeric kernels (the mpegaudio FIR shape) spin on
// them; the compiler picks them up from the *plain* quickened stream.
// LDIV/LREM are excluded: they throw, and the triple's zero-divisor
// unwind state would need its own dispatch bookkeeping for a case that
// is never hot.
#define JIT_WIDE_ARITH(NAME, GETTER, MAKE, EXPR)                               \
  JH(NAME) {                                                                   \
    const auto a = cx.locals[mi.a].GETTER();                                   \
    const auto b = cx.locals[mi.c].GETTER();                                   \
    jpush(cx, MAKE(EXPR));                                                     \
    return mi.next;                                                            \
  }
JIT_WIDE_ARITH(op_dd_dadd, asDouble, Value::ofDouble, a + b)
JIT_WIDE_ARITH(op_dd_dsub, asDouble, Value::ofDouble, a - b)
JIT_WIDE_ARITH(op_dd_dmul, asDouble, Value::ofDouble, a * b)
JIT_WIDE_ARITH(op_dd_ddiv, asDouble, Value::ofDouble, a / b)
JIT_WIDE_ARITH(op_lw_ladd, asLong, Value::ofLong,
               static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b)))
JIT_WIDE_ARITH(op_lw_lsub, asLong, Value::ofLong,
               static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b)))
JIT_WIDE_ARITH(op_lw_lmul, asLong, Value::ofLong,
               static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b)))
JIT_WIDE_ARITH(op_lw_land, asLong, Value::ofLong, a & b)
JIT_WIDE_ARITH(op_lw_lor, asLong, Value::ofLong, a | b)
JIT_WIDE_ARITH(op_lw_lxor, asLong, Value::ofLong, a ^ b)
#undef JIT_WIDE_ARITH

#define JIT_FUSED_CMP(NAME, CMP)                                               \
  JH(NAME) {                                                                   \
    const i32 a = cx.locals[mi.a].asInt();                                     \
    const i32 b = cx.locals[mi.c].asInt();                                     \
    if (a CMP b) return takeBranch(cx, mi);                                    \
    return mi.next;                                                            \
  }
JIT_FUSED_CMP(op_ll_icmpeq, ==)
JIT_FUSED_CMP(op_ll_icmpne, !=)
JIT_FUSED_CMP(op_ll_icmplt, <)
JIT_FUSED_CMP(op_ll_icmpge, >=)
JIT_FUSED_CMP(op_ll_icmpgt, >)
JIT_FUSED_CMP(op_ll_icmple, <=)
#undef JIT_FUSED_CMP

JH(op_iconst_iadd) {
  cx.sp[-1] = Value::ofInt(static_cast<i32>(
      static_cast<u32>(cx.sp[-1].asInt()) + static_cast<u32>(mi.a)));
  return mi.next;
}
JH(op_aload_getfield) {
  Object* obj = cx.locals[mi.a].asRef();
  if (obj == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException",
                     static_cast<JField*>(mi.ptr)->name);
    return throwHere(cx, mi);
  }
  jpush(cx, obj->fields()[mi.c]);
  return mi.next;
}
JH(op_iinc_goto) {
  Value& v = cx.locals[mi.a];
  v = Value::ofInt(v.asInt() + mi.b);
  return takeBranch(cx, mi);
}

// Jit-only peephole: instance-field load feeding an int arithmetic op in
// one thunk. Two receiver sources share one body: `GETFIELD_Q f; <op>`
// takes the receiver from the stack (stack [.., x, obj] -> [.., x op
// obj.f], no intermediate push), the fused `ALOAD_GETFIELD_F; <op>` form
// reads it straight from a local. On NPE the stack is exactly as the
// interpreter leaves it (the stacked receiver was popped); handlers
// clear the stack on entry, so the partial consumption is unobservable
// (same rule as fused groups).
#define JIT_FIELD_ARITH(NAME, OBJ_EXPR, EXPR)                                  \
  JH(NAME) {                                                                   \
    Object* obj = (OBJ_EXPR).asRef();                                          \
    if (obj == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException",                 \
                       static_cast<JField*>(mi.ptr)->name);                    \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    const i32 b = obj->fields()[mi.c].asInt();                                 \
    const i32 a = cx.sp[-1].asInt();                                           \
    cx.sp[-1] = Value::ofInt(EXPR);                                            \
    return mi.next;                                                            \
  }
#define JIT_FIELD_ARITH_PAIR(OP, EXPR)                                         \
  JIT_FIELD_ARITH(op_gf_##OP, jpop(cx), EXPR)                                  \
  JIT_FIELD_ARITH(op_lgf_##OP, cx.locals[mi.a], EXPR)
JIT_FIELD_ARITH_PAIR(iadd, static_cast<i32>(static_cast<u32>(a) + static_cast<u32>(b)))
JIT_FIELD_ARITH_PAIR(isub, static_cast<i32>(static_cast<u32>(a) - static_cast<u32>(b)))
JIT_FIELD_ARITH_PAIR(imul, static_cast<i32>(static_cast<u32>(a) * static_cast<u32>(b)))
JIT_FIELD_ARITH_PAIR(iand, a & b)
JIT_FIELD_ARITH_PAIR(ior, a | b)
JIT_FIELD_ARITH_PAIR(ixor, a ^ b)
#undef JIT_FIELD_ARITH_PAIR
#undef JIT_FIELD_ARITH

// ---- returns ----------------------------------------------------------

JH(op_return) {
  (void)mi;
  flushEdges(cx);
  cx.exit = JitExit::Returned;
  return nullptr;
}
JH(op_vreturn) {
  (void)mi;
  flushEdges(cx);
  cx.exit = JitExit::Returned;
  cx.result = *--cx.sp;
  return nullptr;
}

// ---- statics (isolate-keyed mirror caches, shared with tier 1) --------

// Isolate-keyed mirror lookup through the shared StaticIC slot; null on
// a cache miss (caller takes the shared slow path).
inline TaskClassMirror* staticMirrorFast(JitCtx& cx, const MInsn& mi) {
  if (auto* sic = static_cast<StaticIC*>(mi.q->ic.load(std::memory_order_acquire))) {
    if (static_cast<size_t>(cx.tcm_idx) < sic->slots.size()) {
      return sic->slots[static_cast<size_t>(cx.tcm_idx)].load(
          std::memory_order_acquire);
    }
  }
  return nullptr;
}

JH(op_getstatic_q) {
  TaskClassMirror* mirror = staticMirrorFast(cx, mi);
  if (mirror == nullptr) {
    cx.frame.pc = mi.pc;  // slow path may run <clinit> / throw / GC
    mirror = staticMirrorSlow(cx.vm, cx.t, *cx.jc.qc->state, *mi.q,
                              static_cast<JField*>(mi.ptr));
    if (mirror == nullptr) return &cx.jc.exn;
  }
  jpush(cx, mirror->statics[static_cast<size_t>(mi.c)]);
  return mi.next;
}
JH(op_putstatic_q) {
  TaskClassMirror* mirror = staticMirrorFast(cx, mi);
  if (mirror == nullptr) {
    cx.frame.pc = mi.pc;
    mirror = staticMirrorSlow(cx.vm, cx.t, *cx.jc.qc->state, *mi.q,
                              static_cast<JField*>(mi.ptr));
    if (mirror == nullptr) return &cx.jc.exn;
  }
  mirror->statics[static_cast<size_t>(mi.c)] = jpop(cx);
  return mi.next;
}

// Jit-only peephole: a static int read-modify-write through one mirror
// lookup (`GETSTATIC_Q f; ICONST k; IADD; PUTSTATIC_Q f` -- fused or not
// -- in one thunk). Sound because both accesses name the same field of
// the same isolate's mirror, so a single cache hit proves <clinit> ran
// for both; the write is one store, so no partial state is observable.
JH(op_static_iadd) {
  TaskClassMirror* mirror = staticMirrorFast(cx, mi);
  if (mirror == nullptr) {
    cx.frame.pc = mi.pc;
    mirror = staticMirrorSlow(cx.vm, cx.t, *cx.jc.qc->state, *mi.q,
                              static_cast<JField*>(mi.ptr));
    if (mirror == nullptr) return &cx.jc.exn;
  }
  Value& slot = mirror->statics[static_cast<size_t>(mi.c)];
  slot = Value::ofInt(static_cast<i32>(static_cast<u32>(slot.asInt()) +
                                       static_cast<u32>(mi.a)));
  return mi.next;
}

// ---- instance fields --------------------------------------------------

JH(op_getfield_q) {
  Object* obj = jpop(cx).asRef();
  if (obj == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException",
                     static_cast<JField*>(mi.ptr)->name);
    return throwHere(cx, mi);
  }
  jpush(cx, obj->fields()[mi.c]);
  return mi.next;
}
JH(op_putfield_q) {
  Value v = jpop(cx);
  Object* obj = jpop(cx).asRef();
  if (obj == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException",
                     static_cast<JField*>(mi.ptr)->name);
    return throwHere(cx, mi);
  }
  obj->fields()[mi.c] = v;
  return mi.next;
}

// ---- calls ------------------------------------------------------------

// Shared call tail. The arguments live in our scanned stack region, so
// they stay GC-visible for the duration of the call.
inline const MInsn* finishCall(JitCtx& cx, const MInsn& mi, JMethod* callee,
                               i32 nargs, bool discard = false) {
  flushEdges(cx);
  cx.frame.pc = mi.pc;  // exception dispatch resumes at the call site
  Value r = cx.vm.invokeCore(cx.t, callee, cx.sp - nargs, nargs);
  cx.sp -= nargs;
  if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  if (!discard && callee->sig.ret.kind != Kind::Void) jpush(cx, r);
  return mi.next;
}

// Virtual/interface dispatch through the *shared* VCallIC slot: the same
// mono -> 2-entry poly -> megamorphic machine as the interpreter, driven
// by the same installVCallIC slow path.
inline const MInsn* invokeWithIC(JitCtx& cx, const MInsn& mi, bool is_virtual,
                                 bool discard = false) {
  JMethod* resolved = static_cast<JMethod*>(mi.ptr);
  const i32 nargs = mi.c;
  Object* recv = cx.sp[-nargs].asRef();
  if (recv == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", resolved->name);
    return throwHere(cx, mi);
  }
  JMethod* callee;
  auto* cache = static_cast<VCallIC*>(mi.q->ic.load(std::memory_order_acquire));
  if (cache != nullptr && cache->receiver_cls[0] == recv->cls) {
    callee = cache->target[0];
  } else if (cache != nullptr && cache->receiver_cls[1] == recv->cls) {
    callee = cache->target[1];
  } else {
    if (is_virtual && resolved->vtable_index >= 0 &&
        static_cast<size_t>(resolved->vtable_index) < recv->cls->vtable.size()) {
      callee = recv->cls->vtable[static_cast<size_t>(resolved->vtable_index)];
    } else {
      callee = recv->cls->resolveVirtual(resolved->name, resolved->descriptor);
      if (callee == nullptr) {
        cx.vm.throwGuest(cx.t, "java/lang/AbstractMethodError",
                         resolved->fullName());
        return throwHere(cx, mi);
      }
    }
    installVCallIC(*cx.jc.qc->state, *mi.q, recv->cls, callee, cache);
  }
  return finishCall(cx, mi, callee, nargs, discard);
}

JH(op_invokevirtual) { return invokeWithIC(cx, mi, /*is_virtual=*/true); }
JH(op_invokeinterface) { return invokeWithIC(cx, mi, /*is_virtual=*/false); }
JH(op_invokestatic) {
  JMethod* m = static_cast<JMethod*>(mi.ptr);
  if (!m->isStatic()) {
    cx.vm.throwGuest(cx.t, "java/lang/IncompatibleClassChangeError",
                     m->fullName());
    return throwHere(cx, mi);
  }
  return finishCall(cx, mi, m, mi.c);
}
JH(op_invokespecial) {
  JMethod* m = static_cast<JMethod*>(mi.ptr);
  if (cx.sp[-mi.c].asRef() == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", m->name);
    return throwHere(cx, mi);
  }
  return finishCall(cx, mi, m, mi.c);
}

// Jit-only peephole: call whose result is immediately POPped (fire-and-
// forget calls -- the StringBuffer.append / event-notification shape on
// the intra-isolate call row). One thunk that skips the result push
// instead of push+pop across two dispatches. Pass 1 only forms the pair
// when the *resolved* callee returns non-void: a POP after a void call
// legitimately consumes an older stack value and must stay separate.
// Overrides share the resolved descriptor, so the return kind is a
// build-time constant even for virtual/interface sites.
JH(op_invokevirtual_pop) {
  return invokeWithIC(cx, mi, /*is_virtual=*/true, /*discard=*/true);
}
JH(op_invokeinterface_pop) {
  return invokeWithIC(cx, mi, /*is_virtual=*/false, /*discard=*/true);
}
JH(op_invokestatic_pop) {
  JMethod* m = static_cast<JMethod*>(mi.ptr);
  if (!m->isStatic()) {
    cx.vm.throwGuest(cx.t, "java/lang/IncompatibleClassChangeError",
                     m->fullName());
    return throwHere(cx, mi);
  }
  return finishCall(cx, mi, m, mi.c, /*discard=*/true);
}
JH(op_invokespecial_pop) {
  JMethod* m = static_cast<JMethod*>(mi.ptr);
  if (cx.sp[-mi.c].asRef() == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", m->name);
    return throwHere(cx, mi);
  }
  return finishCall(cx, mi, m, mi.c, /*discard=*/true);
}

// ---- objects & arrays -------------------------------------------------

JH(op_new_q) {
  JClass* cls = static_cast<JClass*>(mi.ptr);
  cx.frame.pc = mi.pc;  // <clinit> / allocation may throw or GC
  if (cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0) {
    cx.vm.throwGuest(cx.t, "java/lang/InstantiationError", cls->name);
    return &cx.jc.exn;
  }
  if (!cx.vm.ensureInitialized(cx.t, cls)) return &cx.jc.exn;
  Object* obj = cx.vm.allocObject(cx.t, cls);
  if (obj != nullptr) jpush(cx, Value::ofRef(obj));
  if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  return mi.next;
}

// Jit-only peephole: the allocation prologue `NEW_Q cls; DUP` (every
// javac-shaped `new T(...)` starts this way) as one thunk pushing the
// fresh reference twice. Nothing is pushed before the throw checks, so
// a <clinit> failure or OOM unwinds with the same stack the interpreter
// would have had at the NEW.
JH(op_new_dup) {
  JClass* cls = static_cast<JClass*>(mi.ptr);
  cx.frame.pc = mi.pc;  // <clinit> / allocation may throw or GC
  if (cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0) {
    cx.vm.throwGuest(cx.t, "java/lang/InstantiationError", cls->name);
    return &cx.jc.exn;
  }
  if (!cx.vm.ensureInitialized(cx.t, cls)) return &cx.jc.exn;
  Object* obj = cx.vm.allocObject(cx.t, cls);
  if (obj != nullptr) {
    jpush(cx, Value::ofRef(obj));
    jpush(cx, Value::ofRef(obj));
  }
  if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  return mi.next;
}

JH(op_newarray) {
  const i32 len = jpop(cx).asInt();
  cx.frame.pc = mi.pc;
  Object* arr = cx.vm.allocArrayObject(cx.t, static_cast<JClass*>(mi.ptr), len);
  if (arr != nullptr) jpush(cx, Value::ofRef(arr));
  if (cx.t->pending_exception != nullptr) return &cx.jc.exn;
  return mi.next;
}
JH(op_arraylength) {
  Object* arr = jpop(cx).asRef();
  if (arr == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", "arraylength");
    return throwHere(cx, mi);
  }
  jpush(cx, Value::ofInt(arr->length));
  return mi.next;
}

#define JIT_ALOAD(NAME, ACCESSOR, MAKE)                                        \
  JH(NAME) {                                                                   \
    const i32 idx = jpop(cx).asInt();                                          \
    Object* arr = jpop(cx).asRef();                                            \
    if (arr == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", #NAME);         \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",       \
                       strf("%d", idx));                                       \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    jpush(cx, MAKE(arr->ACCESSOR()[idx]));                                     \
    return mi.next;                                                            \
  }
JIT_ALOAD(op_iaload, intElems, Value::ofInt)
JIT_ALOAD(op_laload, longElems, Value::ofLong)
JIT_ALOAD(op_daload, doubleElems, Value::ofDouble)
JIT_ALOAD(op_aaload, refElems, Value::ofRef)
#undef JIT_ALOAD

// Jit-only peephole: array element load with *both* operands straight
// from locals (`ALOAD arr; ILOAD idx; xALOAD` -- the canonical scan-loop
// body on the db/jess rows). One thunk, no interior stack traffic: arr
// from local mi.a, idx from local mi.b, only the element is pushed.
// Nothing is pushed before the throw checks, so the unwind stack matches
// the group head; handlers clear the stack on entry anyway (same rule as
// fused groups).
#define JIT_LL_ALOAD(NAME, ACCESSOR, MAKE)                                     \
  JH(NAME) {                                                                   \
    Object* arr = cx.locals[mi.a].asRef();                                     \
    const i32 idx = cx.locals[mi.b].asInt();                                   \
    if (arr == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", #NAME);         \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",       \
                       strf("%d", idx));                                       \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    jpush(cx, MAKE(arr->ACCESSOR()[idx]));                                     \
    return mi.next;                                                            \
  }
JIT_LL_ALOAD(op_ll_iaload, intElems, Value::ofInt)
JIT_LL_ALOAD(op_ll_laload, longElems, Value::ofLong)
JIT_LL_ALOAD(op_ll_daload, doubleElems, Value::ofDouble)
JIT_LL_ALOAD(op_ll_aaload, refElems, Value::ofRef)
#undef JIT_LL_ALOAD

// The index-from-local fallback pair (`ILOAD idx; xALOAD`, array already
// on the stack -- field-held arrays, chained loads). Replaces the stack
// top in place.
#define JIT_L_ALOAD(NAME, ACCESSOR, MAKE)                                      \
  JH(NAME) {                                                                   \
    Object* arr = cx.sp[-1].asRef();                                           \
    const i32 idx = cx.locals[mi.a].asInt();                                   \
    if (arr == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", #NAME);         \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",       \
                       strf("%d", idx));                                       \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    cx.sp[-1] = MAKE(arr->ACCESSOR()[idx]);                                    \
    return mi.next;                                                            \
  }
JIT_L_ALOAD(op_l_iaload, intElems, Value::ofInt)
JIT_L_ALOAD(op_l_laload, longElems, Value::ofLong)
JIT_L_ALOAD(op_l_daload, doubleElems, Value::ofDouble)
JIT_L_ALOAD(op_l_aaload, refElems, Value::ofRef)
#undef JIT_L_ALOAD

#define JIT_ASTORE(NAME, ACCESSOR, GETTER, CAST)                               \
  JH(NAME) {                                                                   \
    Value v = jpop(cx);                                                        \
    const i32 idx = jpop(cx).asInt();                                          \
    Object* arr = jpop(cx).asRef();                                            \
    if (arr == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", #NAME);         \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",       \
                       strf("%d", idx));                                       \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    arr->ACCESSOR()[idx] = CAST(v.GETTER());                                   \
    return mi.next;                                                            \
  }
JIT_ASTORE(op_iastore, intElems, asInt, static_cast<i32>)
JIT_ASTORE(op_lastore, longElems, asLong, static_cast<i64>)
JIT_ASTORE(op_dastore, doubleElems, asDouble, static_cast<double>)
#undef JIT_ASTORE

// Jit-only peephole: array store whose value comes straight from a local
// (`xLOAD v; xASTORE` -- the write half of a copy loop). Arr and idx are
// popped from the stack, the value is read from local mi.a; the partial
// pops before a throw are unobservable for the usual reason (handlers
// clear the stack on entry). AASTORE is excluded: its store-check path
// stays a separate thunk.
#define JIT_L_ASTORE(NAME, ACCESSOR, GETTER, CAST)                             \
  JH(NAME) {                                                                   \
    const i32 idx = jpop(cx).asInt();                                          \
    Object* arr = jpop(cx).asRef();                                            \
    if (arr == nullptr) {                                                      \
      cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", #NAME);         \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    if (idx < 0 || idx >= arr->length) {                                       \
      cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",       \
                       strf("%d", idx));                                       \
      return throwHere(cx, mi);                                                \
    }                                                                          \
    arr->ACCESSOR()[idx] = CAST(cx.locals[mi.a].GETTER());                     \
    return mi.next;                                                            \
  }
JIT_L_ASTORE(op_l_iastore, intElems, asInt, static_cast<i32>)
JIT_L_ASTORE(op_l_lastore, longElems, asLong, static_cast<i64>)
JIT_L_ASTORE(op_l_dastore, doubleElems, asDouble, static_cast<double>)
#undef JIT_L_ASTORE

JH(op_aastore) {
  Value v = jpop(cx);
  const i32 idx = jpop(cx).asInt();
  Object* arr = jpop(cx).asRef();
  if (arr == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", "AASTORE");
    return throwHere(cx, mi);
  }
  if (idx < 0 || idx >= arr->length) {
    cx.vm.throwGuest(cx.t, "java/lang/ArrayIndexOutOfBoundsException",
                     strf("%d", idx));
    return throwHere(cx, mi);
  }
  Object* elem = v.asRef();
  if (elem != nullptr && arr->cls->elem_class != nullptr &&
      !elem->cls->isAssignableTo(arr->cls->elem_class)) {
    cx.vm.throwGuest(cx.t, "java/lang/ArrayStoreException", elem->cls->name);
    return throwHere(cx, mi);
  }
  arr->refElems()[idx] = elem;
  return mi.next;
}

// ---- type checks ------------------------------------------------------

JH(op_checkcast_q) {
  JClass* target = static_cast<JClass*>(mi.ptr);
  Object* obj = cx.sp == cx.base ? nullptr : cx.sp[-1].asRef();
  if (obj != nullptr && !obj->cls->isAssignableTo(target)) {
    cx.vm.throwGuest(cx.t, "java/lang/ClassCastException",
                     strf("%s -> %s", obj->cls->name.c_str(),
                          target->name.c_str()));
    return throwHere(cx, mi);
  }
  return mi.next;
}
JH(op_instanceof_q) {
  JClass* target = static_cast<JClass*>(mi.ptr);
  Object* obj = jpop(cx).asRef();
  jpush(cx, Value::ofInt(
                obj != nullptr && obj->cls->isAssignableTo(target) ? 1 : 0));
  return mi.next;
}

// ---- monitors & throw -------------------------------------------------

JH(op_monitorenter) {
  Object* obj = jpop(cx).asRef();
  if (obj == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", "monitorenter");
    return throwHere(cx, mi);
  }
  Monitor* mon = cx.vm.monitorOf(obj);
  bool acquired = mon->tryEnter(cx.t);
  if (!acquired) {
    BlockedScope blocked(cx.vm.safepoints(), cx.t);
    acquired = mon->enter(cx.t, &cx.t->force_kill);
  }
  if (!acquired) {
    throwStopped(cx.vm, cx.t, kKillAll);
    return throwHere(cx, mi);
  }
  return mi.next;
}
JH(op_monitorexit) {
  Object* obj = jpop(cx).asRef();
  if (obj == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", "monitorexit");
    return throwHere(cx, mi);
  }
  if (!cx.vm.monitorOf(obj)->exit(cx.t)) {
    cx.vm.throwGuest(cx.t, "java/lang/IllegalMonitorStateException", "not owner");
    return throwHere(cx, mi);
  }
  return mi.next;
}
JH(op_athrow) {
  Object* exc = jpop(cx).asRef();
  if (exc == nullptr) {
    cx.vm.throwGuest(cx.t, "java/lang/NullPointerException", "athrow");
    return throwHere(cx, mi);
  }
  cx.t->pending_exception = exc;
  return throwHere(cx, mi);
}

#undef JH

// The poisoned entry point swapped in by isolate termination (one shared
// static instance; it never reads operands).
const MInsn kPoisonedEntry = [] {
  MInsn mi;
  mi.fn = op_entry_poisoned;
  mi.name = "POISONED_ENTRY";
  return mi;
}();

// Its OSR twin, swapped into every OsrEntry::entry by the same
// stop-the-world pass.
const MInsn kPoisonedOsrEntry = [] {
  MInsn mi;
  mi.fn = op_osr_poisoned;
  mi.name = "POISONED_OSR_ENTRY";
  return mi;
}();

// ---- stack-depth analysis --------------------------------------------
// The compiled frame uses a raw operand-stack pointer over a region sized
// by this bound, so the bound must be exact-or-over for every reachable
// path. This is the verifier-grade part of the compiled-code contract
// (docs/jit.md): any inconsistency makes the method jit-ineligible.

struct StackEffect {
  i8 pops;
  i8 pushes;
};
constexpr StackEffect kEffect[] = {
#define IJVM_FX(name, pops, pushes, doc) {static_cast<i8>(pops), static_cast<i8>(pushes)},
    IJVM_OPCODES(IJVM_FX)
#undef IJVM_FX
};

// A consistent copy of one quickened instruction, taken under the engine
// mutex before the compiler reads any of it. The compiler must not read
// QInsn payload fields directly: quickening and fusion write them under
// the mutex and publish with a release-store of the opcode, which orders
// payload reads only for the thread that later acquires that opcode --
// the background compiler reads whole streams at once, so it snapshots
// them under the same mutex the writers hold (docs/jit.md, "Code
// lifecycle").
struct SnapInsn {
  Op op = Op::NOP;
  i32 a = 0, b = 0, c = 0;
  void* ptr = nullptr;
  i64 imm = 0;
  double dimm = 0.0;
};

// `depths`, when non-null, receives the verified operand-stack depth at
// every pc (-1 for statically unreachable ones) -- the OSR entry map is
// built from it (a live frame may transfer onto a loop header only at
// exactly this depth).
bool computeMaxStack(JMethod* m, const std::vector<SnapInsn>& snap, u32* out,
                     std::vector<i32>* depths = nullptr) {
  const std::vector<Instruction>& insns = m->code.insns;
  const i32 n = static_cast<i32>(insns.size());
  if (n == 0) return false;
  std::vector<i32> depth(static_cast<size_t>(n), -1);
  std::vector<i32> work;
  bool consistent = true;
  auto flow = [&](i32 pc, i32 d) {
    if (pc < 0 || pc >= n) {
      consistent = false;
      return;
    }
    i32& cur = depth[static_cast<size_t>(pc)];
    if (cur == -1) {
      cur = d;
      work.push_back(pc);
    } else if (cur != d) {
      consistent = false;
    }
  };
  flow(0, 0);
  for (const ExHandler& h : m->code.handlers) flow(h.handler, 1);
  i32 max_d = 1;
  while (consistent && !work.empty()) {
    const i32 pc = work.back();
    work.pop_back();
    const Instruction& insn = insns[static_cast<size_t>(pc)];
    const i32 d = depth[static_cast<size_t>(pc)];
    i32 pops = kEffect[static_cast<u8>(insn.op)].pops;
    i32 pushes = kEffect[static_cast<u8>(insn.op)].pushes;
    if (pops < 0) {
      // Call site: the exact effect needs the resolved signature. A
      // quickened site carries it; an unquickened one compiles to a deopt
      // thunk, so compiled execution never flows past it -- treat it as
      // terminal here (its successors stay deopt-or-unreachable until a
      // recompile, by which time the site has quickened).
      const SnapInsn& q = snap[static_cast<size_t>(pc)];
      if (opIsQuickened(q.op) && q.ptr != nullptr) {
        JMethod* callee = static_cast<JMethod*>(q.ptr);
        pops = q.c;
        pushes = callee->sig.ret.kind != Kind::Void ? 1 : 0;
      } else {
        continue;
      }
    }
    const i32 after = d - pops + pushes;
    if (d - pops < 0 || after > n + 1) {
      consistent = false;
      break;
    }
    if (after > max_d) max_d = after;
    switch (insn.op) {
      case Op::RETURN:
      case Op::IRETURN:
      case Op::LRETURN:
      case Op::DRETURN:
      case Op::ARETURN:
      case Op::ATHROW:
        break;  // terminal
      case Op::GOTO:
        flow(insn.a, after);
        break;
      default:
        if (opIsBranch(insn.op)) flow(insn.a, after);
        flow(pc + 1, after);
        break;
    }
  }
  if (!consistent) return false;
  *out = static_cast<u32>(max_d) + 2;  // small slack; the bound is already safe
  if (depths != nullptr) *depths = std::move(depth);
  return true;
}

// ---- the compiler -----------------------------------------------------

// Binds the handler (and display name) for one source opcode. Generic
// pool-referencing forms that have not quickened bind to op_deopt.
void bindThunk(MInsn& mi, Op op) {
  mi.src_op = op;
  mi.name = opName(op);
  switch (op) {
    case Op::NOP: mi.fn = op_nop; break;
    case Op::ACONST_NULL: mi.fn = op_aconst_null; break;
    case Op::ICONST: mi.fn = op_iconst; break;
    case Op::LDC_INT_Q: mi.fn = op_ldc_int; break;
    case Op::LDC_LONG_Q: mi.fn = op_ldc_long; break;
    case Op::LDC_DOUBLE_Q: mi.fn = op_ldc_double; break;
    case Op::LDC_STR_Q: mi.fn = op_ldc_str; break;
    case Op::ILOAD:
    case Op::LLOAD:
    case Op::DLOAD:
    case Op::ALOAD: mi.fn = op_load; break;
    case Op::ISTORE:
    case Op::LSTORE:
    case Op::DSTORE:
    case Op::ASTORE: mi.fn = op_store; break;
    case Op::IINC: mi.fn = op_iinc; break;
    case Op::POP: mi.fn = op_pop; break;
    case Op::DUP: mi.fn = op_dup; break;
    case Op::DUP_X1: mi.fn = op_dup_x1; break;
    case Op::SWAP: mi.fn = op_swap; break;
    case Op::IADD: mi.fn = op_iadd; break;
    case Op::ISUB: mi.fn = op_isub; break;
    case Op::IMUL: mi.fn = op_imul; break;
    case Op::IDIV: mi.fn = op_idiv; break;
    case Op::IREM: mi.fn = op_irem; break;
    case Op::INEG: mi.fn = op_ineg; break;
    case Op::ISHL: mi.fn = op_ishl; break;
    case Op::ISHR: mi.fn = op_ishr; break;
    case Op::IUSHR: mi.fn = op_iushr; break;
    case Op::IAND: mi.fn = op_iand; break;
    case Op::IOR: mi.fn = op_ior; break;
    case Op::IXOR: mi.fn = op_ixor; break;
    case Op::LADD: mi.fn = op_ladd; break;
    case Op::LSUB: mi.fn = op_lsub; break;
    case Op::LMUL: mi.fn = op_lmul; break;
    case Op::LDIV: mi.fn = op_ldiv; break;
    case Op::LREM: mi.fn = op_lrem; break;
    case Op::LNEG: mi.fn = op_lneg; break;
    case Op::LSHL: mi.fn = op_lshl; break;
    case Op::LSHR: mi.fn = op_lshr; break;
    case Op::LAND: mi.fn = op_land; break;
    case Op::LOR: mi.fn = op_lor; break;
    case Op::LXOR: mi.fn = op_lxor; break;
    case Op::LCMP: mi.fn = op_lcmp; break;
    case Op::DADD: mi.fn = op_dadd; break;
    case Op::DSUB: mi.fn = op_dsub; break;
    case Op::DMUL: mi.fn = op_dmul; break;
    case Op::DDIV: mi.fn = op_ddiv; break;
    case Op::DREM: mi.fn = op_drem; break;
    case Op::DNEG: mi.fn = op_dneg; break;
    case Op::DCMPL: mi.fn = op_dcmpl; break;
    case Op::DCMPG: mi.fn = op_dcmpg; break;
    case Op::I2L: mi.fn = op_i2l; break;
    case Op::I2D: mi.fn = op_i2d; break;
    case Op::L2I: mi.fn = op_l2i; break;
    case Op::L2D: mi.fn = op_l2d; break;
    case Op::D2I: mi.fn = op_d2i; break;
    case Op::D2L: mi.fn = op_d2l; break;
    case Op::IFEQ: mi.fn = op_ifeq; mi.tpc = mi.a; break;
    case Op::IFNE: mi.fn = op_ifne; mi.tpc = mi.a; break;
    case Op::IFLT: mi.fn = op_iflt; mi.tpc = mi.a; break;
    case Op::IFGE: mi.fn = op_ifge; mi.tpc = mi.a; break;
    case Op::IFGT: mi.fn = op_ifgt; mi.tpc = mi.a; break;
    case Op::IFLE: mi.fn = op_ifle; mi.tpc = mi.a; break;
    case Op::IF_ICMPEQ: mi.fn = op_if_icmpeq; mi.tpc = mi.a; break;
    case Op::IF_ICMPNE: mi.fn = op_if_icmpne; mi.tpc = mi.a; break;
    case Op::IF_ICMPLT: mi.fn = op_if_icmplt; mi.tpc = mi.a; break;
    case Op::IF_ICMPGE: mi.fn = op_if_icmpge; mi.tpc = mi.a; break;
    case Op::IF_ICMPGT: mi.fn = op_if_icmpgt; mi.tpc = mi.a; break;
    case Op::IF_ICMPLE: mi.fn = op_if_icmple; mi.tpc = mi.a; break;
    case Op::IF_ACMPEQ: mi.fn = op_if_acmpeq; mi.tpc = mi.a; break;
    case Op::IF_ACMPNE: mi.fn = op_if_acmpne; mi.tpc = mi.a; break;
    case Op::IFNULL: mi.fn = op_ifnull; mi.tpc = mi.a; break;
    case Op::IFNONNULL: mi.fn = op_ifnonnull; mi.tpc = mi.a; break;
    case Op::GOTO: mi.fn = op_goto; mi.tpc = mi.a; break;
    case Op::RETURN: mi.fn = op_return; break;
    case Op::IRETURN:
    case Op::LRETURN:
    case Op::DRETURN:
    case Op::ARETURN: mi.fn = op_vreturn; break;
    case Op::GETSTATIC_Q: mi.fn = op_getstatic_q; break;
    case Op::PUTSTATIC_Q: mi.fn = op_putstatic_q; break;
    case Op::GETFIELD_Q: mi.fn = op_getfield_q; break;
    case Op::PUTFIELD_Q: mi.fn = op_putfield_q; break;
    case Op::INVOKEVIRTUAL_Q: mi.fn = op_invokevirtual; break;
    case Op::INVOKEINTERFACE_Q: mi.fn = op_invokeinterface; break;
    case Op::INVOKESTATIC_Q: mi.fn = op_invokestatic; break;
    case Op::INVOKESPECIAL_Q: mi.fn = op_invokespecial; break;
    case Op::NEW_Q: mi.fn = op_new_q; break;
    case Op::NEWARRAY: mi.fn = op_newarray; break;  // class prebound below
    case Op::ANEWARRAY_Q: mi.fn = op_newarray; break;
    case Op::ARRAYLENGTH: mi.fn = op_arraylength; break;
    case Op::IALOAD: mi.fn = op_iaload; break;
    case Op::LALOAD: mi.fn = op_laload; break;
    case Op::DALOAD: mi.fn = op_daload; break;
    case Op::AALOAD: mi.fn = op_aaload; break;
    case Op::IASTORE: mi.fn = op_iastore; break;
    case Op::LASTORE: mi.fn = op_lastore; break;
    case Op::DASTORE: mi.fn = op_dastore; break;
    case Op::AASTORE: mi.fn = op_aastore; break;
    case Op::CHECKCAST_Q: mi.fn = op_checkcast_q; break;
    case Op::INSTANCEOF_Q: mi.fn = op_instanceof_q; break;
    case Op::MONITORENTER: mi.fn = op_monitorenter; break;
    case Op::MONITOREXIT: mi.fn = op_monitorexit; break;
    case Op::ATHROW: mi.fn = op_athrow; break;
    // Fused superinstructions: one thunk per group.
    case Op::ILOAD_ILOAD_IADD_F: mi.fn = op_ll_iadd; break;
    case Op::ILOAD_ILOAD_ISUB_F: mi.fn = op_ll_isub; break;
    case Op::ILOAD_ILOAD_IMUL_F: mi.fn = op_ll_imul; break;
    case Op::ILOAD_ILOAD_IAND_F: mi.fn = op_ll_iand; break;
    case Op::ILOAD_ILOAD_IOR_F: mi.fn = op_ll_ior; break;
    case Op::ILOAD_ILOAD_IXOR_F: mi.fn = op_ll_ixor; break;
    case Op::ILOAD_ILOAD_IF_ICMPEQ_F:
      mi.fn = op_ll_icmpeq; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ILOAD_ILOAD_IF_ICMPNE_F:
      mi.fn = op_ll_icmpne; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ILOAD_ILOAD_IF_ICMPLT_F:
      mi.fn = op_ll_icmplt; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ILOAD_ILOAD_IF_ICMPGE_F:
      mi.fn = op_ll_icmpge; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ILOAD_ILOAD_IF_ICMPGT_F:
      mi.fn = op_ll_icmpgt; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ILOAD_ILOAD_IF_ICMPLE_F:
      mi.fn = op_ll_icmple; mi.tpc = static_cast<i32>(mi.imm); break;
    case Op::ICONST_IADD_F: mi.fn = op_iconst_iadd; break;
    case Op::ALOAD_GETFIELD_F: mi.fn = op_aload_getfield; break;
    case Op::IINC_GOTO_F: mi.fn = op_iinc_goto; mi.tpc = mi.c; break;
    // Unquickened pool-referencing forms: a cold path inside a hot
    // method. Compiled as a deopt site; the interpreter resolves it.
    default:
      mi.fn = op_deopt;
      mi.name = "DEOPT";
      break;
  }
}

// Jit-only peephole: fused arith triple followed by a plain ISTORE whose
// slot nobody jumps to -- compiled as a single store-to-local thunk.
JitHandler arithStoreVariant(Op fused) {
  switch (fused) {
    case Op::ILOAD_ILOAD_IADD_F: return op_ll_iadd_st;
    case Op::ILOAD_ILOAD_ISUB_F: return op_ll_isub_st;
    case Op::ILOAD_ILOAD_IMUL_F: return op_ll_imul_st;
    case Op::ILOAD_ILOAD_IAND_F: return op_ll_iand_st;
    case Op::ILOAD_ILOAD_IOR_F: return op_ll_ior_st;
    case Op::ILOAD_ILOAD_IXOR_F: return op_ll_ixor_st;
    default: return nullptr;
  }
}

// Jit-only peephole (ROADMAP "GETFIELD_Q+arith pairs"): the int arithmetic
// opcode an instance-field load feeds, for the plain-quickened and the
// fused-receiver variant of the pair.
JitHandler getfieldArithVariant(Op arith, bool receiver_in_local) {
  switch (arith) {
    case Op::IADD: return receiver_in_local ? op_lgf_iadd : op_gf_iadd;
    case Op::ISUB: return receiver_in_local ? op_lgf_isub : op_gf_isub;
    case Op::IMUL: return receiver_in_local ? op_lgf_imul : op_gf_imul;
    case Op::IAND: return receiver_in_local ? op_lgf_iand : op_gf_iand;
    case Op::IOR: return receiver_in_local ? op_lgf_ior : op_gf_ior;
    case Op::IXOR: return receiver_in_local ? op_lgf_ixor : op_gf_ixor;
    default: return nullptr;
  }
}

// Jit-only peephole: array element load with array + index in locals
// (`ALOAD arr; ILOAD idx; xALOAD`), keyed on the element-access opcode.
JitHandler arrayLoadLLVariant(Op aload) {
  switch (aload) {
    case Op::IALOAD: return op_ll_iaload;
    case Op::LALOAD: return op_ll_laload;
    case Op::DALOAD: return op_ll_daload;
    case Op::AALOAD: return op_ll_aaload;
    default: return nullptr;
  }
}

// Index-from-local pair (`ILOAD idx; xALOAD`, array on the stack).
JitHandler arrayLoadLVariant(Op aload) {
  switch (aload) {
    case Op::IALOAD: return op_l_iaload;
    case Op::LALOAD: return op_l_laload;
    case Op::DALOAD: return op_l_daload;
    case Op::AALOAD: return op_l_aaload;
    default: return nullptr;
  }
}

// Value-from-local store pair (`xLOAD v; xASTORE`). The load and store
// kinds must agree; verified bytecode guarantees they do, but matching
// the pair explicitly keeps a mismatched (unverifiable) stream on the
// generic thunks.
JitHandler arrayStoreLVariant(Op load, Op store) {
  if (load == Op::ILOAD && store == Op::IASTORE) return op_l_iastore;
  if (load == Op::LLOAD && store == Op::LASTORE) return op_l_lastore;
  if (load == Op::DLOAD && store == Op::DASTORE) return op_l_dastore;
  return nullptr;
}

// Wide local-pair arithmetic triple (`DLOAD a; DLOAD c; <op>` /
// `LLOAD a; LLOAD c; <op>`). LDIV/LREM are excluded (they throw).
JitHandler wideArithVariant(Op load, Op arith) {
  if (load == Op::DLOAD) {
    switch (arith) {
      case Op::DADD: return op_dd_dadd;
      case Op::DSUB: return op_dd_dsub;
      case Op::DMUL: return op_dd_dmul;
      case Op::DDIV: return op_dd_ddiv;
      default: return nullptr;
    }
  }
  if (load == Op::LLOAD) {
    switch (arith) {
      case Op::LADD: return op_lw_ladd;
      case Op::LSUB: return op_lw_lsub;
      case Op::LMUL: return op_lw_lmul;
      case Op::LAND: return op_lw_land;
      case Op::LOR: return op_lw_lor;
      case Op::LXOR: return op_lw_lxor;
      default: return nullptr;
    }
  }
  return nullptr;
}

// Discard-result call variant for the `INVOKE*_Q; POP` pair.
JitHandler invokePopVariant(Op invoke) {
  switch (invoke) {
    case Op::INVOKEVIRTUAL_Q: return op_invokevirtual_pop;
    case Op::INVOKEINTERFACE_Q: return op_invokeinterface_pop;
    case Op::INVOKESTATIC_Q: return op_invokestatic_pop;
    case Op::INVOKESPECIAL_Q: return op_invokespecial_pop;
    default: return nullptr;
  }
}

}  // namespace

// Builds `m`'s call-threaded code from a snapshot of its current
// quickened/fused stream; contract in jit_internal.h. Returns null (and
// possibly pins the method ineligible) when the method cannot be compiled.
std::unique_ptr<JitCode> buildJitCode(VM& vm, JMethod* m) {
#ifdef IJVM_DISABLE_JIT
  (void)vm;
  (void)m;
  return nullptr;
#else
  auto* qc = static_cast<QCode*>(m->qcode.load(std::memory_order_acquire));
  if (qc == nullptr || m->isNative() || m->isAbstract()) return nullptr;
  if (qc->jit_ineligible.load(std::memory_order_relaxed)) return nullptr;
  if (qc->jit_deopts.load(std::memory_order_relaxed) >= kMaxJitDeopts) {
    qc->jit_ineligible.store(true, std::memory_order_relaxed);
    return nullptr;
  }
  // Compile-latency split (obs/trace.h): enqueueForJit stamped the request
  // when it latched jit_queued -- everything until here was queue wait,
  // everything below is the build itself.
  if (obs::traceEnabled()) {
    const u64 req = qc->jit_request_ns.exchange(0, std::memory_order_acq_rel);
    if (req != 0) {
      const u64 now = obs::traceNowNs();
      if (now > req) obs::recordLatency(obs::Lat::CompileQueueWait, now - req);
    }
  }
  obs::TraceSpan build_span(obs::Ev::CompileBuild, jitTraceIsolate(m),
                            jitTraceName(m), obs::Lat::CompileBuild);
  const std::vector<Instruction>& insns = m->code.insns;
  const i32 n = static_cast<i32>(insns.size());
  if (n == 0) return nullptr;
  // The last instruction must not fall through past the end (any verified
  // method ends in a return/goto/throw).
  const Op last = insns[static_cast<size_t>(n - 1)].op;
  const bool last_terminal = last == Op::RETURN || last == Op::IRETURN ||
                             last == Op::LRETURN || last == Op::DRETURN ||
                             last == Op::ARETURN || last == Op::GOTO ||
                             last == Op::ATHROW;

  // Snapshot the stream under the engine mutex (see SnapInsn): from here
  // on the build reads only the snapshot, so it is safe off-thread while
  // mutators keep quickening and fusing the live stream. A site that
  // quickens after the snapshot simply compiles as a deopt thunk, exactly
  // as if it had still been cold -- the recompile after that deopt sees
  // it.
  std::vector<SnapInsn> snap(static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> lock(qc->state->mutex);
    for (i32 i = 0; i < n; ++i) {
      const QInsn& q = qc->insns[static_cast<size_t>(i)];
      SnapInsn& s = snap[static_cast<size_t>(i)];
      s.op = q.op.load(std::memory_order_relaxed);
      s.a = q.a;
      s.b = q.b;
      s.c = q.c;
      s.ptr = q.ptr;
      s.imm = q.imm;
      s.dimm = q.dimm;
    }
  }

  u32 max_stack = 0;
  std::vector<i32> depths;
  if (!last_terminal || !computeMaxStack(m, snap, &max_stack, &depths)) {
    qc->jit_ineligible.store(true, std::memory_order_relaxed);
    return nullptr;
  }

  // Entry points other than fall-through (for the peephole eligibility;
  // same rules as the fusion pass).
  std::vector<u8> entry(static_cast<size_t>(n), 0);
  for (const Instruction& insn : insns) {
    if (opIsBranch(insn.op) && insn.a >= 0 && insn.a < n) {
      entry[static_cast<size_t>(insn.a)] = 1;
    }
  }
  for (const ExHandler& h : m->code.handlers) {
    if (h.handler >= 0 && h.handler < n) entry[static_cast<size_t>(h.handler)] = 1;
  }
  auto coverageUniform = [&](i32 head, i32 len) {
    for (const ExHandler& h : m->code.handlers) {
      const bool head_in = head >= h.start && head < h.end;
      for (i32 k = 1; k < len; ++k) {
        const bool k_in = head + k >= h.start && head + k < h.end;
        if (k_in != head_in) return false;
      }
    }
    return true;
  };

  auto jc = std::make_unique<JitCode>();
  jc->method = m;
  jc->qc = qc;
  jc->max_stack = max_stack;
  jc->slot_of_pc.assign(static_cast<size_t>(n), -1);
  jc->exn.fn = op_exception;
  jc->exn.name = "EXCEPTION_DISPATCH";

  // Pass 1: one thunk per (group) head, operands pre-bound from the
  // snapshot (mi.q still points into the live stream: that is how
  // compiled thunks share IC slots with the interpreter tiers).
  for (i32 i = 0; i < n;) {
    const SnapInsn& q = snap[static_cast<size_t>(i)];
    const Op op = q.op;
    MInsn mi;
    mi.pc = i;
    mi.a = q.a;
    mi.b = q.b;
    mi.c = q.c;
    mi.ptr = q.ptr;
    mi.imm = q.imm;
    mi.dimm = q.dimm;
    mi.q = &qc->insns[static_cast<size_t>(i)];
    bindThunk(mi, op);
    i32 len = opIsFused(op) ? opFusedLength(op) : 1;
    if (op == Op::NEWARRAY) {
      // Pre-bind the primitive array class (isolate-independent).
      const char* name = q.a == 0 ? "[I" : (q.a == 1 ? "[J" : "[D");
      mi.ptr = vm.registry().arrayClass(name);
    }
    // Peephole: fused arith triple + ISTORE -> one thunk.
    if (JitHandler st_fn = arithStoreVariant(op);
        st_fn != nullptr && i + 3 < n &&
        snap[static_cast<size_t>(i + 3)].op == Op::ISTORE &&
        entry[static_cast<size_t>(i + 3)] == 0 && coverageUniform(i, 4)) {
      mi.fn = st_fn;
      mi.b = snap[static_cast<size_t>(i + 3)].a;  // destination slot
      mi.name = "ILOAD_ILOAD_ARITH_ISTORE_J";
      len = 4;
    }
    // Peephole: static int read-modify-write in one mirror lookup
    // (`GETSTATIC_Q f; ICONST k; IADD; PUTSTATIC_Q f`, fused or plain).
    if (op == Op::GETSTATIC_Q && i + 3 < n &&
        entry[static_cast<size_t>(i + 1)] == 0 &&
        entry[static_cast<size_t>(i + 2)] == 0 &&
        entry[static_cast<size_t>(i + 3)] == 0 && coverageUniform(i, 4)) {
      const SnapInsn& q1 = snap[static_cast<size_t>(i + 1)];
      const SnapInsn& q3 = snap[static_cast<size_t>(i + 3)];
      const Op op2 = snap[static_cast<size_t>(i + 2)].op;
      const bool add_imm =
          q1.op == Op::ICONST_IADD_F || (q1.op == Op::ICONST && op2 == Op::IADD);
      if (add_imm && q3.op == Op::PUTSTATIC_Q && q3.ptr == q.ptr &&
          q3.c == q.c) {
        mi.fn = op_static_iadd;
        mi.a = q1.a;  // the immediate
        mi.name = "GETSTATIC_IADD_PUTSTATIC_J";
        len = 4;
      }
    }
    // Peephole (ROADMAP): instance-field load feeding int arithmetic.
    // `GETFIELD_Q f; <arith>` -- the receiver is on the stack -- and the
    // fused-receiver form `ALOAD_GETFIELD_F; <arith>`.
    if (op == Op::GETFIELD_Q && i + 1 < n &&
        entry[static_cast<size_t>(i + 1)] == 0 && coverageUniform(i, 2)) {
      if (JitHandler gf_fn = getfieldArithVariant(
              snap[static_cast<size_t>(i + 1)].op, /*receiver_in_local=*/false);
          gf_fn != nullptr) {
        mi.fn = gf_fn;
        mi.name = "GETFIELD_ARITH_J";
        len = 2;
      }
    }
    if (op == Op::ALOAD_GETFIELD_F && i + 2 < n &&
        entry[static_cast<size_t>(i + 2)] == 0 && coverageUniform(i, 3)) {
      if (JitHandler gf_fn = getfieldArithVariant(
              snap[static_cast<size_t>(i + 2)].op, /*receiver_in_local=*/true);
          gf_fn != nullptr) {
        mi.fn = gf_fn;
        mi.name = "ALOAD_GETFIELD_ARITH_J";
        len = 3;
      }
    }
    // Peephole (ISSUE 9 batch): array element load with array + index in
    // locals -- the scan-loop body. `ALOAD arr; ILOAD idx; xALOAD`.
    if (op == Op::ALOAD && i + 2 < n &&
        snap[static_cast<size_t>(i + 1)].op == Op::ILOAD &&
        entry[static_cast<size_t>(i + 1)] == 0 &&
        entry[static_cast<size_t>(i + 2)] == 0 && coverageUniform(i, 3)) {
      if (JitHandler al_fn =
              arrayLoadLLVariant(snap[static_cast<size_t>(i + 2)].op);
          al_fn != nullptr) {
        mi.fn = al_fn;
        mi.b = snap[static_cast<size_t>(i + 1)].a;  // index slot
        mi.name = "ALOAD_ILOAD_XALOAD_J";
        len = 3;
      }
    }
    // Peephole: index-from-local load pair and value-from-local store
    // pair. The ALOAD-headed triple above wins when it applies (it is
    // checked first and sets len=3); this catches the array-on-stack
    // remainder.
    if ((op == Op::ILOAD || op == Op::LLOAD || op == Op::DLOAD) && len == 1 &&
        i + 1 < n && entry[static_cast<size_t>(i + 1)] == 0 &&
        coverageUniform(i, 2)) {
      const Op op1 = snap[static_cast<size_t>(i + 1)].op;
      JitHandler fn = op == Op::ILOAD ? arrayLoadLVariant(op1) : nullptr;
      const char* nm = "ILOAD_XALOAD_J";
      if (fn == nullptr) {
        fn = arrayStoreLVariant(op, op1);
        nm = "XLOAD_XASTORE_J";
      }
      if (fn != nullptr) {
        mi.fn = fn;
        mi.name = nm;
        len = 2;
      }
    }
    // Peephole: wide local-pair arithmetic triple (`DLOAD; DLOAD; <op>`,
    // `LLOAD; LLOAD; <op>`) -- the FIR/accumulator shape. The fusion
    // tier only forms int triples; the compiler picks the wide ones up
    // from the plain quickened stream. Checked after the pairs: a
    // matching triple overrides the 2-wide store pair (longer match
    // first would also work, but the store pair cannot match when
    // snap[i+1] is another load, so order is immaterial -- this block
    // simply re-extends len).
    if ((op == Op::DLOAD || op == Op::LLOAD) && i + 2 < n &&
        snap[static_cast<size_t>(i + 1)].op == op &&
        entry[static_cast<size_t>(i + 1)] == 0 &&
        entry[static_cast<size_t>(i + 2)] == 0 && coverageUniform(i, 3)) {
      if (JitHandler wa_fn =
              wideArithVariant(op, snap[static_cast<size_t>(i + 2)].op);
          wa_fn != nullptr) {
        mi.fn = wa_fn;
        mi.c = snap[static_cast<size_t>(i + 1)].a;  // second operand slot
        mi.name = op == Op::DLOAD ? "DLOAD_DLOAD_ARITH_J"
                                  : "LLOAD_LLOAD_ARITH_J";
        len = 3;
      }
    }
    // Peephole: call whose result is discarded (`INVOKE*_Q; POP`) -- one
    // thunk that skips the result push. Only when the resolved callee
    // returns non-void: a POP after a void call consumes an *older*
    // stack value and must stay a separate thunk.
    if ((op == Op::INVOKEVIRTUAL_Q || op == Op::INVOKEINTERFACE_Q ||
         op == Op::INVOKESTATIC_Q || op == Op::INVOKESPECIAL_Q) &&
        i + 1 < n && snap[static_cast<size_t>(i + 1)].op == Op::POP &&
        entry[static_cast<size_t>(i + 1)] == 0 && coverageUniform(i, 2) &&
        q.ptr != nullptr &&
        static_cast<JMethod*>(q.ptr)->sig.ret.kind != Kind::Void) {
      mi.fn = invokePopVariant(op);
      mi.name = "INVOKE_POP_J";
      len = 2;
    }
    // Peephole: allocation prologue `NEW_Q; DUP` (every `new T(...)`)
    // as one double-push thunk.
    if (op == Op::NEW_Q && i + 1 < n &&
        snap[static_cast<size_t>(i + 1)].op == Op::DUP &&
        entry[static_cast<size_t>(i + 1)] == 0 && coverageUniform(i, 2)) {
      mi.fn = op_new_dup;
      mi.name = "NEW_DUP_J";
      len = 2;
    }
    jc->slot_of_pc[static_cast<size_t>(i)] = static_cast<i32>(jc->code.size());
    jc->code.push_back(mi);
    i += len;
  }

  // Pass 2: link fall-through and branch targets as MInsn pointers (the
  // vector is final now, so the pointers are stable).
  for (size_t k = 0; k < jc->code.size(); ++k) {
    MInsn& mi = jc->code[k];
    mi.next = k + 1 < jc->code.size() ? &jc->code[k + 1] : nullptr;
    if (mi.tpc >= 0) {
      const i32 slot = mi.tpc < n ? jc->slot_of_pc[static_cast<size_t>(mi.tpc)] : -1;
      if (slot < 0) {
        // Target interior to a group (cannot happen for fused streams --
        // defensive) or out of range: fall back to deopt.
        mi.fn = op_deopt;
        mi.name = "DEOPT";
      } else {
        mi.target = &jc->code[static_cast<size_t>(slot)];
      }
    }
  }
  // Pass 3: OSR entry points, one per loop header (docs/jit.md, "On-stack
  // replacement"). A back-edge target that heads a compiled thunk and has
  // a verified stack depth gets an entry thunk the interpreter can
  // transfer a live frame onto; headers that miss either condition simply
  // get no OSR entry (the frame keeps interpreting -- never wrong, only
  // slower).
  for (const MInsn& mi : jc->code) {
    if (mi.tpc < 0 || mi.tpc > mi.pc) continue;  // not a back-edge
    const i32 header = mi.tpc;
    bool seen = false;
    for (const OsrEntry& e : jc->osr_entries) seen |= e.pc == header;
    if (seen) continue;
    const i32 slot = jc->slot_of_pc[static_cast<size_t>(header)];
    const i32 depth = depths[static_cast<size_t>(header)];
    if (slot < 0 || depth < 0) continue;
    OsrEntry& e = jc->osr_entries.emplace_back();
    e.pc = header;
    e.depth = depth;
    e.thunk.fn = op_osr_enter;
    e.thunk.pc = header;
    e.thunk.name = "OSR_ENTRY";
    e.thunk.target = &jc->code[static_cast<size_t>(slot)];
    e.entry.store(&e.thunk, std::memory_order_relaxed);
  }

  jc->entry.store(jc->code.data(), std::memory_order_release);
  jc->approx_bytes = jitCodeFootprint(*jc);
  // Built, not installed: publication is the cache's job (installJitCode,
  // code_cache.cpp) so the entry flips only at a mutator drain point.
  return jc;
#endif  // IJVM_DISABLE_JIT
}

size_t jitCodeFootprint(const JitCode& jc) {
  return sizeof(JitCode) + jc.code.capacity() * sizeof(MInsn) +
         jc.slot_of_pc.capacity() * sizeof(i32) +
         jc.osr_entries.size() * sizeof(OsrEntry);
}

// ---- public API -------------------------------------------------------

JitCode* jitCodeOf(JMethod* m) {
  return static_cast<JitCode*>(m->jitcode.load(std::memory_order_acquire));
}

namespace {

// Call-threading pays off on loops; a loop-free trampoline (one call +
// return) gains nothing and pays a few ns of compiled-entry setup
// (bench/fig1_micro.cpp, call rows). With a nonzero threshold such
// methods stay at the fused tier; jit_threshold == 0 (the forced/test
// configuration) compiles everything so the differential suite covers
// every thunk.
bool hasBackEdge(const JMethod* m) {
  const std::vector<Instruction>& insns = m->code.insns;
  for (i32 i = 0; i < static_cast<i32>(insns.size()); ++i) {
    if (opIsBranch(insns[static_cast<size_t>(i)].op) &&
        insns[static_cast<size_t>(i)].a <= i) {
      return true;
    }
  }
  return false;
}

}  // namespace

namespace {

// Transfers a live interpreter frame onto the compiled code's OSR entry
// for frame.pc (contract in jit.h, tryOsr). The locals vector is shared
// with the interpreter as-is; the operand stack -- currently at the loop
// header's logical depth -- becomes the low slice of the raw GC-scanned
// region, exactly the state the deopt machinery produces in reverse.
bool runJitOsr(VM& vm, JThread* t, Frame& frame, JitCode& jc, JitResult* out) {
  // A refused transfer (compiled code exists, but the live frame cannot
  // enter it here) is the observability tail the ROADMAP called out:
  // count it per method and per isolate (ResourceStats) instead of
  // silently interpreting on.
  auto refuse = [&]() {
    jc.qc->osr_refused_transfers.fetch_add(1, std::memory_order_relaxed);
    if (frame.isolate != nullptr) {
      frame.isolate->stats.osr_refused_transfers.fetch_add(
          1, std::memory_order_relaxed);
    }
    obs::emit(obs::Ev::OsrRefused, obs::Ph::Instant,
              frame.isolate != nullptr ? frame.isolate->id : -1,
              jitTraceName(jc.method));
    return false;
  };
  const OsrEntry* osr = nullptr;
  for (const OsrEntry& e : jc.osr_entries) {
    if (e.pc == frame.pc) {
      osr = &e;
      break;
    }
  }
  // No entry mapping this loop header: the header was statically
  // unreachable (or uncompiled) when the code was built -- e.g. it sits
  // behind a call site that was still cold at compile time.
  if (osr == nullptr) return refuse();
  // Entry-map invariant (docs/jit.md): the live operand stack must be at
  // the header's verified depth -- the depth the compiled code's raw
  // stack pointer assumes when control reaches that thunk. A mismatch
  // means the frame cannot be expressed in compiled form; refuse and keep
  // interpreting.
  if (static_cast<i32>(frame.stack.size()) != osr->depth) return refuse();

  // Active-execution bracket (docs/jit.md, "Code lifecycle"): between the
  // caller's JMethod::jitcode load and this increment there is no
  // safepoint poll, so a stopped world -- the only place retired code is
  // freed -- can never catch a frame about to enter code whose count it
  // reads as zero.
  jc.active.fetch_add(1, std::memory_order_acq_rel);
  jc.uses.fetch_add(1, std::memory_order_relaxed);
  frame.tier = FrameTier::Osr;

  JitCtx cx{vm, t, frame, jc};
  cx.accounting = vm.options().accounting;
  cx.tcm_idx = vm.tcmIndex(t->current_isolate.load(std::memory_order_relaxed));
  const size_t depth = frame.stack.size();
  frame.stack.resize(jc.max_stack);
  cx.base = frame.stack.data();
  cx.sp = cx.base + depth;
  cx.locals = frame.locals.data();
  jc.qc->osr_entries_taken.fetch_add(1, std::memory_order_relaxed);
  obs::emit(obs::Ev::OsrTransfer, obs::Ph::Instant,
            frame.isolate != nullptr ? frame.isolate->id : -1,
            jitTraceName(jc.method));

  const MInsn* ip = osr->entry.load(std::memory_order_acquire);
  while (ip != nullptr) ip = ip->fn(cx, *ip);
  flushEdges(cx);
  if (cx.exit != JitExit::Deopt) frame.stack.clear();
  *out = {cx.exit, cx.result};
  jc.active.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

}  // namespace

bool tryOsr(VM& vm, JThread* t, Frame& frame, QCode& qc, bool& requested,
            JitResult* out) {
#ifdef IJVM_DISABLE_JIT
  (void)vm;
  (void)t;
  (void)frame;
  (void)qc;
  (void)requested;
  (void)out;
  return false;
#else
  if (vm.options().exec_engine != ExecEngine::Jit || !vm.options().osr) {
    return false;
  }
  // Governor PromoteJit requests are serviced here too: a bundle spinning
  // inside one call never crosses a method entry, so this batch flush is
  // the only point where its promotion -- and the OSR it requests -- can
  // take effect (docs/governor.md).
  ExecState& st = *qc.state;
  if (st.jit_pending.load(std::memory_order_relaxed)) drainJitQueue(vm);
  JMethod* m = frame.method;
  JitCode* jc = jitCodeOf(m);
  if (jc == nullptr) {
    // Self-promotion: hot past the threshold mid-invocation. Promotion
    // requests are idempotent per method: the `requested` latch stays set
    // across the rest of this invocation unless the request actually
    // produced code, so a compile bailout is not re-attempted at every
    // subsequent 4096-edge flush of the same spinning call.
    if (requested || qc.jit_ineligible.load(std::memory_order_relaxed)) {
      return false;
    }
    if (effectiveJitHotness(m) <= vm.options().jit_threshold) return false;
    requested = true;
    enqueueForJit(vm, m);
    drainJitQueue(vm);
    jc = jitCodeOf(m);
    // With background compilation the request is now in flight: the
    // worker builds off-thread and a later flush of this same spinning
    // frame installs the result and transfers onto it. The latch keeps
    // the in-between flushes from re-requesting.
    if (jc == nullptr) return false;
  }
  // Code exists -- produced synchronously just now, installed at an
  // earlier drain of this flush loop from a background build this
  // invocation requested, or compiled before the call began. Clear the
  // latch so a later deopt of *this* code may recompile (each recompile
  // covers strictly more of the stream; the kMaxJitDeopts pin bounds the
  // cycle -- docs/jit.md).
  requested = false;
  return runJitOsr(vm, t, frame, *jc, out);
#endif  // IJVM_DISABLE_JIT
}

JitResult runJit(VM& vm, JThread* t, Frame& frame, JitCode& jc) {
  // Active-execution bracket: see runJitOsr. The increment must precede
  // the first poll inside this call (pollJit below), so a stopped world
  // observes either no entry at all or a nonzero count.
  jc.active.fetch_add(1, std::memory_order_acq_rel);
  jc.uses.fetch_add(1, std::memory_order_relaxed);
  frame.tier = FrameTier::Jit;

  // Payoff post-install window (docs/jit.md, "Payoff"): time this
  // compiled invocation unless the verdict already settled or the window
  // is full -- steady-state code pays one relaxed load here, no clocks.
  // The epoch is snapshotted before timing; a retire racing this
  // execution invalidates the sample at accumulate time. OSR transfers
  // (runJitOsr) never sample: a mid-invocation entry is neither a full
  // interpreted nor a full compiled invocation.
  const VmOptions& opt = vm.options();
  bool payoff_timing = false;
  u32 payoff_epoch = 0;
  u64 payoff_t0 = 0;
  if (opt.jit_payoff && !jc.qc->payoff_settled.load(std::memory_order_relaxed) &&
      jc.qc->payoff_post_samples.load(std::memory_order_relaxed) <
          opt.jit_payoff_samples) {
    payoff_timing = true;
    payoff_epoch = jc.qc->payoff_epoch.load(std::memory_order_acquire);
    payoff_t0 = payoffNowNs();
  }
  if (opt.jit_payoff_test_entry_delay_ns != 0) {
    // Test seam (tests/test_jit_payoff.cpp): make compiled entries
    // deterministically slower than the fused tier so auto-demotion
    // provably fires. Inside the timed window by construction.
    const u64 until = payoffNowNs() + opt.jit_payoff_test_entry_delay_ns;
    while (payoffNowNs() < until) {
    }
  }

  JitCtx cx{vm, t, frame, jc};
  cx.accounting = opt.accounting;
  cx.tcm_idx =
      vm.tcmIndex(t->current_isolate.load(std::memory_order_relaxed));
  // The whole region is GC-scanned for the duration of the compiled
  // execution (see the GC discipline note at the top of this file).
  frame.stack.resize(jc.max_stack);
  cx.base = frame.stack.data();
  cx.sp = cx.base;
  cx.locals = frame.locals.data();

  // Entry poll, as at interpreter method entry.
  pollJit(cx);
  const MInsn* ip;
  if (t->pending_exception != nullptr) {
    frame.pc = 0;
    ip = &jc.exn;
  } else {
    ip = jc.entry.load(std::memory_order_acquire);
  }
  while (ip != nullptr) ip = ip->fn(cx, *ip);
  flushEdges(cx);
  if (cx.exit != JitExit::Deopt) {
    // Drop the scratch region so the pooled frame is left clean.
    frame.stack.clear();
  }
  // A deopt exit is a partial compiled execution (the interpreter
  // finishes the invocation) and the deopt already retired this code --
  // its sample would be dropped by the epoch check anyway.
  if (payoff_timing && cx.exit != JitExit::Deopt) {
    if (payoffAccumulate(vm, *jc.qc, /*post=*/true, payoff_epoch,
                         payoffNowNs() - payoff_t0, 1 + cx.total_edges)) {
      // This sample completed the post window: verdict time. A demotion
      // verdict retires the code while we still hold `active`, which is
      // fine -- retirement is poison-free and reclamation waits for the
      // count to drop.
      payoffEvaluate(vm, *jc.qc);
    }
  }
  jc.active.fetch_sub(1, std::memory_order_acq_rel);
  return {cx.exit, cx.result};
}

u64 effectiveJitHotness(JMethod* m) {
  const u64 raw = m->profile_invocations.load(std::memory_order_relaxed) +
                  m->profile_loop_edges.load(std::memory_order_relaxed);
  auto* qc = static_cast<QCode*>(m->qcode.load(std::memory_order_acquire));
  if (qc == nullptr) return raw;
  const u64 floor = qc->jit_hotness_floor.load(std::memory_order_relaxed);
  return raw > floor ? raw - floor : 0;
}

void enqueueForJit(VM& vm, JMethod* m) {
  if (vm.options().exec_engine != ExecEngine::Jit) return;
  if (m == nullptr || m->isNative() || m->isAbstract()) return;
  if (m->poisoned.load(std::memory_order_acquire)) return;
  if (m->jitcode.load(std::memory_order_acquire) != nullptr) return;
  auto* qc = static_cast<QCode*>(m->qcode.load(std::memory_order_acquire));
  if (qc == nullptr || qc->jit_ineligible.load(std::memory_order_relaxed)) return;
  if (vm.options().jit_threshold > 0 && !hasBackEdge(m)) {
    // Pin the rejection: a hot trampoline crosses the hotness check at
    // every entry, and without the pin it would re-attempt (and pay for)
    // promotion each time.
    qc->jit_ineligible.store(true, std::memory_order_relaxed);
    return;
  }
  if (qc->jit_queued.exchange(true, std::memory_order_acq_rel)) return;
  if (obs::traceEnabled()) {
    obs::emit(obs::Ev::CompileRequest, obs::Ph::Instant, jitTraceIsolate(m),
              jitTraceName(m));
    qc->jit_request_ns.store(obs::traceNowNs(), std::memory_order_release);
  }
  // Post-deopt re-request observability (ResourceStats): this method
  // already deopted at least once, so the request we just latched is part
  // of the deopt -> requicken -> recompile cycle.
  if (qc->jit_deopts.load(std::memory_order_relaxed) > 0) {
    qc->jit_recompile_requests.fetch_add(1, std::memory_order_relaxed);
    if (Isolate* iso = m->owner->loader->isolate()) {
      iso->stats.jit_recompile_requests.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ExecState& st = engineState(vm);
  if (vm.options().background_compile) {
    // Hand the request to the compiler thread (docs/jit.md, "Code
    // lifecycle"): the mutator keeps running the fused tier and installs
    // the finished code at a later drain point.
    CompileManager* mgr;
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (st.compile_mgr == nullptr) {
        st.compile_mgr = std::make_unique<CompileManager>(vm);
      }
      mgr = st.compile_mgr.get();
    }
    mgr->enqueue(m);
    return;
  }
  std::lock_guard<std::mutex> lock(st.mutex);
  st.jit_queue.push_back(m);
  st.jit_pending.store(true, std::memory_order_release);
}

void enqueueLoaderForJit(VM& vm, ClassLoader* loader, u64 min_hotness) {
  if (loader == nullptr || vm.options().exec_engine != ExecEngine::Jit) return;
  for (JClass* cls : loader->definedClasses()) {
    for (JMethod& m : cls->methods) {
      // Hotness above the demotion floor: a bundle the governor demoted
      // must earn fresh heat before its PromoteJit rule re-compiles it.
      if (effectiveJitHotness(&m) > min_hotness) enqueueForJit(vm, &m);
    }
  }
}

u32 drainJitQueue(VM& vm) {
  ExecState& st = engineState(vm);
  std::vector<JMethod*> todo;
  CompileManager* mgr;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    todo.assign(st.jit_queue.begin(), st.jit_queue.end());
    st.jit_queue.clear();
    st.jit_pending.store(false, std::memory_order_release);
    mgr = st.compile_mgr.get();
  }
  u32 compiled = 0;
  // Install whatever the background compiler finished (this is the
  // safepoint-coordinated install point: we are a mutator between polls,
  // so a stop-the-world poisoning pass can never interleave).
  if (mgr != nullptr) compiled += mgr->installReady();
  for (JMethod* m : todo) {
    // Promotion requests are idempotent per method: the governor re-fires
    // its hot-loop action on every tick a bundle stays hot, and a spinning
    // bundle's OSR flush drains this queue thousands of times a second --
    // a stale entry for a method that is already compiled (or was poisoned
    // after it was queued) must not rebuild or resurrect its JitCode.
    if (m->jitcode.load(std::memory_order_acquire) == nullptr &&
        !m->poisoned.load(std::memory_order_acquire)) {
      if (auto built = buildJitCode(vm, m);
          built != nullptr && installJitCode(vm, std::move(built))) {
        ++compiled;
      }
    }
    if (auto* qc = static_cast<QCode*>(m->qcode.load(std::memory_order_acquire))) {
      qc->jit_queued.store(false, std::memory_order_release);
    }
  }
  return compiled;
}

void poisonCompiledEntry(JMethod* m) {
  if (auto* jc = static_cast<JitCode*>(m->jitcode.load(std::memory_order_acquire))) {
    jc->entry.store(&kPoisonedEntry, std::memory_order_release);
    // OSR entries are method entries too: a terminated isolate's spinning
    // frame must not be able to transfer onto compiled code through a
    // loop-header side door (docs/jit.md, "On-stack replacement").
    for (OsrEntry& e : jc->osr_entries) {
      e.entry.store(&kPoisonedOsrEntry, std::memory_order_release);
    }
  }
}

std::string disasmJit(VM& vm, JMethod* m) {
  (void)vm;
  JitCode* jc = jitCodeOf(m);
  if (jc == nullptr) return "";
  const MInsn* entry = jc->entry.load(std::memory_order_acquire);
  std::string out = strf(
      "%s  (compiled call-threaded, %zu thunks, max stack %u, entry %s)\n",
      m->fullName().c_str(), jc->code.size(), jc->max_stack,
      entry == &kPoisonedEntry ? "POISONED" : "t0");
  auto slot_of = [&](const MInsn* p) {
    return static_cast<i32>(p - jc->code.data());
  };
  // OSR entry thunks, one per compiled loop header (docs/jit.md).
  for (const OsrEntry& e : jc->osr_entries) {
    const MInsn* osr_entry = e.entry.load(std::memory_order_acquire);
    out += strf("  osr@pc%-4d depth=%d -> t%d  %s\n", e.pc, e.depth,
                slot_of(e.thunk.target),
                osr_entry == &kPoisonedOsrEntry ? "POISONED" : "OSR_ENTRY");
  }
  for (size_t k = 0; k < jc->code.size(); ++k) {
    const MInsn& mi = jc->code[k];
    std::string operands;
    if (mi.fn == op_deopt) {
      operands = strf("(%s not quickened at compile time)", opName(mi.src_op));
    } else if (mi.fn == op_iconst || mi.fn == op_iconst_iadd) {
      operands = strf("imm=%d", mi.a);
    } else if (mi.fn == op_load || mi.fn == op_store) {
      operands = strf("slot=%d", mi.a);
    } else if (mi.fn == op_iinc) {
      operands = strf("slot=%d delta=%d", mi.a, mi.b);
    } else if (mi.fn == op_iinc_goto) {
      operands = strf("slot=%d delta=%d", mi.a, mi.b);
    } else if (mi.fn == op_static_iadd) {
      const auto* f = static_cast<const JField*>(mi.ptr);
      operands = strf("%s.%s slot=%d imm=%d", f->owner->name.c_str(),
                      f->name.c_str(), mi.c, mi.a);
    } else if (mi.name == std::string("GETFIELD_ARITH_J") ||
               mi.name == std::string("ALOAD_GETFIELD_ARITH_J")) {
      const auto* f = static_cast<const JField*>(mi.ptr);
      operands = strf("%s.%s slot=%d", f->owner->name.c_str(),
                      f->name.c_str(), mi.c);
    } else if (mi.fn == op_aload_getfield || mi.fn == op_getfield_q ||
               mi.fn == op_putfield_q || mi.fn == op_getstatic_q ||
               mi.fn == op_putstatic_q) {
      const auto* f = static_cast<const JField*>(mi.ptr);
      operands = strf("%s.%s slot=%d", f->owner->name.c_str(), f->name.c_str(),
                      mi.c);
    } else if (mi.fn == op_invokevirtual || mi.fn == op_invokeinterface ||
               mi.fn == op_invokestatic || mi.fn == op_invokespecial) {
      operands = static_cast<const JMethod*>(mi.ptr)->fullName() +
                 strf(" nargs=%d", mi.c);
    } else if (mi.fn == op_new_q || mi.fn == op_newarray ||
               mi.fn == op_checkcast_q || mi.fn == op_instanceof_q) {
      operands = static_cast<const JClass*>(mi.ptr)->name;
    } else if (mi.name == std::string("ILOAD_ILOAD_ARITH_ISTORE_J")) {
      operands = strf("slots=[%d %d] -> slot %d", mi.a, mi.c, mi.b);
    } else if (mi.fn == op_ll_iadd || mi.fn == op_ll_isub ||
               mi.fn == op_ll_imul || mi.fn == op_ll_iand ||
               mi.fn == op_ll_ior || mi.fn == op_ll_ixor) {
      operands = strf("slots=[%d %d]", mi.a, mi.c);
    } else if (mi.tpc >= 0 && mi.target != nullptr &&
               (mi.fn == op_ll_icmpeq || mi.fn == op_ll_icmpne ||
                mi.fn == op_ll_icmplt || mi.fn == op_ll_icmpge ||
                mi.fn == op_ll_icmpgt || mi.fn == op_ll_icmple)) {
      operands = strf("slots=[%d %d]", mi.a, mi.c);
    }
    if (mi.target != nullptr) {
      operands += strf("%s-> t%d (pc %d)", operands.empty() ? "" : " ",
                       slot_of(mi.target), mi.tpc);
    }
    out += disasmCompiledThunk(static_cast<i32>(k), mi.pc, mi.name, operands) +
           "\n";
  }
  return out;
}

}  // namespace ijvm::exec
