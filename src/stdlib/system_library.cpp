#include "stdlib/system_library.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bytecode/builder.h"
#include "stdlib/payloads.h"
#include "stdlib/stdlib_internal.h"
#include "support/strf.h"

namespace ijvm {

namespace {

constexpr const char* kHubKey = "channels";

Object* self(NativeCtx& ctx) { return ctx.args.at(0).asRef(); }

// Guest string payload of args[index]; throws NPE on null.
std::string argStr(NativeCtx& ctx, size_t index) {
  Object* s = ctx.args.at(index).asRef();
  if (s == nullptr) {
    ctx.throwGuest("java/lang/NullPointerException", "null string");
    return {};
  }
  IJVM_CHECK(s->kind == ObjKind::String, "argument is not a string");
  return s->str();
}

void bindNative(JClass* cls, const std::string& name, const std::string& desc,
                NativeFn fn) {
  JMethod* m = cls->findDeclared(name, desc);
  IJVM_CHECK(m != nullptr && m->isNative(),
             strf("no native method %s.%s%s", cls->name.c_str(), name.c_str(),
                  desc.c_str()));
  m->native = std::move(fn);
}

// Sleep helper shared by Thread.sleep and timed waits: slices so that
// interrupts / termination / VM shutdown break the sleep promptly.
// Returns false when interrupted (flag cleared, caller throws).
bool interruptibleSleep(VM& vm, JThread& t, i64 millis) {
  Isolate* iso = t.current_isolate.load(std::memory_order_relaxed);
  iso->stats.sleeping_threads.fetch_add(1, std::memory_order_relaxed);
  BlockedScope blocked(vm.safepoints(), &t);
  const bool forever = millis <= 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(forever ? 0 : millis);
  bool interrupted = false;
  for (;;) {
    if (t.interrupted.load(std::memory_order_acquire) ||
        t.force_kill.load(std::memory_order_acquire)) {
      interrupted = true;
      break;
    }
    if (!forever && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  iso->stats.sleeping_threads.fetch_sub(1, std::memory_order_relaxed);
  if (interrupted) {
    t.interrupted.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

JThread* jthreadOf(NativeCtx&, Object* thread_obj) {
  JField* f = thread_obj->cls->findField("__jthread");
  if (f == nullptr || f->isStatic()) return nullptr;
  return reinterpret_cast<JThread*>(thread_obj->fields()[f->slot].asLong());
}

// ---------------------------------------------------------------- classes

void defineObject(ClassLoader* sys) {
  ClassBuilder cb("java/lang/Object", "");
  cb.method("<init>", "()V").ret();
  cb.nativeMethod("hashCode", "()I");
  cb.nativeMethod("equals", "(Ljava/lang/Object;)I");
  cb.nativeMethod("getClass", "()Ljava/lang/Class;");
  cb.nativeMethod("toString", "()Ljava/lang/String;");
  cb.nativeMethod("wait", "()V");
  cb.nativeMethod("wait", "(J)V");
  cb.nativeMethod("notify", "()V");
  cb.nativeMethod("notifyAll", "()V");
  JClass* cls = sys->define(cb.build());

  bindNative(cls, "hashCode", "()I", [](NativeCtx& ctx) {
    return Value::ofInt(static_cast<i32>(reinterpret_cast<uintptr_t>(self(ctx)) >> 4));
  });
  bindNative(cls, "equals", "(Ljava/lang/Object;)I", [](NativeCtx& ctx) {
    return Value::ofInt(self(ctx) == ctx.args.at(1).asRef() ? 1 : 0);
  });
  bindNative(cls, "getClass", "()Ljava/lang/Class;", [](NativeCtx& ctx) {
    return Value::ofRef(ctx.vm.classObject(&ctx.thread, self(ctx)->cls));
  });
  bindNative(cls, "toString", "()Ljava/lang/String;", [](NativeCtx& ctx) {
    Object* o = self(ctx);
    std::string text = strf("%s@%x", o->cls->name.c_str(),
                            static_cast<unsigned>(reinterpret_cast<uintptr_t>(o)));
    return Value::ofRef(ctx.vm.newStringObject(&ctx.thread, text));
  });

  auto do_wait = [](NativeCtx& ctx, i64 millis) -> Value {
    Object* o = self(ctx);
    Monitor* mon = ctx.vm.monitorOf(o);
    JThread& t = ctx.thread;
    if (!mon->ownedBy(&t)) {
      ctx.throwGuest("java/lang/IllegalMonitorStateException", "wait: not owner");
      return {};
    }
    Isolate* iso = t.current_isolate.load(std::memory_order_relaxed);
    iso->stats.sleeping_threads.fetch_add(1, std::memory_order_relaxed);
    Monitor::WaitResult r;
    {
      BlockedScope blocked(ctx.vm.safepoints(), &ctx.thread);
      r = mon->wait(&t, millis, &t.interrupted);
    }
    iso->stats.sleeping_threads.fetch_sub(1, std::memory_order_relaxed);
    if (r == Monitor::WaitResult::Interrupted) {
      t.interrupted.store(false, std::memory_order_release);
      ctx.throwGuest("java/lang/InterruptedException", "wait interrupted");
    }
    return {};
  };
  bindNative(cls, "wait", "()V",
             [do_wait](NativeCtx& ctx) { return do_wait(ctx, 0); });
  bindNative(cls, "wait", "(J)V", [do_wait](NativeCtx& ctx) {
    return do_wait(ctx, ctx.args.at(1).asLong());
  });
  bindNative(cls, "notify", "()V", [](NativeCtx& ctx) {
    Monitor* mon = ctx.vm.monitorOf(self(ctx));
    if (!mon->ownedBy(&ctx.thread)) {
      ctx.throwGuest("java/lang/IllegalMonitorStateException", "notify: not owner");
      return Value();
    }
    mon->notifyOne();
    return Value();
  });
  bindNative(cls, "notifyAll", "()V", [](NativeCtx& ctx) {
    Monitor* mon = ctx.vm.monitorOf(self(ctx));
    if (!mon->ownedBy(&ctx.thread)) {
      ctx.throwGuest("java/lang/IllegalMonitorStateException", "notifyAll: not owner");
      return Value();
    }
    mon->notifyAll();
    return Value();
  });
}

void defineClassClass(ClassLoader* sys) {
  ClassBuilder cb("java/lang/Class");
  cb.field("__jclass", "J", ACC_PRIVATE);
  cb.nativeMethod("getName", "()Ljava/lang/String;");
  JClass* cls = sys->define(cb.build());
  bindNative(cls, "getName", "()Ljava/lang/String;", [](NativeCtx& ctx) {
    Object* o = self(ctx);
    JField* f = o->cls->findField("__jclass");
    auto* jc = reinterpret_cast<JClass*>(o->fields()[f->slot].asLong());
    return Value::ofRef(
        ctx.vm.newStringObject(&ctx.thread, jc != nullptr ? jc->name : "?"));
  });
}

void defineString(ClassLoader* sys) {
  ClassBuilder cb("java/lang/String");
  cb.nativeMethod("length", "()I");
  cb.nativeMethod("charAt", "(I)I");
  cb.nativeMethod("equals", "(Ljava/lang/Object;)I");
  cb.nativeMethod("hashCode", "()I");
  cb.nativeMethod("toString", "()Ljava/lang/String;");
  cb.nativeMethod("concat", "(Ljava/lang/String;)Ljava/lang/String;");
  cb.nativeMethod("substring", "(II)Ljava/lang/String;");
  cb.nativeMethod("indexOf", "(I)I");
  cb.nativeMethod("startsWith", "(Ljava/lang/String;)I");
  cb.nativeMethod("compareTo", "(Ljava/lang/String;)I");
  cb.nativeMethod("intern", "()Ljava/lang/String;");
  cb.nativeMethod("isEmpty", "()I");
  // Second-tier methods, bound in stdlib_extra.cpp.
  cb.nativeMethod("endsWith", "(Ljava/lang/String;)I");
  cb.nativeMethod("contains", "(Ljava/lang/String;)I");
  cb.nativeMethod("indexOf", "(Ljava/lang/String;)I");
  cb.nativeMethod("lastIndexOf", "(I)I");
  cb.nativeMethod("replace", "(II)Ljava/lang/String;");
  cb.nativeMethod("toUpperCase", "()Ljava/lang/String;");
  cb.nativeMethod("toLowerCase", "()Ljava/lang/String;");
  cb.nativeMethod("trim", "()Ljava/lang/String;");
  cb.nativeMethod("split", "(Ljava/lang/String;)[Ljava/lang/String;");
  JClass* cls = sys->define(cb.build());

  auto str_of = [](Object* o) -> const std::string& { return o->str(); };

  bindNative(cls, "length", "()I", [str_of](NativeCtx& ctx) {
    return Value::ofInt(static_cast<i32>(str_of(self(ctx)).size()));
  });
  bindNative(cls, "charAt", "(I)I", [str_of](NativeCtx& ctx) {
    const std::string& s = str_of(self(ctx));
    i32 idx = ctx.args.at(1).asInt();
    if (idx < 0 || static_cast<size_t>(idx) >= s.size()) {
      ctx.throwGuest("java/lang/StringIndexOutOfBoundsException", strf("%d", idx));
      return Value();
    }
    return Value::ofInt(static_cast<u8>(s[static_cast<size_t>(idx)]));
  });
  bindNative(cls, "equals", "(Ljava/lang/Object;)I", [str_of](NativeCtx& ctx) {
    Object* other = ctx.args.at(1).asRef();
    if (other == nullptr || other->kind != ObjKind::String) return Value::ofInt(0);
    return Value::ofInt(str_of(self(ctx)) == other->str() ? 1 : 0);
  });
  bindNative(cls, "hashCode", "()I", [str_of](NativeCtx& ctx) {
    // Java's s[0]*31^(n-1) + ...
    i32 h = 0;
    for (char c : str_of(self(ctx))) {
      h = static_cast<i32>(static_cast<u32>(h) * 31u + static_cast<u8>(c));
    }
    return Value::ofInt(h);
  });
  bindNative(cls, "toString", "()Ljava/lang/String;",
             [](NativeCtx& ctx) { return Value::ofRef(self(ctx)); });
  bindNative(cls, "concat", "(Ljava/lang/String;)Ljava/lang/String;",
             [str_of](NativeCtx& ctx) {
               std::string other = argStr(ctx, 1);
               if (ctx.hasPending()) return Value();
               return Value::ofRef(ctx.vm.newStringObject(
                   &ctx.thread, str_of(self(ctx)) + other));
             });
  bindNative(cls, "substring", "(II)Ljava/lang/String;", [str_of](NativeCtx& ctx) {
    const std::string& s = str_of(self(ctx));
    i32 from = ctx.args.at(1).asInt();
    i32 to = ctx.args.at(2).asInt();
    if (from < 0 || to < from || static_cast<size_t>(to) > s.size()) {
      ctx.throwGuest("java/lang/StringIndexOutOfBoundsException",
                     strf("[%d,%d)", from, to));
      return Value();
    }
    return Value::ofRef(ctx.vm.newStringObject(
        &ctx.thread, s.substr(static_cast<size_t>(from),
                              static_cast<size_t>(to - from))));
  });
  bindNative(cls, "indexOf", "(I)I", [str_of](NativeCtx& ctx) {
    const std::string& s = str_of(self(ctx));
    char c = static_cast<char>(ctx.args.at(1).asInt());
    size_t pos = s.find(c);
    return Value::ofInt(pos == std::string::npos ? -1 : static_cast<i32>(pos));
  });
  bindNative(cls, "startsWith", "(Ljava/lang/String;)I", [str_of](NativeCtx& ctx) {
    std::string prefix = argStr(ctx, 1);
    if (ctx.hasPending()) return Value();
    const std::string& s = str_of(self(ctx));
    return Value::ofInt(s.rfind(prefix, 0) == 0 ? 1 : 0);
  });
  bindNative(cls, "compareTo", "(Ljava/lang/String;)I", [str_of](NativeCtx& ctx) {
    std::string other = argStr(ctx, 1);
    if (ctx.hasPending()) return Value();
    int c = str_of(self(ctx)).compare(other);
    return Value::ofInt(c < 0 ? -1 : (c > 0 ? 1 : 0));
  });
  bindNative(cls, "intern", "()Ljava/lang/String;", [str_of](NativeCtx& ctx) {
    return Value::ofRef(ctx.vm.internString(&ctx.thread, str_of(self(ctx))));
  });
  bindNative(cls, "isEmpty", "()I", [str_of](NativeCtx& ctx) {
    return Value::ofInt(str_of(self(ctx)).empty() ? 1 : 0);
  });
}

void defineThrowables(ClassLoader* sys) {
  {
    ClassBuilder cb("java/lang/Throwable");
    cb.field("message", "Ljava/lang/String;");
    auto& c0 = cb.method("<init>", "()V");
    c0.aload(0).invokespecial("java/lang/Object", "<init>", "()V").ret();
    auto& c1 = cb.method("<init>", "(Ljava/lang/String;)V");
    c1.aload(0).invokespecial("java/lang/Object", "<init>", "()V");
    c1.aload(0).aload(1).putfield("java/lang/Throwable", "message",
                                  "Ljava/lang/String;");
    c1.ret();
    auto& gm = cb.method("getMessage", "()Ljava/lang/String;");
    gm.aload(0)
        .getfield("java/lang/Throwable", "message", "Ljava/lang/String;")
        .areturn();
    sys->define(cb.build());
  }

  auto def_exc = [&](const char* name, const char* super) {
    ClassBuilder cb(name, super);
    auto& c0 = cb.method("<init>", "()V");
    c0.aload(0).invokespecial(super, "<init>", "()V").ret();
    auto& c1 = cb.method("<init>", "(Ljava/lang/String;)V");
    c1.aload(0).aload(1).invokespecial(super, "<init>", "(Ljava/lang/String;)V").ret();
    return sys->define(cb.build());
  };

  def_exc("java/lang/Exception", "java/lang/Throwable");
  def_exc("java/lang/RuntimeException", "java/lang/Exception");
  def_exc("java/lang/Error", "java/lang/Throwable");

  def_exc("java/lang/NullPointerException", "java/lang/RuntimeException");
  def_exc("java/lang/ArithmeticException", "java/lang/RuntimeException");
  def_exc("java/lang/ArrayIndexOutOfBoundsException", "java/lang/RuntimeException");
  def_exc("java/lang/StringIndexOutOfBoundsException", "java/lang/RuntimeException");
  def_exc("java/lang/NegativeArraySizeException", "java/lang/RuntimeException");
  def_exc("java/lang/ClassCastException", "java/lang/RuntimeException");
  def_exc("java/lang/ArrayStoreException", "java/lang/RuntimeException");
  def_exc("java/lang/IllegalMonitorStateException", "java/lang/RuntimeException");
  def_exc("java/lang/IllegalArgumentException", "java/lang/RuntimeException");
  def_exc("java/lang/IllegalStateException", "java/lang/RuntimeException");
  def_exc("java/lang/NumberFormatException", "java/lang/IllegalArgumentException");
  def_exc("java/lang/SecurityException", "java/lang/RuntimeException");
  def_exc("java/lang/InterruptedException", "java/lang/Exception");
  def_exc("java/lang/ClassNotFoundException", "java/lang/Exception");

  def_exc("java/lang/OutOfMemoryError", "java/lang/Error");
  def_exc("java/lang/StackOverflowError", "java/lang/Error");
  def_exc("java/lang/AbstractMethodError", "java/lang/Error");
  def_exc("java/lang/InstantiationError", "java/lang/Error");
  def_exc("java/lang/NoClassDefFoundError", "java/lang/Error");
  def_exc("java/lang/NoSuchMethodError", "java/lang/Error");
  def_exc("java/lang/NoSuchFieldError", "java/lang/Error");
  def_exc("java/lang/IncompatibleClassChangeError", "java/lang/Error");
  def_exc("java/lang/ExceptionInInitializerError", "java/lang/Error");

  // The termination exception (paper section 3.3). `target` is the isolate
  // being terminated; handlers in that isolate's frames are skipped by
  // exception dispatch, making it uncatchable *by* the dying isolate.
  {
    ClassBuilder cb(kStoppedIsolateException, "java/lang/Error");
    cb.field("target", "I");
    auto& c0 = cb.method("<init>", "()V");
    c0.aload(0).invokespecial("java/lang/Error", "<init>", "()V").ret();
    auto& c1 = cb.method("<init>", "(Ljava/lang/String;)V");
    c1.aload(0).aload(1)
        .invokespecial("java/lang/Error", "<init>", "(Ljava/lang/String;)V")
        .ret();
    sys->define(cb.build());
  }
}

void defineRunnableAndThread(ClassLoader* sys) {
  {
    ClassBuilder cb("java/lang/Runnable", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("run", "()V");
    sys->define(cb.build());
  }

  ClassBuilder cb("java/lang/Thread");
  cb.addInterface("java/lang/Runnable");
  cb.field("name", "Ljava/lang/String;");
  cb.field("target", "Ljava/lang/Runnable;");
  cb.field("__jthread", "J", ACC_PRIVATE);
  {
    auto& c0 = cb.method("<init>", "()V");
    c0.aload(0).invokespecial("java/lang/Object", "<init>", "()V").ret();
    auto& c1 = cb.method("<init>", "(Ljava/lang/Runnable;)V");
    c1.aload(0).invokespecial("java/lang/Object", "<init>", "()V");
    c1.aload(0).aload(1).putfield("java/lang/Thread", "target",
                                   "Ljava/lang/Runnable;");
    c1.ret();
    auto& sn = cb.method("setName", "(Ljava/lang/String;)V");
    sn.aload(0).aload(1).putfield("java/lang/Thread", "name", "Ljava/lang/String;")
        .ret();
    auto& gn = cb.method("getName", "()Ljava/lang/String;");
    gn.aload(0).getfield("java/lang/Thread", "name", "Ljava/lang/String;").areturn();
    // run(): if (target != null) target.run();
    auto& run = cb.method("run", "()V");
    Label lnull = run.newLabel();
    run.aload(0).getfield("java/lang/Thread", "target", "Ljava/lang/Runnable;");
    run.dup().ifNull(lnull);
    run.invokeinterface("java/lang/Runnable", "run", "()V").ret();
    run.bind(lnull).pop().ret();
  }
  cb.nativeMethod("start", "()V");
  cb.nativeMethod("join", "()V");
  cb.nativeMethod("interrupt", "()V");
  cb.nativeMethod("isAlive", "()I");
  cb.nativeMethod("sleep", "(J)V", ACC_STATIC);
  cb.nativeMethod("currentThread", "()Ljava/lang/Thread;", ACC_STATIC);
  cb.nativeMethod("yield", "()V", ACC_STATIC);
  JClass* cls = sys->define(cb.build());

  bindNative(cls, "start", "()V", [](NativeCtx& ctx) {
    Object* obj = self(ctx);
    JField* f = obj->cls->findField("__jthread");
    if (obj->fields()[f->slot].asLong() != 0) {
      ctx.throwGuest("java/lang/IllegalStateException", "thread already started");
      return Value();
    }
    std::string name = "guest-thread";
    if (JField* nf = obj->cls->findField("name"); nf != nullptr) {
      Object* ns = obj->fields()[nf->slot].asRef();
      if (ns != nullptr && ns->kind == ObjKind::String) name = ns->str();
    }
    JThread* spawned = ctx.vm.spawnThread(&ctx.thread, obj, name);
    if (spawned == nullptr) return Value();  // limit exceeded, pending OOM
    obj->fields()[f->slot] = Value::ofLong(reinterpret_cast<i64>(spawned));
    return Value();
  });
  bindNative(cls, "join", "()V", [](NativeCtx& ctx) {
    JThread* target = jthreadOf(ctx, self(ctx));
    if (target == nullptr) return Value();  // never started: join is a no-op
    bool done;
    {
      BlockedScope blocked(ctx.vm.safepoints(), &ctx.thread);
      done = target->awaitDone(&ctx.thread, 0);
    }
    if (!done) {
      ctx.thread.interrupted.store(false, std::memory_order_release);
      ctx.throwGuest("java/lang/InterruptedException", "join interrupted");
    }
    return Value();
  });
  bindNative(cls, "interrupt", "()V", [](NativeCtx& ctx) {
    JThread* target = jthreadOf(ctx, self(ctx));
    if (target != nullptr) {
      target->interrupted.store(true, std::memory_order_release);
    }
    return Value();
  });
  bindNative(cls, "isAlive", "()I", [](NativeCtx& ctx) {
    JThread* target = jthreadOf(ctx, self(ctx));
    return Value::ofInt(
        target != nullptr &&
                target->state.load(std::memory_order_acquire) != ThreadState::Dead &&
                !target->isDone()
            ? 1
            : 0);
  });
  bindNative(cls, "sleep", "(J)V", [](NativeCtx& ctx) {
    if (!interruptibleSleep(ctx.vm, ctx.thread, ctx.args.at(0).asLong())) {
      ctx.throwGuest("java/lang/InterruptedException", "sleep interrupted");
    }
    return Value();
  });
  bindNative(cls, "currentThread", "()Ljava/lang/Thread;", [cls](NativeCtx& ctx) {
    JThread& t = ctx.thread;
    if (t.thread_object == nullptr) {
      Object* obj = ctx.vm.allocObject(&t, cls);
      if (obj == nullptr) return Value();
      JField* f = cls->findField("__jthread");
      obj->fields()[f->slot] = Value::ofLong(reinterpret_cast<i64>(&t));
      t.thread_object = obj;
    }
    return Value::ofRef(t.thread_object);
  });
  bindNative(cls, "yield", "()V", [](NativeCtx&) {
    std::this_thread::yield();
    return Value();
  });
}

void defineSystemAndMath(ClassLoader* sys) {
  {
    ClassBuilder cb("java/lang/System");
    cb.nativeMethod("currentTimeMillis", "()J", ACC_STATIC);
    cb.nativeMethod("nanoTime", "()J", ACC_STATIC);
    cb.nativeMethod("arraycopy",
                    "(Ljava/lang/Object;ILjava/lang/Object;II)V", ACC_STATIC);
    cb.nativeMethod("gc", "()V", ACC_STATIC);
    cb.nativeMethod("exit", "(I)V", ACC_STATIC);
    cb.nativeMethod("identityHashCode", "(Ljava/lang/Object;)I", ACC_STATIC);
    cb.nativeMethod("println", "(Ljava/lang/String;)V", ACC_STATIC);
    cb.nativeMethod("printInt", "(I)V", ACC_STATIC);
    JClass* cls = sys->define(cb.build());

    bindNative(cls, "currentTimeMillis", "()J", [](NativeCtx&) {
      auto now = std::chrono::steady_clock::now().time_since_epoch();
      return Value::ofLong(
          std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
    });
    bindNative(cls, "nanoTime", "()J", [](NativeCtx&) {
      auto now = std::chrono::steady_clock::now().time_since_epoch();
      return Value::ofLong(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
    });
    bindNative(cls, "arraycopy", "(Ljava/lang/Object;ILjava/lang/Object;II)V",
               [](NativeCtx& ctx) {
                 Object* src = ctx.args.at(0).asRef();
                 i32 src_pos = ctx.args.at(1).asInt();
                 Object* dst = ctx.args.at(2).asRef();
                 i32 dst_pos = ctx.args.at(3).asInt();
                 i32 len = ctx.args.at(4).asInt();
                 if (src == nullptr || dst == nullptr) {
                   ctx.throwGuest("java/lang/NullPointerException", "arraycopy");
                   return Value();
                 }
                 if (!src->isArray() || !dst->isArray() || src->kind != dst->kind) {
                   ctx.throwGuest("java/lang/ArrayStoreException", "arraycopy");
                   return Value();
                 }
                 if (len < 0 || src_pos < 0 || dst_pos < 0 ||
                     src_pos + len > src->length || dst_pos + len > dst->length) {
                   ctx.throwGuest("java/lang/ArrayIndexOutOfBoundsException",
                                  "arraycopy");
                   return Value();
                 }
                 switch (src->kind) {
                   case ObjKind::ArrayInt:
                     std::memmove(dst->intElems() + dst_pos, src->intElems() + src_pos,
                                  static_cast<size_t>(len) * sizeof(i32));
                     break;
                   case ObjKind::ArrayLong:
                     std::memmove(dst->longElems() + dst_pos,
                                  src->longElems() + src_pos,
                                  static_cast<size_t>(len) * sizeof(i64));
                     break;
                   case ObjKind::ArrayDouble:
                     std::memmove(dst->doubleElems() + dst_pos,
                                  src->doubleElems() + src_pos,
                                  static_cast<size_t>(len) * sizeof(double));
                     break;
                   case ObjKind::ArrayRef:
                     std::memmove(dst->refElems() + dst_pos, src->refElems() + src_pos,
                                  static_cast<size_t>(len) * sizeof(Object*));
                     break;
                   default:
                     ctx.throwGuest("java/lang/ArrayStoreException", "arraycopy");
                     break;
                 }
                 return Value();
               });
    bindNative(cls, "gc", "()V", [](NativeCtx& ctx) {
      ctx.vm.collectGarbage(&ctx.thread,
                            ctx.thread.current_isolate.load(std::memory_order_relaxed));
      return Value();
    });
    bindNative(cls, "exit", "(I)V", [](NativeCtx& ctx) {
      // OSGi rule 2 (paper section 3.4): bundles must not be able to shut
      // down the JVM; only Isolate0 may.
      Isolate* iso = ctx.thread.current_isolate.load(std::memory_order_relaxed);
      if (!iso->privileged) {
        ctx.throwGuest("java/lang/SecurityException", "System.exit denied");
        return Value();
      }
      ctx.vm.shutdownAllThreads();
      return Value();
    });
    bindNative(cls, "identityHashCode", "(Ljava/lang/Object;)I", [](NativeCtx& ctx) {
      return Value::ofInt(static_cast<i32>(
          reinterpret_cast<uintptr_t>(ctx.args.at(0).asRef()) >> 4));
    });
    bindNative(cls, "println", "(Ljava/lang/String;)V", [](NativeCtx& ctx) {
      Object* s = ctx.args.at(0).asRef();
      std::printf("%s\n", s != nullptr && s->kind == ObjKind::String
                              ? s->str().c_str()
                              : "null");
      return Value();
    });
    bindNative(cls, "printInt", "(I)V", [](NativeCtx& ctx) {
      std::printf("%d\n", ctx.args.at(0).asInt());
      return Value();
    });
  }

  {
    ClassBuilder cb("java/lang/Math");
    cb.nativeMethod("sqrt", "(D)D", ACC_STATIC);
    cb.nativeMethod("sin", "(D)D", ACC_STATIC);
    cb.nativeMethod("cos", "(D)D", ACC_STATIC);
    cb.nativeMethod("pow", "(DD)D", ACC_STATIC);
    cb.nativeMethod("floor", "(D)D", ACC_STATIC);
    cb.nativeMethod("abs", "(D)D", ACC_STATIC);
    cb.nativeMethod("max", "(II)I", ACC_STATIC);
    cb.nativeMethod("min", "(II)I", ACC_STATIC);
    JClass* cls = sys->define(cb.build());
    bindNative(cls, "sqrt", "(D)D", [](NativeCtx& ctx) {
      return Value::ofDouble(std::sqrt(ctx.args.at(0).asDouble()));
    });
    bindNative(cls, "sin", "(D)D", [](NativeCtx& ctx) {
      return Value::ofDouble(std::sin(ctx.args.at(0).asDouble()));
    });
    bindNative(cls, "cos", "(D)D", [](NativeCtx& ctx) {
      return Value::ofDouble(std::cos(ctx.args.at(0).asDouble()));
    });
    bindNative(cls, "pow", "(DD)D", [](NativeCtx& ctx) {
      return Value::ofDouble(
          std::pow(ctx.args.at(0).asDouble(), ctx.args.at(1).asDouble()));
    });
    bindNative(cls, "floor", "(D)D", [](NativeCtx& ctx) {
      return Value::ofDouble(std::floor(ctx.args.at(0).asDouble()));
    });
    bindNative(cls, "abs", "(D)D", [](NativeCtx& ctx) {
      return Value::ofDouble(std::fabs(ctx.args.at(0).asDouble()));
    });
    bindNative(cls, "max", "(II)I", [](NativeCtx& ctx) {
      return Value::ofInt(std::max(ctx.args.at(0).asInt(), ctx.args.at(1).asInt()));
    });
    bindNative(cls, "min", "(II)I", [](NativeCtx& ctx) {
      return Value::ofInt(std::min(ctx.args.at(0).asInt(), ctx.args.at(1).asInt()));
    });
  }

  // java/lang/Integer (incl. a strict, overflow-checked parseInt) is
  // defined with the extended classes in stdlib_extra.cpp.
}

void defineStringBuilder(ClassLoader* sys) {
  ClassBuilder cb("java/lang/StringBuilder");
  cb.nativeMethod("<init>", "()V");
  cb.nativeMethod("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;");
  cb.nativeMethod("appendInt", "(I)Ljava/lang/StringBuilder;");
  cb.nativeMethod("appendChar", "(I)Ljava/lang/StringBuilder;");
  cb.nativeMethod("length", "()I");
  cb.nativeMethod("toString", "()Ljava/lang/String;");
  JClass* cls = sys->define(cb.build());
  cls->native_factory = [] { return std::make_unique<SbPayload>(); };

  auto payload = [](NativeCtx& ctx) -> SbPayload* {
    return static_cast<SbPayload*>(self(ctx)->native());
  };
  bindNative(cls, "<init>", "()V", [](NativeCtx&) { return Value(); });
  bindNative(cls, "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
             [payload](NativeCtx& ctx) {
               std::string s = argStr(ctx, 1);
               if (ctx.hasPending()) return Value();
               payload(ctx)->buf += s;
               return Value::ofRef(self(ctx));
             });
  bindNative(cls, "appendInt", "(I)Ljava/lang/StringBuilder;",
             [payload](NativeCtx& ctx) {
               // Decimal, as "%d" would print it, without a heap buffer.
               char digits[16];
               const auto res = std::to_chars(digits, digits + sizeof(digits),
                                              ctx.args.at(1).asInt());
               payload(ctx)->buf.append(digits, res.ptr);
               return Value::ofRef(self(ctx));
             });
  bindNative(cls, "appendChar", "(I)Ljava/lang/StringBuilder;",
             [payload](NativeCtx& ctx) {
               payload(ctx)->buf += static_cast<char>(ctx.args.at(1).asInt());
               return Value::ofRef(self(ctx));
             });
  bindNative(cls, "length", "()I", [payload](NativeCtx& ctx) {
    return Value::ofInt(static_cast<i32>(payload(ctx)->buf.size()));
  });
  bindNative(cls, "toString", "()Ljava/lang/String;", [payload](NativeCtx& ctx) {
    return Value::ofRef(ctx.vm.newStringObject(&ctx.thread, payload(ctx)->buf));
  });
}

void defineCollections(ClassLoader* sys) {
  {
    ClassBuilder cb("java/util/ArrayList");
    cb.nativeMethod("<init>", "()V");
    cb.nativeMethod("add", "(Ljava/lang/Object;)I");
    cb.nativeMethod("get", "(I)Ljava/lang/Object;");
    cb.nativeMethod("set", "(ILjava/lang/Object;)Ljava/lang/Object;");
    cb.nativeMethod("size", "()I");
    cb.nativeMethod("clear", "()V");
    cb.nativeMethod("removeLast", "()Ljava/lang/Object;");
    JClass* cls = sys->define(cb.build());
    cls->native_factory = [] { return std::make_unique<ListPayload>(); };

    auto payload = [](NativeCtx& ctx) -> ListPayload* {
      return static_cast<ListPayload*>(self(ctx)->native());
    };
    bindNative(cls, "<init>", "()V", [](NativeCtx&) { return Value(); });
    bindNative(cls, "add", "(Ljava/lang/Object;)I", [payload](NativeCtx& ctx) {
      payload(ctx)->items.push_back(ctx.args.at(1));
      return Value::ofInt(1);
    });
    bindNative(cls, "get", "(I)Ljava/lang/Object;", [payload](NativeCtx& ctx) {
      ListPayload* p = payload(ctx);
      i32 idx = ctx.args.at(1).asInt();
      if (idx < 0 || static_cast<size_t>(idx) >= p->items.size()) {
        ctx.throwGuest("java/lang/ArrayIndexOutOfBoundsException", strf("%d", idx));
        return Value();
      }
      return p->items[static_cast<size_t>(idx)];
    });
    bindNative(cls, "set", "(ILjava/lang/Object;)Ljava/lang/Object;",
               [payload](NativeCtx& ctx) {
                 ListPayload* p = payload(ctx);
                 i32 idx = ctx.args.at(1).asInt();
                 if (idx < 0 || static_cast<size_t>(idx) >= p->items.size()) {
                   ctx.throwGuest("java/lang/ArrayIndexOutOfBoundsException",
                                  strf("%d", idx));
                   return Value();
                 }
                 Value old = p->items[static_cast<size_t>(idx)];
                 p->items[static_cast<size_t>(idx)] = ctx.args.at(2);
                 return old;
               });
    bindNative(cls, "size", "()I", [payload](NativeCtx& ctx) {
      return Value::ofInt(static_cast<i32>(payload(ctx)->items.size()));
    });
    bindNative(cls, "clear", "()V", [payload](NativeCtx& ctx) {
      payload(ctx)->items.clear();
      return Value();
    });
    bindNative(cls, "removeLast", "()Ljava/lang/Object;", [payload](NativeCtx& ctx) {
      ListPayload* p = payload(ctx);
      if (p->items.empty()) {
        ctx.throwGuest("java/lang/IllegalStateException", "empty list");
        return Value();
      }
      Value v = p->items.back();
      p->items.pop_back();
      return v;
    });
  }

  {
    ClassBuilder cb("java/util/HashMap");
    cb.nativeMethod("<init>", "()V");
    cb.nativeMethod("put", "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;");
    cb.nativeMethod("get", "(Ljava/lang/String;)Ljava/lang/Object;");
    cb.nativeMethod("containsKey", "(Ljava/lang/String;)I");
    cb.nativeMethod("remove", "(Ljava/lang/String;)Ljava/lang/Object;");
    cb.nativeMethod("size", "()I");
    JClass* cls = sys->define(cb.build());
    cls->native_factory = [] { return std::make_unique<MapPayload>(); };

    auto payload = [](NativeCtx& ctx) -> MapPayload* {
      return static_cast<MapPayload*>(self(ctx)->native());
    };
    bindNative(cls, "<init>", "()V", [](NativeCtx&) { return Value(); });
    bindNative(cls, "put", "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;",
               [payload](NativeCtx& ctx) {
                 std::string key = argStr(ctx, 1);
                 if (ctx.hasPending()) return Value();
                 MapPayload* p = payload(ctx);
                 Value old;
                 if (auto it = p->map.find(key); it != p->map.end()) old = it->second;
                 p->map[key] = ctx.args.at(2);
                 return old;
               });
    bindNative(cls, "get", "(Ljava/lang/String;)Ljava/lang/Object;",
               [payload](NativeCtx& ctx) {
                 std::string key = argStr(ctx, 1);
                 if (ctx.hasPending()) return Value();
                 MapPayload* p = payload(ctx);
                 auto it = p->map.find(key);
                 return it == p->map.end() ? Value::nullRef() : it->second;
               });
    bindNative(cls, "containsKey", "(Ljava/lang/String;)I", [payload](NativeCtx& ctx) {
      std::string key = argStr(ctx, 1);
      if (ctx.hasPending()) return Value();
      return Value::ofInt(payload(ctx)->map.count(key) != 0 ? 1 : 0);
    });
    bindNative(cls, "remove", "(Ljava/lang/String;)Ljava/lang/Object;",
               [payload](NativeCtx& ctx) {
                 std::string key = argStr(ctx, 1);
                 if (ctx.hasPending()) return Value();
                 MapPayload* p = payload(ctx);
                 auto it = p->map.find(key);
                 if (it == p->map.end()) return Value::nullRef();
                 Value old = it->second;
                 p->map.erase(it);
                 return old;
               });
    bindNative(cls, "size", "()I", [payload](NativeCtx& ctx) {
      return Value::ofInt(static_cast<i32>(payload(ctx)->map.size()));
    });
  }
}

void defineConnection(ClassLoader* sys) {
  // The instrumented connection class: every read/write charges the
  // *current* isolate (JRes-style accounting, paper section 3.2).
  ClassBuilder cb("java/io/Connection");
  cb.nativeMethod("<init>", "()V");
  cb.nativeMethod("open", "(Ljava/lang/String;)Ljava/io/Connection;", ACC_STATIC);
  cb.nativeMethod("write", "(I)V");
  cb.nativeMethod("writeString", "(Ljava/lang/String;)V");
  cb.nativeMethod("read", "()I");
  cb.nativeMethod("readString", "(I)Ljava/lang/String;");
  cb.nativeMethod("available", "()I");
  cb.nativeMethod("close", "()V");
  JClass* cls = sys->define(cb.build());
  cls->native_factory = [] { return std::make_unique<ConnectionPayload>(); };

  auto payload = [](NativeCtx& ctx) -> ConnectionPayload* {
    return static_cast<ConnectionPayload*>(self(ctx)->native());
  };
  auto charge_write = [](NativeCtx& ctx, size_t n) {
    Isolate* iso = ctx.thread.current_isolate.load(std::memory_order_relaxed);
    iso->stats.io_bytes_written.fetch_add(n, std::memory_order_relaxed);
  };
  auto charge_read = [](NativeCtx& ctx, size_t n) {
    Isolate* iso = ctx.thread.current_isolate.load(std::memory_order_relaxed);
    iso->stats.io_bytes_read.fetch_add(n, std::memory_order_relaxed);
  };

  bindNative(cls, "<init>", "()V", [](NativeCtx&) { return Value(); });
  bindNative(cls, "open", "(Ljava/lang/String;)Ljava/io/Connection;",
             [cls](NativeCtx& ctx) {
               // Name is advisory (loopback connection); kept for API shape.
               return Value::ofRef(ctx.vm.allocObject(&ctx.thread, cls));
             });
  bindNative(cls, "write", "(I)V", [payload, charge_write](NativeCtx& ctx) {
    u8 b = static_cast<u8>(ctx.args.at(1).asInt());
    payload(ctx)->channel->write(&b, 1);
    charge_write(ctx, 1);
    return Value();
  });
  bindNative(cls, "writeString", "(Ljava/lang/String;)V",
             [payload, charge_write](NativeCtx& ctx) {
               std::string s = argStr(ctx, 1);
               if (ctx.hasPending()) return Value();
               payload(ctx)->channel->write(s);
               charge_write(ctx, s.size());
               return Value();
             });
  bindNative(cls, "read", "()I", [payload, charge_read](NativeCtx& ctx) {
    u8 b = 0;
    size_t got;
    {
      BlockedScope blocked(ctx.vm.safepoints(), &ctx.thread);
      got = payload(ctx)->channel->read(&b, 1, &ctx.thread.interrupted);
    }
    if (got == SIZE_MAX) {
      ctx.thread.interrupted.store(false, std::memory_order_release);
      ctx.throwGuest("java/lang/InterruptedException", "read interrupted");
      return Value();
    }
    if (got == 0) return Value::ofInt(-1);
    charge_read(ctx, 1);
    return Value::ofInt(b);
  });
  bindNative(cls, "readString", "(I)Ljava/lang/String;",
             [payload, charge_read](NativeCtx& ctx) {
               i32 n = ctx.args.at(1).asInt();
               if (n < 0) {
                 ctx.throwGuest("java/lang/IllegalArgumentException", strf("%d", n));
                 return Value();
               }
               std::string out;
               bool ok;
               {
                 BlockedScope blocked(ctx.vm.safepoints(), &ctx.thread);
                 ok = payload(ctx)->channel->readFully(&out, static_cast<size_t>(n),
                                                       &ctx.thread.interrupted);
               }
               if (!ok) {
                 ctx.thread.interrupted.store(false, std::memory_order_release);
                 ctx.throwGuest("java/lang/InterruptedException", "read interrupted");
                 return Value();
               }
               charge_read(ctx, out.size());
               return Value::ofRef(ctx.vm.newStringObject(&ctx.thread, out));
             });
  bindNative(cls, "available", "()I", [payload](NativeCtx& ctx) {
    return Value::ofInt(static_cast<i32>(payload(ctx)->channel->pendingBytes()));
  });
  bindNative(cls, "close", "()V", [payload](NativeCtx& ctx) {
    ConnectionPayload* p = payload(ctx);
    p->channel->close();
    p->closed = true;
    return Value();
  });
}

}  // namespace

std::string argString(NativeCtx& ctx, size_t index) { return argStr(ctx, index); }

std::shared_ptr<ChannelHub> channelHub(VM& vm) {
  return std::static_pointer_cast<ChannelHub>(vm.getExtension(kHubKey));
}

void installSystemLibrary(VM& vm) {
  IJVM_CHECK(vm.getExtension(kHubKey) == nullptr,
             "installSystemLibrary called twice");
  vm.setExtension(kHubKey, std::make_shared<ChannelHub>());

  ClassLoader* sys = vm.registry().systemLoader();
  defineObject(sys);
  defineClassClass(sys);
  defineString(sys);
  vm.setStringClass(sys->findLocal("java/lang/String"));
  defineThrowables(sys);
  defineRunnableAndThread(sys);
  defineSystemAndMath(sys);
  defineStringBuilder(sys);
  defineCollections(sys);
  defineConnection(sys);
  defineExtraClasses(sys);
}

}  // namespace ijvm
