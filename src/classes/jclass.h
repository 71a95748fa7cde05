// Linked runtime class model: JClass / JMethod / JField / TaskClassMirror.
//
// Classes are *shared* across isolates. All per-isolate class state -- the
// initialization state, the static variables and the java.lang.Class object
// -- lives in the task class mirror (TCM) array, indexed by the current
// isolate of the executing thread (paper section 3.1, following MVM). In
// shared mode (the LadyVM/Sun-JVM baseline) every isolate maps to TCM slot 0.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bytecode/classdef.h"
#include "bytecode/descriptor.h"
#include "bytecode/value.h"

namespace ijvm {

class ClassLoader;
class ClassRegistry;
struct JClass;
struct Isolate;
class VM;
class JThread;
class NativePayload;  // heap/object.h

struct JMethod;

// Context passed to native (C++-implemented) guest methods.
struct NativeCtx {
  VM& vm;
  JThread& thread;
  JMethod* method;
  std::vector<Value>& args;  // receiver at index 0 for instance methods

  // Throws a guest exception: sets the thread's pending exception. The
  // native should return immediately after (return value is ignored).
  void throwGuest(const std::string& exception_class, const std::string& message);
  bool hasPending() const;
};

using NativeFn = std::function<Value(NativeCtx&)>;

struct JField {
  std::string name;
  TypeDesc type;
  u16 flags = 0;
  i32 slot = -1;  // instance: object field slot; static: TCM statics slot
  JClass* owner = nullptr;

  bool isStatic() const { return (flags & ACC_STATIC) != 0; }
  bool isFinal() const { return (flags & ACC_FINAL) != 0; }
};

struct JMethod {
  std::string name;
  std::string descriptor;
  MethodSig sig;
  u16 flags = 0;
  Code code;
  NativeFn native;
  JClass* owner = nullptr;
  i32 vtable_index = -1;

  // Isolate termination support (paper section 3.3): a poisoned method can
  // no longer be entered; the invoke path throws StoppedIsolateException.
  // This models I-JVM's patching of JIT-compiled method entry points.
  std::atomic<bool> poisoned{false};

  // Quickening engine state (src/exec): the rewritten instruction stream
  // (an exec::QCode, owned by the VM's engine state -- opaque here to keep
  // the class model independent of the engine) and the per-method profile
  // counters future compilation tiers key their heuristics on.
  std::atomic<void*> qcode{nullptr};
  // Tier-3 compiled code (an exec::JitCode, arena-owned like qcode).
  // Null until the baseline JIT compiles the method; reset to null when a
  // deopt invalidates the compiled code (docs/jit.md). The JitCode itself
  // carries the patchable entry point isolate termination swaps out.
  std::atomic<void*> jitcode{nullptr};
  std::atomic<u64> profile_invocations{0};
  std::atomic<u64> profile_loop_edges{0};

  // Cached obs::profileNameId(fullName()) -- 0 until the sampling
  // profiler first sees this method in a stack walk. The profiler's
  // interner is never reset, so a cached id stays valid for the life of
  // the process (unlike trace name ids, which resetTrace invalidates).
  std::atomic<u32> profile_name_id{0};

  bool isStatic() const { return (flags & ACC_STATIC) != 0; }
  bool isNative() const { return (flags & ACC_NATIVE) != 0; }
  bool isAbstract() const { return (flags & ACC_ABSTRACT) != 0; }
  bool isSynchronized() const { return (flags & ACC_SYNCHRONIZED) != 0; }
  bool isPrivate() const { return (flags & ACC_PRIVATE) != 0; }
  bool isCtor() const { return name == "<init>"; }
  bool isClinit() const { return name == "<clinit>"; }

  // Number of argument slots including the receiver.
  i32 argSlots() const { return sig.argSlots(isStatic()); }

  std::string fullName() const;  // "pkg/Cls.name(desc)"
};

// Per-isolate class state (the task class mirror of MVM / I-JVM).
struct TaskClassMirror {
  enum class InitState : u8 { Uninitialized, Running, Initialized, Failed };

  // Atomic so the interpreter's initialization *check* -- the one the paper
  // says reentrant compiled code cannot elide (section 3.1) -- is a single
  // acquire load; transitions happen under the VM's clinit lock.
  std::atomic<InitState> state{InitState::Uninitialized};
  JThread* init_thread = nullptr;  // thread running <clinit> (reentrancy)
  std::vector<Value> statics;
  Object* class_object = nullptr;  // per-isolate java.lang.Class instance
};

struct JClass {
  std::string name;
  JClass* super = nullptr;
  std::vector<JClass*> interfaces;
  ClassLoader* loader = nullptr;
  u16 flags = 0;

  // deques: JField*/JMethod* must stay stable (they are cached in constant
  // pools and vtables).
  std::deque<JField> fields;
  std::deque<JMethod> methods;
  ConstantPool pool;

  i32 instance_slots = 0;  // including superclasses
  // Typed zero value of every instance slot (size instance_slots), built
  // at link time: Heap::allocPlain copies it instead of walking the class
  // chain's field declarations per allocation.
  std::vector<Value> instance_template;
  i32 static_slots = 0;    // declared statics only
  std::vector<JMethod*> vtable;

  // Array classes.
  bool is_array = false;
  Kind elem_kind = Kind::Void;   // element kind (Ref for object arrays)
  JClass* elem_class = nullptr;  // element class for ref arrays

  // Native-backed classes (StringBuilder, collections, connections): NEW
  // allocates a Native-kind object whose payload this factory produces.
  // Such classes must not declare instance fields.
  std::function<std::unique_ptr<NativePayload>()> native_factory;

  bool isInterface() const { return (flags & ACC_INTERFACE) != 0; }
  bool isSystemLib() const;  // true when defined by a system-library loader

  // ---- task class mirrors ----
  // Returns the mirror for the given isolate index, growing the array on
  // demand. Thread-safe (locking slow path).
  TaskClassMirror& tcm(i32 isolate_index);
  // Lock-free read of an already-materialized mirror: one load of the
  // published array pointer plus one indexed load -- the paper's "two
  // additional loads" on every static access (section 3.1). Returns null
  // when the mirror does not exist yet.
  TaskClassMirror* tcmFast(i32 isolate_index) const {
    if (isolate_index < tcm_published_size_.load(std::memory_order_acquire)) {
      return tcm_published_.load(std::memory_order_relaxed)
          [static_cast<size_t>(isolate_index)];
    }
    return nullptr;
  }
  // Baseline (shared-mode) path: a single cached pointer to mirror 0, the
  // direct static-slot access an unmodified JVM performs.
  TaskClassMirror& sharedMirror() {
    TaskClassMirror* m = shared_mirror_.load(std::memory_order_acquire);
    if (m != nullptr) return *m;
    TaskClassMirror& created = tcm(0);
    shared_mirror_.store(&created, std::memory_order_release);
    return created;
  }
  // Returns the mirror only if already materialized (GC root enumeration
  // must not create mirrors as a side effect).
  TaskClassMirror* tcmIfPresent(i32 isolate_index);
  // Mirror count currently materialized (for memory reports).
  i32 tcmCount() const;

  // ---- hierarchy queries ----
  bool isSubclassOf(const JClass* other) const;
  bool implementsInterface(const JClass* itf) const;
  // `checkcast`/`instanceof`/`aastore` compatibility.
  bool isAssignableTo(const JClass* target) const;

  // ---- member lookup (walks superclasses; interfaces for methods) ----
  JField* findField(const std::string& name);
  JField* findStaticField(const std::string& name);
  JMethod* findMethod(const std::string& name, const std::string& descriptor);
  JMethod* findDeclared(const std::string& name, const std::string& descriptor);
  // Virtual dispatch helper: resolves `name+descriptor` against this
  // (receiver) class walking up the hierarchy.
  JMethod* resolveVirtual(const std::string& name, const std::string& descriptor);

  // Approximate C++-side footprint of this class's metadata, including
  // materialized TCMs. Used by the Figure-3 memory report.
  size_t metadataBytes() const;

 private:
  void republishTcms();  // rebuilds the lock-free snapshot (holds tcm_mutex_)

  mutable std::mutex tcm_mutex_;
  std::vector<std::unique_ptr<TaskClassMirror>> tcms_;
  // Lock-free snapshot for tcmFast(); old snapshots are retired, not freed,
  // so concurrent readers stay valid (bounded by isolate count).
  std::atomic<TaskClassMirror* const*> tcm_published_{nullptr};
  std::atomic<i32> tcm_published_size_{0};
  std::vector<std::unique_ptr<TaskClassMirror*[]>> tcm_retired_;
  std::atomic<TaskClassMirror*> shared_mirror_{nullptr};
};

}  // namespace ijvm
