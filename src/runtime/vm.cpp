#include "runtime/vm.h"

#include <algorithm>
#include <chrono>


#include "exec/code_cache.h"
#include "exec/compile_manager.h"
#include "exec/jit.h"
#include "heap/object.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/mutator_pool.h"
#include "support/strf.h"
#include "verifier/verifier.h"

namespace ijvm {

// ---------------------------------------------------------------- JThread

JThread::JThread(VM& vm_ref, i32 thread_id, std::string thread_name,
                 Isolate* initial_isolate)
    : vm(vm_ref), id(thread_id), name(std::move(thread_name)),
      creator_isolate(initial_isolate), current_isolate(initial_isolate) {}

void JThread::markDone() {
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

bool JThread::awaitDone(JThread* waiter, i64 millis) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(millis > 0 ? millis : 0);
  std::unique_lock<std::mutex> lock(done_mutex_);
  for (;;) {
    if (done_.load(std::memory_order_acquire)) return true;
    if (waiter != nullptr &&
        (waiter->interrupted.load(std::memory_order_acquire) ||
         waiter->force_kill.load(std::memory_order_acquire))) {
      return false;
    }
    if (millis > 0 && std::chrono::steady_clock::now() >= deadline) return false;
    done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

// --------------------------------------------------------------- NativeCtx

LocalRootScope::LocalRootScope(JThread* t) : t_(t) {
  std::lock_guard<std::mutex> lock(t_->extra_roots_mutex);
  base_ = t_->extra_roots.size();
}

LocalRootScope::~LocalRootScope() {
  std::lock_guard<std::mutex> lock(t_->extra_roots_mutex);
  t_->extra_roots.resize(base_);
}

Object* LocalRootScope::add(Object* obj) {
  if (obj != nullptr) {
    std::lock_guard<std::mutex> lock(t_->extra_roots_mutex);
    t_->extra_roots.push_back(obj);
  }
  return obj;
}

void NativeCtx::throwGuest(const std::string& exception_class,
                           const std::string& message) {
  vm.throwGuest(&thread, exception_class, message);
}

bool NativeCtx::hasPending() const { return thread.pending_exception != nullptr; }

// --------------------------------------------------------------------- VM

VM::VM(VmOptions options)
    : options_(options), heap_(options.gc_threshold) {
  // The main thread is attached under isolates_mutex_ by the first
  // createIsolate, where a cache cannot be taken (see newThreadLocked).
  main_cache_ = heap_.acquireCache();
  if (options_.verify) {
    registry_.setVerifyHook([](const JClass& cls) { verifyClass(cls); });
  }
  profiler_ = std::make_unique<obs::Profiler>(*this);
  if (options_.profile_hz > 0) profiler_->start(options_.profile_hz);
}

VM::~VM() {
  // Stop the profiler's sampler thread before anything it reads (the
  // thread list, the compile queue) starts unwinding. The Profiler object
  // itself survives until member teardown: guests unwinding below may
  // still acknowledge a pending sample request.
  profiler_->stop();
  shutdownAllThreads();
  // Join the mutator pool before the compiler stops: in-flight pool tasks
  // unwind via force_kill at their next poll, and a draining worker may
  // still hit an install drain point that touches engine state.
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    mutator_pool_.reset();
  }
  // Stop the background compiler first: its worker references engine state
  // and the class registry, both of which outlive the extension table that
  // owns it, but joining here keeps teardown ordering obvious.
  exec::shutdownCompileManager(*this);
  // Join spawned guest threads (they unwind via force_kill).
  std::vector<JThread*> spawned;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto& t : threads_) {
      if (t->os_thread.joinable()) spawned.push_back(t.get());
    }
  }
  for (JThread* t : spawned) t->os_thread.join();
}

// ---- isolates ----

Isolate* VM::createIsolate(ClassLoader* loader, const std::string& name) {
  IJVM_CHECK(loader != nullptr && !loader->isSystem(),
             "isolates attach to non-system loaders");
  std::lock_guard<std::mutex> lock(isolates_mutex_);
  auto iso = std::make_unique<Isolate>();
  iso->id = static_cast<i32>(isolates_.size());
  iso->name = name;
  iso->loader = loader;
  iso->privileged = isolates_.empty();  // the first isolate is Isolate0
  iso->memory_limit = options_.isolate_memory_limit;
  iso->thread_limit = options_.isolate_thread_limit;
  loader->attachIsolate(iso.get());
  Isolate* raw = iso.get();
  isolates_.push_back(std::move(iso));
  if (isolate0_ == nullptr) {
    isolate0_ = raw;
    // Attach the calling thread as the main guest thread of Isolate0. It
    // starts Blocked: threads only count as Running while inside the
    // interpreter (VM::invoke flips the state at the outermost call), so
    // C++ code can never stall a stop-the-world.
    std::lock_guard<std::mutex> tlock(threads_mutex_);
    main_thread_ = newThreadLocked("main", raw, main_cache_);
    raw->stats.threads_created.fetch_add(1, std::memory_order_relaxed);
    raw->stats.live_threads.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::traceEnabled()) {
    obs::emit(obs::Ev::IsolateStart, obs::Ph::Instant, raw->id,
              obs::internTraceName(name));
  }
  return raw;
}

Isolate* VM::isolateById(i32 id) {
  std::lock_guard<std::mutex> lock(isolates_mutex_);
  if (id < 0 || static_cast<size_t>(id) >= isolates_.size()) return nullptr;
  return isolates_[static_cast<size_t>(id)].get();
}

std::vector<Isolate*> VM::isolates() {
  std::lock_guard<std::mutex> lock(isolates_mutex_);
  std::vector<Isolate*> out;
  out.reserve(isolates_.size());
  for (auto& iso : isolates_) out.push_back(iso.get());
  return out;
}

// ---- threads ----

JThread* VM::newThreadLocked(const std::string& name, Isolate* initial,
                             AllocCache* cache) {
  auto t = std::make_unique<JThread>(*this, next_thread_id_++, name, initial);
  JThread* raw = t.get();
  raw->alloc_cache = cache;
  threads_.push_back(std::move(t));
  safepoints_.registerThread();
  return raw;
}

JThread* VM::attachThread(const std::string& name, Isolate* initial) {
  IJVM_CHECK(initial != nullptr, "attachThread needs an isolate");
  AllocCache* cache = heap_.acquireCache();
  std::lock_guard<std::mutex> lock(threads_mutex_);
  return newThreadLocked(name, initial, cache);
}

void VM::detachThread(JThread* t) {
  t->state.store(ThreadState::Dead, std::memory_order_release);
  t->markDone();
  // The JThread record stays (reports may still reference it); its guest
  // stack is empty so it contributes no GC roots.
  t->dropAllFrames();
  t->pending_exception = nullptr;
  releaseAllocCache(t);
}

void VM::releaseAllocCache(JThread* t) {
  // Its objects join the shared list and its stash the shared block
  // cache; the cache itself goes to the next attached thread.
  if (t->alloc_cache == nullptr) return;
  heap_.releaseCache(t->alloc_cache);
  t->alloc_cache = nullptr;
}

std::vector<JThread*> VM::threadsSnapshot() {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  std::vector<JThread*> out;
  out.reserve(threads_.size());
  for (auto& t : threads_) out.push_back(t.get());
  return out;
}

void VM::forEachThread(const std::function<void(JThread&)>& fn) {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (auto& t : threads_) fn(*t);
}

JThread* VM::spawnThread(JThread* caller, Object* thread_obj,
                         const std::string& name) {
  Isolate* creator = caller->current_isolate.load(std::memory_order_relaxed);
  // Platform-wide cap: on a real JVM, exhausting native threads throws
  // OutOfMemoryError for *everyone* (the unprotected A5 outcome).
  if (options_.host_thread_cap > 0 &&
      live_spawned_threads_.load(std::memory_order_relaxed) >=
          options_.host_thread_cap) {
    throwGuest(caller, "java/lang/OutOfMemoryError",
               "unable to create new native thread");
    return nullptr;
  }
  // A6 defence: enforce the creator's thread limit.
  if (options_.accounting && creator->thread_limit > 0) {
    i64 live = creator->stats.live_threads.load(std::memory_order_relaxed);
    if (live >= creator->thread_limit) {
      throwGuest(caller, "java/lang/OutOfMemoryError",
                 strf("isolate '%s' exceeded its thread limit (%d)",
                      creator->name.c_str(), creator->thread_limit));
      return nullptr;
    }
  }
  creator->stats.threads_created.fetch_add(1, std::memory_order_relaxed);
  creator->stats.live_threads.fetch_add(1, std::memory_order_relaxed);

  AllocCache* cache = heap_.acquireCache();
  JThread* t;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    t = newThreadLocked(name, creator, cache);
  }
  t->thread_object = thread_obj;

  live_spawned_threads_.fetch_add(1, std::memory_order_relaxed);
  t->os_thread = std::thread([this, t, creator] {
    Object* obj = t->thread_object;
    if (obj != nullptr) {
      JMethod* run = obj->cls->resolveVirtual("run", "()V");
      if (run != nullptr) {
        invoke(t, run, {Value::ofRef(obj)});
      }
    }
    if (t->pending_exception != nullptr) {
      // Uncaught exception in a guest thread: swallow (the default JVM
      // handler prints; tests inspect Isolate stats instead).
      t->pending_exception = nullptr;
    }
    creator->stats.live_threads.fetch_sub(1, std::memory_order_relaxed);
    live_spawned_threads_.fetch_sub(1, std::memory_order_relaxed);
    t->state.store(ThreadState::Dead, std::memory_order_release);
    {
      // The GC scans thread frames and root pointers under threads_mutex_
      // (enumerateRoots), and a dying thread is not Running, so a
      // stop-the-world does not wait for it -- serialize the teardown
      // with the scan instead of racing it.
      std::lock_guard<std::mutex> lock(threads_mutex_);
      t->dropAllFrames();
      t->thread_object = nullptr;
    }
    releaseAllocCache(t);
    t->markDone();
  });
  return t;
}

MutatorPool& VM::mutatorPool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (mutator_pool_ == nullptr) {
    IJVM_CHECK(isolate0_ != nullptr,
               "mutatorPool() needs an isolate to attach workers to");
    mutator_pool_ = std::make_unique<MutatorPool>(*this, options_.mutator_threads);
  }
  return *mutator_pool_;
}

MutatorPool* VM::mutatorPoolIfStarted() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return mutator_pool_.get();
}

u64 VM::minMutatorEra() {
  return safepoints_.minCountedEra(threadsSnapshot());
}

void VM::shutdownAllThreads() {
  shutting_down_.store(true, std::memory_order_release);
  std::vector<JThread*> snapshot = threadsSnapshot();
  for (JThread* t : snapshot) {
    if (t == main_thread_) continue;
    t->force_kill.store(true, std::memory_order_release);
    t->interrupted.store(true, std::memory_order_release);
  }
}

// ---- exceptions ----

Object* VM::newException(JThread* t, const std::string& exception_class,
                         const std::string& message) {
  JClass* cls = registry_.resolve(
      t->current_isolate.load(std::memory_order_relaxed)->loader, exception_class);
  IJVM_CHECK(cls != nullptr, strf("exception class %s missing", exception_class.c_str()));
  // Bypass limit checks: an exception must be constructible even when the
  // offending isolate is over its memory budget.
  Object* exc = heap_.allocPlain(
      cls, t->current_isolate.load(std::memory_order_relaxed)->id, t->alloc_cache);
  IJVM_CHECK(exc != nullptr, "host out of memory allocating exception");
  if (JField* f = cls->findField("message")) {
    if (!f->isStatic()) {
      Object* msg = heap_.allocString(
          string_class_, message,
          t->current_isolate.load(std::memory_order_relaxed)->id, t->alloc_cache);
      exc->fields()[f->slot] = Value::ofRef(msg);
    }
  }
  return exc;
}

void VM::throwGuest(JThread* t, const std::string& exception_class,
                    const std::string& message) {
  t->pending_exception = newException(t, exception_class, message);
}

std::string VM::pendingMessage(JThread* t) {
  Object* exc = t->pending_exception;
  if (exc == nullptr) return {};
  std::string cls = exc->cls != nullptr ? exc->cls->name : "<null-class>";
  std::string msg;
  if (exc->cls != nullptr) {
    if (JField* f = exc->cls->findField("message"); f != nullptr && !f->isStatic()) {
      Object* s = exc->fields()[f->slot].asRef();
      if (s != nullptr && s->kind == ObjKind::String) msg = s->str();
    }
  }
  return msg.empty() ? cls : cls + ": " + msg;
}

// ---- strings ----

Object* VM::newStringObject(JThread* t, std::string chars) {
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  IJVM_CHECK(string_class_ != nullptr, "java/lang/String not installed");
  // Checked against exactly what the allocation will be charged.
  const size_t bytes = Heap::stringFootprint(chars);
  if (!checkMemoryLimits(t, bytes)) return nullptr;
  Object* s = heap_.allocString(string_class_, std::move(chars), iso->id, t->alloc_cache);
  if (s == nullptr) {
    throwGuest(t, "java/lang/OutOfMemoryError", "host allocation failed");
    return nullptr;
  }
  if (options_.accounting) {
    iso->stats.objects_allocated.fetch_add(1, std::memory_order_relaxed);
    iso->stats.bytes_allocated.fetch_add(s->byte_size, std::memory_order_relaxed);
    iso->stats.bytes_since_gc.fetch_add(s->byte_size, std::memory_order_relaxed);
  }
  return s;
}

Object* VM::internString(JThread* t, const std::string& chars) {
  // In isolated mode each isolate has its own map (paper section 3.1);
  // in shared mode everything interns into Isolate0's map -- which is what
  // makes the A2 lock attack possible on the baseline.
  Isolate* iso = options_.isolation
                     ? t->current_isolate.load(std::memory_order_relaxed)
                     : isolate0_;
  {
    std::lock_guard<std::mutex> lock(iso->strings_mutex);
    auto it = iso->interned_strings.find(chars);
    if (it != iso->interned_strings.end()) return it->second;
  }
  Object* s = newStringObject(t, chars);
  if (s == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(iso->strings_mutex);
  auto [it, inserted] = iso->interned_strings.emplace(chars, s);
  // Flagged under the lock, so any thread that finds `s` sees the flag.
  if (inserted) s->interned = 1;
  return it->second;
}

std::string VM::stringValue(Object* s) {
  IJVM_CHECK(s != nullptr && s->kind == ObjKind::String, "not a string object");
  return s->str();
}

// ---- allocation ----

bool VM::checkMemoryLimits(JThread* t, size_t bytes) {
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  // Paper section 4.2: allocation "tests the memory limit when an isolate
  // allocates an object" -- this check (plus the accounting increments in
  // the alloc* helpers) is the per-allocation overhead of I-JVM.
  auto over_isolate_limit = [&]() {
    if (!options_.accounting || !options_.isolation) return false;
    size_t limit = iso->memory_limit;
    if (limit == 0) return false;
    // donated_bytes_delta folds ownership donations (docs/comm.md) into
    // the held estimate before the next accounting pass re-derives the
    // charges; the signed sum is clamped at zero -- a sender that gave
    // away bytes charged before the last GC can transiently show a
    // negative correction larger than bytes_since_gc.
    i64 held = static_cast<i64>(
                   iso->stats.bytes_charged.load(std::memory_order_relaxed)) +
               static_cast<i64>(
                   iso->stats.bytes_since_gc.load(std::memory_order_relaxed)) +
               iso->stats.donated_bytes_delta.load(std::memory_order_relaxed);
    if (held < 0) held = 0;
    return static_cast<u64>(held) + bytes > limit;
  };

  // The bound (two loads) rules out all but the last grants' worth of
  // allocations below the limit; only then are the caches summed.
  auto over_heap_limit = [&]() {
    return heap_.liveBytesBound() + bytes > options_.heap_limit &&
           heap_.liveBytes() + bytes > options_.heap_limit;
  };

  if (heap_.wantsGc() || over_isolate_limit() || over_heap_limit()) {
    // One collection per trigger. A collection that completes while this
    // thread waits for the stop-the-world has reset the threshold count
    // and re-derived every charge: collect again only if a heap-wide
    // trigger still holds, and decide the isolate limit below on those
    // fresh charges, as on this thread's own collection's. Noted here, not
    // on the allocation path (the count shares a line with the call
    // counter): a Running thread cannot see a collection complete before
    // it parks, so nothing is missed; a Blocked one may, at worst, collect
    // once more.
    const u64 seen_gc = gcCount();
    runCollection(t, iso, [&] {
      return gcCount() == seen_gc || heap_.wantsGc() || over_heap_limit();
    });
  }
  if (over_isolate_limit()) {
    throwGuest(t, "java/lang/OutOfMemoryError",
               strf("isolate '%s' exceeded its memory limit (%zu bytes)",
                    iso->name.c_str(), iso->memory_limit));
    return false;
  }
  if (over_heap_limit()) {
    throwGuest(t, "java/lang/OutOfMemoryError", "heap limit exceeded");
    return false;
  }
  return true;
}

Object* VM::allocObject(JThread* t, JClass* cls) {
  if (cls->native_factory) {
    return allocNativeObject(t, cls, cls->native_factory());
  }
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  const size_t bytes =
      sizeof(Object) + static_cast<size_t>(cls->instance_slots) * sizeof(Value);
  if (!checkMemoryLimits(t, bytes)) return nullptr;
  Object* obj = heap_.allocPlain(cls, iso->id, t->alloc_cache);
  if (obj == nullptr) {
    throwGuest(t, "java/lang/OutOfMemoryError", "host allocation failed");
    return nullptr;
  }
  if (options_.accounting) {
    iso->stats.objects_allocated.fetch_add(1, std::memory_order_relaxed);
    iso->stats.bytes_allocated.fetch_add(obj->byte_size, std::memory_order_relaxed);
    iso->stats.bytes_since_gc.fetch_add(obj->byte_size, std::memory_order_relaxed);
  }
  return obj;
}

Object* VM::allocArrayObject(JThread* t, JClass* array_cls, i32 length) {
  if (length < 0) {
    throwGuest(t, "java/lang/NegativeArraySizeException", strf("%d", length));
    return nullptr;
  }
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  size_t elem = array_cls->elem_kind == Kind::Int ? 4 : 8;
  const size_t bytes = sizeof(Object) + elem * static_cast<size_t>(length);
  if (!checkMemoryLimits(t, bytes)) return nullptr;
  Object* obj = heap_.allocArray(array_cls, length, iso->id, t->alloc_cache);
  if (obj == nullptr) {
    throwGuest(t, "java/lang/OutOfMemoryError", "host allocation failed");
    return nullptr;
  }
  if (options_.accounting) {
    iso->stats.objects_allocated.fetch_add(1, std::memory_order_relaxed);
    iso->stats.bytes_allocated.fetch_add(obj->byte_size, std::memory_order_relaxed);
    iso->stats.bytes_since_gc.fetch_add(obj->byte_size, std::memory_order_relaxed);
  }
  return obj;
}

Object* VM::allocNativeObject(JThread* t, JClass* cls,
                              std::unique_ptr<NativePayload> payload) {
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  const size_t bytes = sizeof(Object) + payload->byteSize();
  if (!checkMemoryLimits(t, bytes)) return nullptr;
  bool is_connection = payload->isConnection();
  Object* obj = heap_.allocNative(cls, std::move(payload), iso->id, t->alloc_cache);
  if (obj == nullptr) {
    throwGuest(t, "java/lang/OutOfMemoryError", "host allocation failed");
    return nullptr;
  }
  if (options_.accounting) {
    iso->stats.objects_allocated.fetch_add(1, std::memory_order_relaxed);
    iso->stats.bytes_allocated.fetch_add(obj->byte_size, std::memory_order_relaxed);
    iso->stats.bytes_since_gc.fetch_add(obj->byte_size, std::memory_order_relaxed);
    if (is_connection) {
      iso->stats.connections_opened.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return obj;
}

Object* VM::classObject(JThread* t, JClass* cls) {
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  TaskClassMirror& mirror = cls->tcm(tcmIndex(iso));
  if (mirror.class_object != nullptr) return mirror.class_object;
  JClass* class_cls = registry_.systemLoader()->find("java/lang/Class");
  IJVM_CHECK(class_cls != nullptr, "java/lang/Class not installed");
  Object* obj = heap_.allocPlain(class_cls, iso->id, t->alloc_cache);
  IJVM_CHECK(obj != nullptr, "host out of memory allocating Class object");
  // Stash the JClass* in the hidden long field so natives can get back.
  if (JField* f = class_cls->findField("__jclass"); f != nullptr && !f->isStatic()) {
    obj->fields()[f->slot] = Value::ofLong(reinterpret_cast<i64>(cls));
  }
  std::lock_guard<std::mutex> lock(clinit_mutex_);
  if (mirror.class_object == nullptr) mirror.class_object = obj;
  return mirror.class_object;
}

// ---- class initialization ----

bool VM::ensureInitialized(JThread* t, JClass* cls) {
  if (cls->is_array || cls->isSystemLib()) {
    // System-library classes share one mirror initialized eagerly at
    // install time; arrays have no statics.
    return true;
  }
  Isolate* iso = t->current_isolate.load(std::memory_order_relaxed);
  // Fast path: the initialization check the paper says cannot be removed
  // from reentrant compiled code (section 3.1).
  if (TaskClassMirror* fast = cls->tcmFast(tcmIndex(iso))) {
    if (fast->state.load(std::memory_order_acquire) ==
        TaskClassMirror::InitState::Initialized) {
      return true;
    }
  }
  TaskClassMirror& mirror = cls->tcm(tcmIndex(iso));

  std::unique_lock<std::mutex> lock(clinit_mutex_);
  for (;;) {
    switch (mirror.state) {
      case TaskClassMirror::InitState::Initialized:
        return true;
      case TaskClassMirror::InitState::Failed:
        lock.unlock();
        throwGuest(t, "java/lang/ExceptionInInitializerError", cls->name);
        return false;
      case TaskClassMirror::InitState::Running:
        if (mirror.init_thread == t) return true;  // recursive init: proceed
        {
          // Another thread is running <clinit>; wait as "blocked" so a
          // concurrent stop-the-world is not stalled by us.
          BlockedScope blocked(safepoints_, t);
          clinit_cv_.wait_for(lock, std::chrono::milliseconds(1));
        }
        continue;
      case TaskClassMirror::InitState::Uninitialized: {
        mirror.state = TaskClassMirror::InitState::Running;
        mirror.init_thread = t;
        lock.unlock();
        // Superclass first (JLS order), then our <clinit>.
        bool ok = cls->super == nullptr || ensureInitialized(t, cls->super);
        if (ok) runClinit(t, cls, mirror, iso);
        ok = ok && t->pending_exception == nullptr;
        lock.lock();
        mirror.state = ok ? TaskClassMirror::InitState::Initialized
                          : TaskClassMirror::InitState::Failed;
        mirror.init_thread = nullptr;
        clinit_cv_.notify_all();
        return ok;
      }
    }
  }
}

void VM::runClinit(JThread* t, JClass* cls, TaskClassMirror& mirror, Isolate* iso) {
  (void)mirror;
  (void)iso;
  JMethod* clinit = cls->findDeclared("<clinit>", "()V");
  if (clinit == nullptr) return;
  invoke(t, clinit, {});
}

JClass* VM::resolveClassOrThrow(JThread* t, ClassLoader* ctx, const std::string& name) {
  JClass* cls = registry_.resolve(ctx, name);
  if (cls == nullptr) {
    throwGuest(t, "java/lang/NoClassDefFoundError", name);
  }
  return cls;
}

// ---- execution isolate ----

Isolate* VM::executionIsolate(Isolate* cur, const JMethod* m) const {
  if (!options_.isolation) return cur;
  ClassLoader* loader = m->owner->loader;
  if (loader->isSystem()) return cur;  // library code runs in the caller
  Isolate* iso = loader->isolate();
  return iso != nullptr ? iso : cur;
}

// ---- garbage collection ----


void VM::enumerateRoots(const RootSink& sink) {
  // Step 2 (paper): per-isolate roots -- interned strings, statics and
  // Class objects -- in isolate id order ("first isolate" charging).
  std::vector<Isolate*> isos = isolates();
  for (Isolate* iso : isos) {
    // A terminating isolate's statics, strings and Class objects are no
    // longer roots: "all the objects referenced by the terminating isolate
    // are reclaimed by the GC, with the exception of objects shared with
    // other bundles" (paper section 1 / 3.3).
    if (options_.isolation && !iso->isActive()) continue;
    const i32 tcm_idx = tcmIndex(iso);
    {
      std::lock_guard<std::mutex> lock(iso->strings_mutex);
      for (auto& [_, s] : iso->interned_strings) sink(s, iso->id);
    }
    registry_.forEachClass([&](JClass& cls) {
      TaskClassMirror* mirror = cls.tcmIfPresent(tcm_idx);
      if (mirror == nullptr) return;
      for (Value& v : mirror->statics) {
        if (v.kind == Kind::Ref && v.ref != nullptr) sink(v.ref, iso->id);
      }
      if (mirror->class_object != nullptr) sink(mirror->class_object, iso->id);
    });
    if (!options_.isolation) break;  // shared mode: single mirror, owned by 0
  }

  // C++-held references (OSGi service registry, channels, tests).
  {
    std::lock_guard<std::mutex> lock(globals_mutex_);
    for (GlobalRef& g : global_refs_) {
      if (g.active && g.obj != nullptr) sink(g.obj, g.isolate_id);
    }
  }

  // Step 3 (paper): thread stacks. Each frame is charged to the isolate it
  // executes in; system-library frames carry their caller's isolate, which
  // realizes "charged to the caller of the library".
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (auto& t : threads_) {
    if (t->state.load(std::memory_order_acquire) == ThreadState::Dead) continue;
    if (t->thread_object != nullptr) {
      sink(t->thread_object, t->creator_isolate->id);
    }
    if (t->pending_exception != nullptr) {
      sink(t->pending_exception,
           t->current_isolate.load(std::memory_order_relaxed)->id);
    }
    {
      // Host C++ threads mutate extra_roots without being parked by the
      // stop-the-world (see JThread::extra_roots_mutex).
      std::lock_guard<std::mutex> roots_lock(t->extra_roots_mutex);
      for (Object* o : t->extra_roots) {
        if (o != nullptr) {
          sink(o, t->current_isolate.load(std::memory_order_relaxed)->id);
        }
      }
    }
    for (size_t fi = 0; fi < t->depth(); ++fi) {
      Frame& f = t->frameAt(fi);
      const i32 iso = f.isolate != nullptr ? f.isolate->id : 0;
      for (Value& v : f.locals) {
        if (v.kind == Kind::Ref && v.ref != nullptr) sink(v.ref, iso);
      }
      for (Value& v : f.stack) {
        if (v.kind == Kind::Ref && v.ref != nullptr) sink(v.ref, iso);
      }
      if (f.sync_object != nullptr) sink(f.sync_object, iso);
    }
  }
}


GcStats VM::collectGarbage(JThread* requester, Isolate* trigger) {
  return *runCollection(requester, trigger, nullptr);
}

std::optional<GcStats> VM::runCollection(JThread* requester, Isolate* trigger,
                                         const std::function<bool()>& needed) {
  const bool self_is_guest =
      requester != nullptr &&
      requester->state.load(std::memory_order_acquire) == ThreadState::Running;
  // The GcPause span wraps the stop-the-world section of a collection that
  // runs (it opens once this thread owns the operation and has decided to
  // collect), so the SafepointStop span nests inside it along with the
  // heap's mark/accounting/sweep spans. The activity slot makes the
  // sampler attribute the pause to GC: the driving thread does no guest
  // work meanwhile, and the parked mutators are not Running, so they take
  // no samples.
  const i32 trigger_id = trigger != nullptr ? trigger->id : -1;
  std::optional<obs::TraceSpan> gc_span;
  std::optional<obs::ProfileActivityScope> gc_act;
  const bool run = safepoints_.stopTheWorld(self_is_guest ? requester : nullptr, [&] {
    if (needed && !needed()) return false;
    gc_span.emplace(obs::Ev::GcPause, trigger_id, /*a=*/0, obs::Lat::GcPause);
    gc_act.emplace(*this, obs::SampleThreadKind::Gc, trigger_id, "gc.collect");
    return true;
  });
  if (!run) return std::nullopt;

  GcStats stats = heap_.collect([this](const RootSink& sink) { enumerateRoots(sink); },
                                options_.accounting_policy);
  gc_count_.fetch_add(1, std::memory_order_relaxed);

  // Step 1 (paper): usage reset, then re-derived from the charges.
  std::vector<Isolate*> isos = isolates();
  for (Isolate* iso : isos) {
    IsolateCharge charge;
    if (static_cast<size_t>(iso->id) < stats.charges.size()) {
      charge = stats.charges[static_cast<size_t>(iso->id)];
    }
    iso->stats.bytes_charged.store(charge.bytes, std::memory_order_relaxed);
    iso->stats.objects_charged.store(charge.objects, std::memory_order_relaxed);
    iso->stats.connections_charged.store(charge.connections, std::memory_order_relaxed);
    iso->stats.bytes_since_gc.store(0, std::memory_order_relaxed);
    // The recomputed charges already bill donated objects to their new
    // owner (the re-key happened strictly before this pass: donation runs
    // counted-Running, see comm/serializer.cpp), so the interim
    // correction resets together with bytes_since_gc.
    iso->stats.donated_bytes_delta.store(0, std::memory_order_relaxed);
  }
  if (options_.accounting && trigger != nullptr) {
    trigger->stats.gc_activations.fetch_add(1, std::memory_order_relaxed);
  }

  // The world is already stopped: reclaim retired tier-3 code (demoted or
  // deopt-invalidated, and no frame still executing it) while the
  // active-execution counts cannot change (docs/jit.md, "Code
  // lifecycle"). Runs *before* this collection's Dead-marking below, so a
  // killed isolate's poisoned code is retired only by the GC *after* the
  // one that declared it Dead -- the patched entries of a just-killed
  // bundle stay observable through the kill itself, deterministically.
  exec::sweepRetiredJitCode(*this);

  // Terminating isolates become Dead once no object of their classes
  // survives (paper section 3.3 last paragraph).
  for (Isolate* iso : isos) {
    if (!iso->isTerminating()) continue;
    bool has_objects = false;
    heap_.forEachObject([&](Object* o) {
      if (o->cls != nullptr && o->cls->loader != nullptr &&
          o->cls->loader->isolate() == iso) {
        has_objects = true;
      }
    });
    if (!has_objects) iso->state.store(IsolateState::Dead, std::memory_order_release);
  }

  safepoints_.resumeTheWorld(self_is_guest ? requester : nullptr);
  return stats;
}

// ---- isolate termination ----

bool VM::terminateIsolate(JThread* requester, Isolate* target) {
  if (!options_.isolation) {
    // Baseline (Sun JVM / LadyVM) behaviour: no termination support -- the
    // platform "is unable to unload the bundle, and the attack continues
    // to run" (paper section 4.3, A8).
    return false;
  }
  Isolate* req_iso = requester->current_isolate.load(std::memory_order_relaxed);
  if (!req_iso->privileged) {
    throwGuest(requester, "java/lang/SecurityException",
               "only Isolate0 may terminate isolates");
    return false;
  }
  if (target == nullptr || target->privileged) {
    throwGuest(requester, "java/lang/SecurityException",
               "cannot terminate Isolate0");
    return false;
  }
  if (!target->isActive()) return true;  // already terminating/dead

  const bool self_is_guest =
      requester->state.load(std::memory_order_acquire) == ThreadState::Running;
  obs::TraceSpan term_span(obs::Ev::IsolateTerminate, target->id);
  safepoints_.stopTheWorld(self_is_guest ? requester : nullptr);

  target->state.store(IsolateState::Terminating, std::memory_order_release);

  // (i)+(ii) of section 3.3: prevent any further entry into the isolate's
  // code. Poisoning bars the shared invoke path ("refusing to JIT"), and
  // the tier-3 entry patch swaps each compiled method's entry point for a
  // thunk that raises StoppedIsolateException ("patching compiled entry
  // points") -- see docs/jit.md.
  for (JClass* cls : target->loader->definedClasses()) {
    for (JMethod& m : cls->methods) {
      m.poisoned.store(true, std::memory_order_release);
      exec::poisonCompiledEntry(&m);
    }
  }

  // Stack patching: walk every thread's frames. A frame whose *caller*
  // belongs to the dying isolate must throw StoppedIsolateException on
  // return. Top-frame special cases per the paper.
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto& t : threads_) {
      if (t->state.load(std::memory_order_acquire) == ThreadState::Dead) continue;
      if (t.get() == requester && !t->hasFrames()) continue;
      const size_t nframes = t->depth();
      for (size_t i = 1; i < nframes; ++i) {
        if (t->frameAt(i - 1).isolate == target &&
            t->frameAt(i).isolate != target) {
          t->frameAt(i).kill_on_return = true;
          t->frameAt(i).kill_isolate = target->id;
        }
      }
      if (nframes > 0) {
        Frame& top = t->topFrame();
        if (top.isolate == target) {
          // Raise StoppedIsolateException at the thread's next poll.
          t->pending_stop_isolate.store(target->id, std::memory_order_release);
          // If it is blocked (sleep/wait/monitor) wake it up too.
          t->interrupted.store(true, std::memory_order_release);
        } else if (top.method != nullptr && top.method->owner->isSystemLib() &&
                   t->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
          // Blocked in library code called (transitively) from the dying
          // isolate? Interrupt so I/O and sleeps unblock (Spring-style).
          bool called_from_target = false;
          for (size_t i = 0; i + 1 < nframes; ++i) {
            if (t->frameAt(i).isolate == target) {
              called_from_target = true;
              break;
            }
          }
          if (called_from_target) {
            t->interrupted.store(true, std::memory_order_release);
          }
        }
      }
    }
  }

  safepoints_.resumeTheWorld(self_is_guest ? requester : nullptr);
  return true;
}

// ---- global refs ----

GlobalRef* VM::addGlobalRef(Object* obj, Isolate* charge_to) {
  std::lock_guard<std::mutex> lock(globals_mutex_);
  for (GlobalRef& g : global_refs_) {
    if (!g.active) {
      g.obj = obj;
      g.isolate_id = charge_to != nullptr ? charge_to->id : 0;
      g.active = true;
      return &g;
    }
  }
  global_refs_.push_back(
      GlobalRef{obj, charge_to != nullptr ? charge_to->id : 0, true});
  return &global_refs_.back();
}

void VM::removeGlobalRef(GlobalRef* ref) {
  std::lock_guard<std::mutex> lock(globals_mutex_);
  ref->obj = nullptr;
  ref->active = false;
}

// ---- reporting ----

IsolateReport VM::reportFor(Isolate* iso) {
  IsolateReport r;
  r.id = iso->id;
  r.name = iso->name;
  r.state = iso->state.load(std::memory_order_acquire);
  const ResourceStats& s = iso->stats;
  r.bytes_charged = s.bytes_charged.load(std::memory_order_relaxed);
  r.objects_charged = s.objects_charged.load(std::memory_order_relaxed);
  r.connections_charged = s.connections_charged.load(std::memory_order_relaxed);
  r.objects_allocated = s.objects_allocated.load(std::memory_order_relaxed);
  r.bytes_allocated = s.bytes_allocated.load(std::memory_order_relaxed);
  r.bytes_since_gc = s.bytes_since_gc.load(std::memory_order_relaxed);
  r.bytes_donated_in = s.bytes_donated_in.load(std::memory_order_relaxed);
  r.bytes_donated_out = s.bytes_donated_out.load(std::memory_order_relaxed);
  r.objects_donated_in = s.objects_donated_in.load(std::memory_order_relaxed);
  r.objects_donated_out = s.objects_donated_out.load(std::memory_order_relaxed);
  r.donated_bytes_delta = s.donated_bytes_delta.load(std::memory_order_relaxed);
  r.threads_created = s.threads_created.load(std::memory_order_relaxed);
  r.live_threads = s.live_threads.load(std::memory_order_relaxed);
  r.gc_activations = s.gc_activations.load(std::memory_order_relaxed);
  r.cpu_samples = s.cpu_samples.load(std::memory_order_relaxed);
  r.cpu_profile_samples = s.cpu_profile_samples.load(std::memory_order_relaxed);
  r.sleeping_threads = s.sleeping_threads.load(std::memory_order_relaxed);
  r.io_bytes_read = s.io_bytes_read.load(std::memory_order_relaxed);
  r.io_bytes_written = s.io_bytes_written.load(std::memory_order_relaxed);
  r.calls_in = s.calls_in.load(std::memory_order_relaxed);
  r.method_invocations = s.method_invocations.load(std::memory_order_relaxed);
  r.loop_back_edges = s.loop_back_edges.load(std::memory_order_relaxed);
  r.jit_methods_compiled = s.jit_methods_compiled.load(std::memory_order_relaxed);
  r.jit_methods_demoted = s.jit_methods_demoted.load(std::memory_order_relaxed);
  r.jit_code_bytes = s.jit_code_bytes.load(std::memory_order_relaxed);
  r.osr_refused_transfers = s.osr_refused_transfers.load(std::memory_order_relaxed);
  r.jit_recompile_requests =
      s.jit_recompile_requests.load(std::memory_order_relaxed);
  r.jit_payoff_demotions =
      s.jit_payoff_demotions.load(std::memory_order_relaxed);
  return r;
}

std::vector<IsolateReport> VM::reportAll() {
  std::vector<IsolateReport> out;
  for (Isolate* iso : isolates()) out.push_back(reportFor(iso));
  return out;
}

// ---- extensions ----

void VM::setExtension(const std::string& key, std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(ext_mutex_);
  extensions_[key] = std::move(value);
}

std::shared_ptr<void> VM::getExtension(const std::string& key) {
  std::lock_guard<std::mutex> lock(ext_mutex_);
  auto it = extensions_.find(key);
  return it == extensions_.end() ? nullptr : it->second;
}

}  // namespace ijvm
