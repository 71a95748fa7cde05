// Heap & garbage collector: collection, reachability, and the per-isolate
// accounting pass (paper section 3.2's four-step algorithm).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bytecode/builder.h"
#include "heap/object.h"
#include "osgi/framework.h"
#include "runtime/mutator_pool.h"
#include "stdlib/system_library.h"
#include "support/strf.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

struct GcFixture : ::testing::Test {
  void SetUp() override {
    vm = std::make_unique<VM>();
    installSystemLibrary(*vm);
    app = vm->registry().newLoader("app");
    iso = vm->createIsolate(app, "app");

    ClassBuilder cb("g/Node");
    cb.field("next", "Lg/Node;");
    cb.field("payload", "[I");
    node_cls = app->define(cb.build());
    next_f = node_cls->findField("next");
    payload_f = node_cls->findField("payload");
  }
  void TearDown() override { vm.reset(); }

  bool alive(Object* o) {
    bool found = false;
    vm->heap().forEachObject([&](Object* x) {
      if (x == o) found = true;
    });
    return found;
  }

  std::unique_ptr<VM> vm;
  ClassLoader* app = nullptr;
  Isolate* iso = nullptr;
  JClass* node_cls = nullptr;
  JField* next_f = nullptr;
  JField* payload_f = nullptr;
};

TEST_F(GcFixture, UnreachableObjectsAreCollected) {
  JThread* t = vm->mainThread();
  Object* orphan = vm->allocObject(t, node_cls);
  ASSERT_TRUE(alive(orphan));
  vm->collectGarbage(t, nullptr);
  EXPECT_FALSE(alive(orphan));
}

TEST_F(GcFixture, GlobalRefKeepsGraphAlive) {
  JThread* t = vm->mainThread();
  LocalRootScope roots(t);
  Object* a = roots.add(vm->allocObject(t, node_cls));
  Object* b = roots.add(vm->allocObject(t, node_cls));
  Object* arr = roots.add(vm->allocArrayObject(
      t, vm->registry().arrayClass("[I"), 64));
  a->fields()[next_f->slot] = Value::ofRef(b);
  b->fields()[payload_f->slot] = Value::ofRef(arr);

  GlobalRef* ref = vm->addGlobalRef(a, iso);
  {
    // Drop the local roots; only the global ref remains.
  }
  vm->collectGarbage(t, nullptr);
  // Still alive via a -> b -> arr even though locals are gone... but the
  // LocalRootScope is still open here; close it by scoping properly below.
  vm->removeGlobalRef(ref);
  SUCCEED();
}

TEST_F(GcFixture, ChainSurvivesThroughSingleRoot) {
  JThread* t = vm->mainThread();
  Object* head;
  Object* tail;
  GlobalRef* ref;
  {
    LocalRootScope roots(t);
    head = roots.add(vm->allocObject(t, node_cls));
    tail = roots.add(vm->allocObject(t, node_cls));
    head->fields()[next_f->slot] = Value::ofRef(tail);
    ref = vm->addGlobalRef(head, iso);
  }
  vm->collectGarbage(t, nullptr);
  EXPECT_TRUE(alive(head));
  EXPECT_TRUE(alive(tail));

  vm->removeGlobalRef(ref);
  vm->collectGarbage(t, nullptr);
  EXPECT_FALSE(alive(head));
  EXPECT_FALSE(alive(tail));
}

TEST_F(GcFixture, CyclesAreCollected) {
  JThread* t = vm->mainThread();
  Object* a;
  Object* b;
  {
    LocalRootScope roots(t);
    a = roots.add(vm->allocObject(t, node_cls));
    b = roots.add(vm->allocObject(t, node_cls));
    a->fields()[next_f->slot] = Value::ofRef(b);
    b->fields()[next_f->slot] = Value::ofRef(a);
  }
  vm->collectGarbage(t, nullptr);
  EXPECT_FALSE(alive(a));
  EXPECT_FALSE(alive(b));
}

TEST_F(GcFixture, StaticsAreRoots) {
  ClassBuilder cb("g/Holder");
  cb.field("kept", "Lg/Node;", ACC_PUBLIC | ACC_STATIC);
  auto& set = cb.method("set", "(Lg/Node;)V", ACC_PUBLIC | ACC_STATIC);
  set.aload(0).putstatic("g/Holder", "kept", "Lg/Node;").ret();
  app->define(cb.build());

  JThread* t = vm->mainThread();
  Object* kept;
  {
    LocalRootScope roots(t);
    kept = roots.add(vm->allocObject(t, node_cls));
    vm->callStaticIn(t, app, "g/Holder", "set", "(Lg/Node;)V",
                     {Value::ofRef(kept)});
    ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  }
  vm->collectGarbage(t, nullptr);
  EXPECT_TRUE(alive(kept));
}

TEST_F(GcFixture, ObjectChargedToFirstReferencingIsolate) {
  // Build a second isolate; both reference the same object; the accounting
  // pass charges it to exactly one of them (the first in id order).
  ClassLoader* other_loader = vm->registry().newLoader("other");
  Isolate* other = vm->createIsolate(other_loader, "other");

  JThread* t = vm->mainThread();
  Object* shared_obj;
  GlobalRef* r1;
  GlobalRef* r2;
  {
    LocalRootScope roots(t);
    shared_obj = roots.add(vm->allocArrayObject(
        t, vm->registry().arrayClass("[I"), 25000));  // ~100 KB
    r1 = vm->addGlobalRef(shared_obj, iso);    // id 0 (isolate0)
    r2 = vm->addGlobalRef(shared_obj, other);  // id 1
  }
  vm->collectGarbage(t, nullptr);
  u64 b0 = iso->stats.bytes_charged.load();
  u64 b1 = other->stats.bytes_charged.load();
  EXPECT_GE(b0, 100000u);  // charged to the first isolate...
  EXPECT_LT(b1, 100000u);  // ...not double-charged to the second
  EXPECT_EQ(shared_obj->charged_isolate, iso->id);

  // Release the first reference: the next GC re-charges to the survivor
  // ("usage is reinitialized to zero" each pass).
  vm->removeGlobalRef(r1);
  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(shared_obj->charged_isolate, other->id);
  EXPECT_GE(other->stats.bytes_charged.load(), 100000u);
  vm->removeGlobalRef(r2);
}

TEST_F(GcFixture, GcTriggeredByAllocationThreshold) {
  VmOptions opts;
  opts.gc_threshold = 256u << 10;
  VM vm2(opts);
  installSystemLibrary(vm2);
  ClassLoader* l2 = vm2.registry().newLoader("app");
  l2->define([] {
    ClassBuilder cb("g/Churn");
    auto& m = cb.method("churn", "(I)V", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.bind(loop).iload(0).ifle(done);
    m.iconst(4096).newarray(Kind::Int).pop();
    m.iinc(0, -1).gotoLabel(loop);
    m.bind(done).ret();
    return cb.build();
  }());
  Isolate* iso2 = vm2.createIsolate(l2, "app");
  u64 before = vm2.gcCount();
  vm2.callStaticIn(vm2.mainThread(), l2, "g/Churn", "churn", "(I)V",
                   {Value::ofInt(1000)});  // ~16 MB of garbage
  EXPECT_GT(vm2.gcCount(), before);
  EXPECT_GT(iso2->stats.gc_activations.load(), 0u);
}

TEST_F(GcFixture, StringPayloadsAreFreedWithTheObject) {
  JThread* t = vm->mainThread();
  size_t live_before = vm->heap().liveBytes();
  for (int i = 0; i < 100; ++i) {
    vm->newStringObject(t, std::string(1000, 'x'));
  }
  EXPECT_GT(vm->heap().liveBytes(), live_before + 90000);
  vm->collectGarbage(t, nullptr);
  EXPECT_LE(vm->heap().liveBytes(), live_before + 10000);
}

TEST_F(GcFixture, NativePayloadsAreTraced) {
  // An ArrayList holding the only reference to an object: the payload's
  // trace() must keep the element alive.
  JThread* t = vm->mainThread();
  JClass* list_cls = vm->registry().systemLoader()->find("java/util/ArrayList");
  Object* element;
  GlobalRef* list_ref;
  {
    LocalRootScope roots(t);
    Object* list = roots.add(vm->allocObject(t, list_cls));
    element = roots.add(vm->allocObject(t, node_cls));
    vm->callVirtual(t, list, "add", "(Ljava/lang/Object;)I",
                    {Value::ofRef(element)});
    ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
    list_ref = vm->addGlobalRef(list, iso);
  }
  vm->collectGarbage(t, nullptr);
  EXPECT_TRUE(alive(element));
  vm->removeGlobalRef(list_ref);
  vm->collectGarbage(t, nullptr);
  EXPECT_FALSE(alive(element));
}

TEST_F(GcFixture, ConnectionsAreCountedPerIsolate) {
  JThread* t = vm->mainThread();
  JClass* conn_cls = vm->registry().systemLoader()->find("java/io/Connection");
  GlobalRef* refs[3];
  for (int i = 0; i < 3; ++i) {
    LocalRootScope roots(t);
    Object* conn = roots.add(vm->allocObject(t, conn_cls));
    refs[i] = vm->addGlobalRef(conn, iso);
  }
  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(iso->stats.connections_charged.load(), 3u);
  // Closing a connection removes it from the count at the next GC.
  vm->callVirtual(t, refs[0]->obj, "close", "()V", {});
  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(iso->stats.connections_charged.load(), 2u);
  for (auto* r : refs) vm->removeGlobalRef(r);
}

TEST_F(GcFixture, PerIsolateLimitEnforcedAtAllocation) {
  VmOptions opts;
  opts.isolate_memory_limit = 1u << 20;  // 1 MiB
  opts.gc_threshold = 256u << 10;
  VM vm2(opts);
  installSystemLibrary(vm2);
  ClassLoader* l2 = vm2.registry().newLoader("app");
  l2->define([] {
    ClassBuilder cb("g/Hog");
    cb.field("sink", "Ljava/util/ArrayList;", ACC_PUBLIC | ACC_STATIC);
    auto& m = cb.method("grab", "()I", ACC_PUBLIC | ACC_STATIC);
    m.newDefault("java/util/ArrayList").putstatic("g/Hog", "sink",
                                                  "Ljava/util/ArrayList;");
    m.iconst(0).istore(0);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    Label loop = m.newLabel();
    m.bind(from).bind(loop);
    m.getstatic("g/Hog", "sink", "Ljava/util/ArrayList;");
    m.iconst(8192).newarray(Kind::Int);
    m.invokevirtual("java/util/ArrayList", "add", "(Ljava/lang/Object;)I").pop();
    m.iinc(0, 1).gotoLabel(loop);
    m.bind(to).gotoLabel(loop);
    m.bind(handler).pop().iload(0).ireturn();
    m.handler(from, to, handler, "java/lang/OutOfMemoryError");
    return cb.build();
  }());
  vm2.createIsolate(l2, "app");
  Value grabbed = vm2.callStaticIn(vm2.mainThread(), l2, "g/Hog", "grab", "()I", {});
  ASSERT_EQ(vm2.mainThread()->pending_exception, nullptr);
  // ~32 KiB per chunk against a 1 MiB budget: roughly 30 chunks.
  EXPECT_GT(grabbed.asInt(), 10);
  EXPECT_LT(grabbed.asInt(), 64);
}

TEST_F(GcFixture, SweptBlocksAreRecycledBySameSizeAllocations) {
  JThread* t = vm->mainThread();
  JClass* int_arr = vm->registry().arrayClass("[I");
  auto churn = [&] {
    for (int i = 0; i < 16; ++i) vm->allocArrayObject(t, int_arr, 4096);
    vm->collectGarbage(t, nullptr);  // nothing roots the arrays
  };
  churn();
  if (vm->heap().cachedBytes() == 0) {
    GTEST_SKIP() << "block cache disabled (sanitizer build)";
  }
  // The second round allocates the same size classes the sweep just
  // retained, so its arrays must come out of the block cache instead of
  // the system allocator.
  const u64 recycled_before = vm->heap().recycledAllocs();
  churn();
  EXPECT_GE(vm->heap().recycledAllocs() - recycled_before, 16u);
}

TEST_F(GcFixture, SweptSmallBlocksAreRecycledThroughTheStash) {
  // <= 4 KiB blocks reach the allocating thread through its stash: a miss
  // refills it from the shared cache, and those allocations still count
  // as recycled.
  JThread* t = vm->mainThread();
  JClass* int_arr = vm->registry().arrayClass("[I");
  auto churn = [&] {
    for (int i = 0; i < 64; ++i) vm->allocArrayObject(t, int_arr, 100);
    vm->collectGarbage(t, nullptr);
  };
  churn();
  if (vm->heap().cachedBytes() == 0) {
    GTEST_SKIP() << "block cache disabled (sanitizer build)";
  }
  const u64 recycled_before = vm->heap().recycledAllocs();
  churn();
  EXPECT_GE(vm->heap().recycledAllocs() - recycled_before, 16u);
}

TEST_F(GcFixture, FreshObjectsStartWithTypedZeroFields) {
  // allocPlain copies the class's link-time template: every slot, the
  // superclass's included, carries its declared kind and a zero value.
  ClassBuilder cb("g/Wide", "g/Node");
  cb.field("i", "I");
  cb.field("l", "J");
  cb.field("d", "D");
  cb.field("s", "I", ACC_PUBLIC | ACC_STATIC);
  JClass* wide = app->define(cb.build());
  ASSERT_EQ(wide->instance_slots, 5);
  ASSERT_EQ(wide->instance_template.size(), 5u);
  Object* o = vm->allocObject(vm->mainThread(), wide);
  ASSERT_NE(o, nullptr);
  const std::pair<const char*, Kind> expect[] = {
      {"next", Kind::Ref}, {"payload", Kind::Ref}, {"i", Kind::Int},
      {"l", Kind::Long}, {"d", Kind::Double}};
  for (const auto& [name, kind] : expect) {
    const Value& v = o->fields()[wide->findField(name)->slot];
    EXPECT_EQ(v.kind, kind) << name;
    EXPECT_EQ(v.i, 0) << name;
  }
}

TEST_F(GcFixture, StringChargeEqualsTheCheckedFootprint) {
  // The limit check and the charge use one figure: header, payload
  // pointer and the character buffer's capacity (a 4-char name is 87 B on
  // libstdc++, not the 68 B that header + length would give).
  JThread* t = vm->mainThread();
  for (const std::string& chars : {std::string("name"), std::string(1000, 'x')}) {
    const size_t checked = Heap::stringFootprint(chars);
    EXPECT_EQ(checked, sizeof(Object) + sizeof(std::string*) + chars.capacity());
    const u64 since_before = iso->stats.bytes_since_gc.load();
    Object* s = vm->newStringObject(t, chars);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->byte_size, checked) << chars.size() << " chars";
    EXPECT_EQ(iso->stats.bytes_since_gc.load() - since_before, checked);
  }
}

// Guest helper for the concurrency tests: g/Churn.fill(keep, n) allocates
// n nodes and keeps every other one in `keep` (length >= n / 2).
JClass* defineChurn(ClassLoader* loader) {
  ClassBuilder cb("g/Churn");
  auto& m = cb.method("fill", "([Lg/Node;I)V", ACC_PUBLIC | ACC_STATIC);
  Label loop = m.newLabel(), skip = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(2);
  m.bind(loop).iload(2).iload(1).ifIcmpGe(done);
  m.newDefault("g/Node").astore(3);
  m.iload(2).iconst(1).iand().ifne(skip);
  m.aload(0).iload(2).iconst(1).ishr().aload(3).aastore();
  m.bind(skip).iinc(2, 1).gotoLabel(loop);
  m.bind(done).ret();
  return loader->define(cb.build());
}

size_t countObjects(VM& vm, const JClass* cls = nullptr) {
  size_t n = 0;
  vm.heap().forEachObject([&](Object* o) {
    if (cls == nullptr || o->cls == cls) ++n;
  });
  return n;
}

TEST(ThreadLocalAllocation, PoolWorkersAllocateConcurrentlyAcrossGcs) {
  constexpr int kWorkers = 4;
  constexpr int kTasks = 8;
  constexpr int kNodes = 6000;  // per task; half are kept
  VmOptions opts;
  opts.mutator_threads = kWorkers;
  opts.gc_threshold = 128u << 10;  // many collections during the run
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* loader = vm.registry().newLoader("app");
  ClassBuilder nb("g/Node");
  nb.field("next", "Lg/Node;");
  nb.field("payload", "[I");
  JClass* node_cls = loader->define(nb.build());
  defineChurn(loader);
  Isolate* app = vm.createIsolate(loader, "app");
  JThread* main = vm.mainThread();
  JClass* keep_cls = vm.registry().resolve(loader, "[Lg/Node;");
  ASSERT_NE(keep_cls, nullptr);

  std::vector<GlobalRef*> keeps;
  for (int k = 0; k < kTasks; ++k) {
    LocalRootScope roots(main);
    keeps.push_back(vm.addGlobalRef(
        roots.add(vm.allocArrayObject(main, keep_cls, kNodes / 2)), app));
  }
  const u64 gcs_before = vm.gcCount();
  std::atomic<int> failures{0};
  MutatorPool& pool = vm.mutatorPool();
  for (int k = 0; k < kTasks; ++k) {
    Object* keep = keeps[static_cast<size_t>(k)]->obj;
    pool.submit(
        [&vm, &failures, loader, keep](JThread* jt) {
          vm.callStaticIn(jt, loader, "g/Churn", "fill", "([Lg/Node;I)V",
                          {Value::ofRef(keep), Value::ofInt(kNodes)});
          if (jt->pending_exception != nullptr) {
            failures.fetch_add(1);
            jt->pending_exception = nullptr;
          }
        },
        app);
  }
  pool.drain();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(vm.gcCount() - gcs_before, 2u) << "no collection overlapped the run";

  vm.collectGarbage(main, nullptr);
  // Every kept node survived and is still where the guest stored it...
  std::unordered_set<Object*> live;
  vm.heap().forEachObject([&](Object* o) { live.insert(o); });
  size_t kept = 0;
  for (GlobalRef* g : keeps) {
    Object** elems = g->obj->refElems();
    for (i32 i = 0; i < g->obj->length; ++i) {
      ASSERT_NE(elems[i], nullptr);
      ASSERT_EQ(elems[i]->cls, node_cls);
      ASSERT_TRUE(live.count(elems[i]) != 0);
      ++kept;
    }
  }
  // ...every dropped one was freed, and the live counter is exact.
  EXPECT_EQ(countObjects(vm, node_cls), kept);
  EXPECT_EQ(vm.heap().liveObjects(), live.size());
  for (GlobalRef* g : keeps) vm.removeGlobalRef(g);
  vm.collectGarbage(main, nullptr);
  EXPECT_EQ(countObjects(vm, node_cls), 0u);
  EXPECT_EQ(vm.heap().liveObjects(), countObjects(vm));
}

TEST_F(GcFixture, DetachedThreadObjectsStayVisibleAndItsStashReturns) {
  JThread* t = vm->mainThread();
  // Seed the shared cache with plenty of node-sized blocks.
  for (int i = 0; i < 100; ++i) vm->allocObject(t, node_cls);
  vm->collectGarbage(t, nullptr);
  const size_t cached_before = vm->heap().cachedBytes();

  JThread* helper = vm->attachThread("helper", iso);
  Object* obj = vm->allocObject(helper, node_cls);
  ASSERT_NE(obj, nullptr);
  const size_t cached_during = vm->heap().cachedBytes();
  vm->detachThread(helper);
  EXPECT_EQ(helper->alloc_cache, nullptr);

  // The object left the helper's private list for the shared one...
  EXPECT_TRUE(alive(obj));
  EXPECT_EQ(vm->heap().liveObjects(), countObjects(*vm));
  if (cached_before == 0) {
    GTEST_SKIP() << "block cache disabled (sanitizer build)";
  }
  // ...and the stash refill (one batch of 128 B blocks: 32 of them) went
  // back to the shared cache, minus the block the object occupies.
  const size_t block = 128;
  ASSERT_LE(sizeof(Object) + 2 * sizeof(Value), block);
  EXPECT_EQ(cached_during, cached_before - 32 * block);
  EXPECT_EQ(vm->heap().cachedBytes(), cached_before - block);

  // The object is ordinary garbage from here on.
  vm->collectGarbage(t, nullptr);
  EXPECT_FALSE(alive(obj));
}

TEST_F(GcFixture, CollectionDrainsEveryStash) {
  // After a GC every block is back in the shared cache: a stash refill
  // taken between two collections leaves no trace in cachedBytes().
  JThread* t = vm->mainThread();
  for (int i = 0; i < 100; ++i) vm->allocObject(t, node_cls);
  vm->collectGarbage(t, nullptr);
  const size_t cached_before = vm->heap().cachedBytes();
  if (cached_before == 0) {
    GTEST_SKIP() << "block cache disabled (sanitizer build)";
  }
  ASSERT_NE(vm->allocObject(t, node_cls), nullptr);
  EXPECT_LT(vm->heap().cachedBytes(), cached_before);  // the refill
  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(vm->heap().cachedBytes(), cached_before);
}

TEST_F(GcFixture, BlockedHostThreadAllocatesWhileAnotherThreadCollects) {
  // A host thread allocating through an attached (Blocked) guest thread is
  // not parked by stop-the-world; its cache lock is what serializes it
  // with the collector. Rooted data must come through intact and every
  // counter must stay exact.
  JThread* t = vm->mainThread();
  JClass* int_arr = vm->registry().arrayClass("[I");
  std::vector<GlobalRef*> pinned;
  for (int k = 0; k < 32; ++k) {
    LocalRootScope roots(t);
    Object* a = roots.add(vm->allocArrayObject(t, int_arr, 8 + k * 64));
    for (i32 i = 0; i < a->length; ++i) a->intElems()[i] = k * 1000 + i;
    pinned.push_back(vm->addGlobalRef(a, iso));
  }

  JThread* host = vm->attachThread("blocked-host", iso);
  ASSERT_EQ(host->state.load(), ThreadState::Blocked);
  constexpr int kRounds = 3000;
  const u64 total_before = vm->heap().totalAllocatedBytes();
  std::atomic<bool> done{false};
  std::atomic<int> nulls{0};
  std::thread allocator([&] {
    for (int i = 0; i < kRounds; ++i) {
      // Unrooted garbage of every path: stash-sized, and > 4 KiB (shared
      // cache under mutex_). Nothing reads it back: a concurrent GC may
      // free it the moment it is returned.
      if (vm->allocObject(host, node_cls) == nullptr) nulls.fetch_add(1);
      if (vm->allocArrayObject(host, int_arr, 16) == nullptr) nulls.fetch_add(1);
      if (i % 8 == 0 && vm->allocArrayObject(host, int_arr, 2048) == nullptr) {
        nulls.fetch_add(1);
      }
    }
    done.store(true);
  });
  int collections = 0;
  while (!done.load() || collections < 5) {
    vm->collectGarbage(t, nullptr);
    ++collections;
  }
  allocator.join();
  vm->detachThread(host);
  EXPECT_EQ(nulls.load(), 0);

  // Charged at exactly the sizes allocated: node 64 + 2 x 16 B, int[16]
  // 64 + 64 B, int[2048] 64 + 8 KiB.
  const u64 expected = u64{kRounds} * (96 + 128) + u64{(kRounds + 7) / 8} * (64 + 8192);
  EXPECT_EQ(vm->heap().totalAllocatedBytes() - total_before, expected);

  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(vm->heap().liveObjects(), countObjects(*vm));
  EXPECT_EQ(countObjects(*vm, node_cls), 0u);
  for (int k = 0; k < 32; ++k) {
    Object* a = pinned[static_cast<size_t>(k)]->obj;
    ASSERT_EQ(a->length, 8 + k * 64);
    for (i32 i = 0; i < a->length; ++i) {
      ASSERT_EQ(a->intElems()[i], k * 1000 + i) << "array " << k;
    }
    vm->removeGlobalRef(pinned[static_cast<size_t>(k)]);
  }
}

TEST(ThreadLocalAllocation, CacheTakenDuringACollectionWaitsForTheWalk) {
  // A thread that attaches while a collection walks the heap must not get
  // a cache (and allocate) before the walk ends. Otherwise an object it
  // allocates and roots while the roots are enumerated is marked but not
  // on the walked list: the sweep never clears its mark, and the next
  // collection skips tracing it and frees what only it references.
  VM vm;
  installSystemLibrary(vm);
  JClass* obj_arr = vm.registry().arrayClass("[Ljava/lang/Object;");
  ASSERT_NE(obj_arr, nullptr);
  Heap heap(1u << 20);

  // Above the largest block-cache size class, so the allocation itself
  // takes no heap-wide lock.
  constexpr i32 kLength = 1 << 15;
  ASSERT_GT(sizeof(Object) + kLength * sizeof(Object*), size_t{128} << 10);
  AllocCache* cache = nullptr;
  std::atomic<Object*> late{nullptr};
  std::thread attacher;
  heap.collect([&](const RootSink& sink) {
    attacher = std::thread([&] {
      cache = heap.acquireCache();
      late.store(heap.allocArray(obj_arr, kLength, 0, cache));
    });
    // Give the attacher ample time to get through; root its object if it
    // did, as a LocalRootScope on its thread would be.
    for (int i = 0; i < 200 && late.load() == nullptr; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (Object* x = late.load()) sink(x, 0);
  });
  attacher.join();
  Object* x = late.load();
  ASSERT_NE(x, nullptr);

  // A child reachable only through x, allocated between the collections.
  Object* z = heap.allocArray(obj_arr, 0, 0, cache);
  x->refElems()[1] = z;
  const GcStats stats = heap.collect([&](const RootSink& sink) { sink(x, 0); });
  EXPECT_EQ(stats.objects_freed, 0u);
  EXPECT_EQ(stats.live_objects, 2u);
  EXPECT_EQ(heap.liveObjects(), 2u);
  EXPECT_EQ(heap.liveBytes(), x->byte_size + z->byte_size);
  bool z_alive = false;
  heap.forEachObject([&](Object* o) { z_alive |= o == z; });
  EXPECT_TRUE(z_alive);
  heap.releaseCache(cache);
}

TEST_F(GcFixture, ThreadsAttachAndDetachWhileAnotherThreadCollects) {
  // Attach takes its cache before any VM lock, so it can wait for a
  // collection without holding a lock the root scan needs.
  JThread* t = vm->mainThread();
  std::atomic<bool> done{false};
  std::atomic<int> nulls{0};
  std::thread churn([&] {
    for (int i = 0; i < 200; ++i) {
      JThread* h = vm->attachThread("churn", iso);
      if (vm->allocObject(h, node_cls) == nullptr) nulls.fetch_add(1);
      vm->detachThread(h);
    }
    done.store(true);
  });
  int collections = 0;
  while (!done.load() || collections < 5) {
    vm->collectGarbage(t, nullptr);
    ++collections;
  }
  churn.join();
  EXPECT_EQ(nulls.load(), 0);
  vm->collectGarbage(t, nullptr);
  EXPECT_EQ(countObjects(*vm, node_cls), 0u);
  EXPECT_EQ(vm->heap().liveObjects(), countObjects(*vm));
}

// ---- one collection per trigger ----

// Waits (up to ~5 s) for `pred`; false on timeout.
template <typename P>
bool waitFor(P pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(GcCoalescing, PoolWorkersCrossingTheThresholdTogetherCollectOnce) {
  // Every worker sees wantsGc() and asks for a collection while the world
  // is held; once it is released, one collection runs and the rest find
  // the threshold already reset.
  constexpr int kWorkers = 4;
  constexpr int kCrossings = 3;
  VmOptions opts;
  opts.mutator_threads = kWorkers;
  opts.gc_threshold = 256u << 10;
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* loader = vm.registry().newLoader("app");
  ClassBuilder nb("g/Node");
  nb.field("next", "Lg/Node;");
  JClass* node_cls = loader->define(nb.build());
  Isolate* app = vm.createIsolate(loader, "app");
  JThread* main = vm.mainThread();
  JClass* int_arr = vm.registry().arrayClass("[I");
  MutatorPool& pool = vm.mutatorPool();

  for (int crossing = 0; crossing < kCrossings; ++crossing) {
    SCOPED_TRACE(strf("crossing %d", crossing));
    while (!vm.heap().wantsGc()) ASSERT_NE(vm.allocArrayObject(main, int_arr, 256), nullptr);
    const u64 before = vm.gcCount();
    vm.safepoints().stopTheWorld(nullptr);
    std::atomic<int> arrived{0};
    std::atomic<int> nulls{0};
    for (int k = 0; k < kWorkers; ++k) {
      pool.submit(
          [&](JThread* jt) {
            arrived.fetch_add(1);
            if (vm.allocObject(jt, node_cls) == nullptr) nulls.fetch_add(1);
          },
          app);
    }
    const bool all_arrived = waitFor([&] { return arrived.load() == kWorkers; });
    // Time for each to test its trigger and queue on the stop-the-world.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    vm.safepoints().resumeTheWorld(nullptr);
    pool.drain();
    ASSERT_TRUE(all_arrived);
    EXPECT_EQ(nulls.load(), 0);
    EXPECT_EQ(vm.gcCount() - before, 1u);
    EXPECT_FALSE(vm.heap().wantsGc());
  }
}

// A native payload that runs a hook the first time the collector traces it.
class TraceHook : public NativePayload {
 public:
  explicit TraceHook(std::function<void()> hook) : hook_(std::move(hook)) {}
  void trace(const std::function<void(Object*)>&) override {
    if (hook_) std::exchange(hook_, nullptr)();
  }

 private:
  std::function<void()> hook_;
};

TEST(GcCoalescing, OverLimitThreadWhoseCollectionWasCoalescedStillThrows) {
  // A thread over its isolate's limit asks for a collection while another
  // one is running. That collection re-derives the charges, so the thread
  // skips its own -- and must still get its OutOfMemoryError from them.
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* loader = vm.registry().newLoader("hog");
  Isolate* hog = vm.createIsolate(loader, "hog");
  hog->memory_limit = 1u << 20;
  JThread* main = vm.mainThread();
  JClass* int_arr = vm.registry().arrayClass("[I");
  JClass* object_cls = vm.registry().systemLoader()->find("java/lang/Object");
  ASSERT_NE(object_cls, nullptr);

  // ~800 KiB the hog isolate is charged for (rooted on its behalf).
  GlobalRef* held;
  {
    LocalRootScope roots(main);
    held = vm.addGlobalRef(roots.add(vm.allocArrayObject(main, int_arr, 200000)), hog);
  }
  vm.collectGarbage(main, nullptr);
  ASSERT_GE(hog->stats.bytes_charged.load(), 800000u);

  JThread* hog_thread = vm.attachThread("hog", hog);
  std::atomic<bool> go{false};
  std::atomic<bool> arrived{false};
  Object* got = nullptr;
  std::string error;
  std::thread allocator([&] {
    waitFor([&] { return go.load(); });
    arrived.store(true);
    got = vm.allocArrayObject(hog_thread, int_arr, 64000);  // ~250 KiB more
    error = vm.pendingMessage(hog_thread);
    vm.clearPending(hog_thread);
  });
  // The hook runs inside the next collection's mark: the hog thread tests
  // its limit then, and queues on the stop-the-world this one owns.
  GlobalRef* hook;
  {
    LocalRootScope roots(main);
    hook = vm.addGlobalRef(
        roots.add(vm.allocNativeObject(main, object_cls, std::make_unique<TraceHook>([&] {
          go.store(true);
          waitFor([&] { return arrived.load(); });
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }))),
        nullptr);
  }
  const u64 before = vm.gcCount();
  vm.collectGarbage(main, nullptr);
  allocator.join();
  EXPECT_EQ(got, nullptr);
  EXPECT_NE(error.find("OutOfMemoryError"), std::string::npos) << error;
  EXPECT_NE(error.find("memory limit"), std::string::npos) << error;
  EXPECT_EQ(vm.gcCount() - before, 1u) << "the hog thread collected again";
  vm.detachThread(hog_thread);
  vm.removeGlobalRef(hook);
  vm.removeGlobalRef(held);
}

// ---- allocation counters: grants and exact reads ----

// Heap-level fixture: a VM only for its classes, and a private Heap.
struct HeapFixture : ::testing::Test {
  void SetUp() override {
    installSystemLibrary(vm);
    int_arr = vm.registry().arrayClass("[I");
    ref_arr = vm.registry().arrayClass("[Ljava/lang/Object;");
    string_cls = vm.registry().systemLoader()->find("java/lang/String");
    object_cls = vm.registry().systemLoader()->find("java/lang/Object");
    ASSERT_NE(ref_arr, nullptr);
    ASSERT_NE(string_cls, nullptr);
    ASSERT_NE(object_cls, nullptr);
  }
  // A string whose object is charged exactly `bytes` (>= 88).
  static std::string charsFor(size_t bytes) {
    std::string chars(bytes - sizeof(Object) - sizeof(std::string*), 'x');
    EXPECT_EQ(Heap::stringFootprint(chars), bytes);
    return chars;
  }
  VM vm;
  JClass* int_arr = nullptr;
  JClass* ref_arr = nullptr;
  JClass* string_cls = nullptr;
  JClass* object_cls = nullptr;
};

TEST_F(HeapFixture, WantsGcIsExactWhileOtherCachesHoldUnspentGrants) {
  constexpr size_t kThreshold = 64u << 10;
  Heap heap(kThreshold);
  AllocCache* mine = heap.acquireCache();
  AllocCache* other1 = heap.acquireCache();
  AllocCache* other2 = heap.acquireCache();
  for (size_t target : {kThreshold - 1, kThreshold}) {
    SCOPED_TRACE(strf("target %zu", target));
    // The other caches draw a grant each and spend 64 B of it.
    ASSERT_NE(heap.allocArray(int_arr, 0, 0, other1), nullptr);
    ASSERT_NE(heap.allocArray(int_arr, 0, 0, other2), nullptr);
    // Fill to ~8 KB short of the target with int arrays, then one exact
    // string: larger than a grant chunk, so its draw must cover it.
    while (heap.bytesSinceGc() + 8000 + 64 + 4 * 64 < target) {
      ASSERT_NE(heap.allocArray(int_arr, 64, 0, mine), nullptr);
    }
    ASSERT_NE(heap.allocString(string_cls, charsFor(target - heap.bytesSinceGc()), 0, mine),
              nullptr);
    ASSERT_EQ(heap.bytesSinceGc(), target);
    // Unspent grants: the cheap bound is past the threshold either way.
    EXPECT_GT(heap.liveBytesBound(), heap.liveBytes());
    EXPECT_GE(heap.liveBytesBound(), kThreshold);
    EXPECT_EQ(heap.wantsGc(), target >= kThreshold);
    heap.collect([](const RootSink&) {});
    EXPECT_FALSE(heap.wantsGc());
    EXPECT_EQ(heap.bytesSinceGc(), 0u);
  }
  for (AllocCache* c : {mine, other1, other2}) heap.releaseCache(c);
}

TEST_F(HeapFixture, CountsAreExactAfterConcurrentAllocationAndAReleasedCache) {
  Heap heap(8u << 20);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  // Per round: int[5] (84 B) and a 100-byte string; every 8th round also
  // an Object[600] (4864 B: above the stash sizes).
  auto round_bytes = [](int r) -> size_t {
    return 84 + 100 + (r % 8 == 0 ? 64 + 8 * 600 : 0);
  };
  auto round_objects = [](int r) -> size_t { return r % 8 == 0 ? 3 : 2; };
  size_t expect_bytes = 0, expect_objects = 0;
  for (int r = 0; r < kRounds; ++r) {
    expect_bytes += round_bytes(r);
    expect_objects += round_objects(r);
  }
  expect_bytes *= kThreads;
  expect_objects *= kThreads;

  std::vector<AllocCache*> caches(kThreads);
  for (AllocCache*& c : caches) c = heap.acquireCache();
  std::vector<std::thread> threads;
  std::atomic<int> nulls{0};
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      AllocCache* c = caches[static_cast<size_t>(k)];
      for (int r = 0; r < kRounds; ++r) {
        if (heap.allocArray(int_arr, 5, 0, c) == nullptr) nulls.fetch_add(1);
        if (heap.allocString(string_cls, charsFor(100), 0, c) == nullptr) nulls.fetch_add(1);
        if (r % 8 == 0 && heap.allocArray(ref_arr, 600, 0, c) == nullptr) nulls.fetch_add(1);
        // One thread leaves halfway through the cycle.
        if (k == 0 && r == kRounds - 1) heap.releaseCache(c);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(nulls.load(), 0);
  EXPECT_EQ(heap.bytesSinceGc(), expect_bytes);
  EXPECT_EQ(heap.totalAllocatedBytes(), expect_bytes);
  EXPECT_EQ(heap.liveBytes(), expect_bytes);
  EXPECT_EQ(heap.liveObjects(), expect_objects);
  size_t walked = 0;
  heap.forEachObject([&](Object*) { ++walked; });
  EXPECT_EQ(walked, expect_objects);

  // The released cache goes to the next thread with its table and counts.
  AllocCache* next = heap.acquireCache();
  EXPECT_EQ(next, caches[0]);
  Object* kept = heap.allocArray(int_arr, 5, 0, next);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(heap.liveObjects(), expect_objects + 1);
  EXPECT_EQ(heap.totalAllocatedBytes(), expect_bytes + 84);

  const GcStats stats = heap.collect([&](const RootSink& sink) { sink(kept, 0); });
  EXPECT_EQ(stats.objects_freed, expect_objects);
  EXPECT_EQ(stats.bytes_freed, expect_bytes);
  EXPECT_EQ(heap.liveObjects(), 1u);
  EXPECT_EQ(heap.liveBytes(), 84u);
  EXPECT_EQ(heap.bytesSinceGc(), 0u);
  EXPECT_EQ(heap.totalAllocatedBytes(), expect_bytes + 84);
  heap.releaseCache(next);
  for (int k = 1; k < kThreads; ++k) heap.releaseCache(caches[static_cast<size_t>(k)]);
}

// Counts its destructions (the sweep deletes a dead Native's payload).
class DeathCounter : public NativePayload {
 public:
  explicit DeathCounter(int* deaths) : deaths_(deaths) {}
  ~DeathCounter() override { ++*deaths_; }
  size_t byteSize() const override { return 24; }

 private:
  int* deaths_;
};

TEST_F(HeapFixture, SweepFreesEveryUnreachableKindAndRecyclesTheBlocks) {
  Heap heap(8u << 20);
  AllocCache* cache = heap.acquireCache();
  int deaths = 0;
  std::vector<Object*> kept;
  std::vector<std::pair<Object*, std::string>> kept_strings;
  size_t kept_bytes = 0;
  auto churn = [&](int rounds) {
    size_t natives_dropped = 0;
    for (int i = 0; i < rounds; ++i) {
      Object* objs[] = {
          heap.allocString(string_cls, std::string(static_cast<size_t>(i % 50), 's'), 0, cache),
          heap.allocString(string_cls, std::string(40 + static_cast<size_t>(i % 300), 'l'), 0,
                           cache),
          heap.allocNative(object_cls, std::make_unique<DeathCounter>(&deaths), 0, cache),
          heap.allocArray(int_arr, i % 40, 0, cache),
          heap.allocArray(ref_arr, 3, 0, cache),
      };
      for (Object* o : objs) ASSERT_NE(o, nullptr);
      if (i % 10 == 0) {  // keep one in ten of each, in a chain of ref arrays
        objs[4]->refElems()[0] = objs[0];
        objs[4]->refElems()[1] = objs[1];
        objs[4]->refElems()[2] = objs[2];
        for (Object* o : objs) {
          if (o == objs[3]) continue;
          kept.push_back(o);
          kept_bytes += o->byte_size + (o->kind == ObjKind::Native ? 24 : 0);
          if (o->kind == ObjKind::String) kept_strings.emplace_back(o, o->str());
        }
      } else {
        ++natives_dropped;
      }
    }
    const int deaths_before = deaths;
    const GcStats stats = heap.collect([&](const RootSink& sink) {
      for (Object* o : kept) {
        if (o->kind == ObjKind::ArrayRef) sink(o, 0);
      }
    });
    EXPECT_EQ(static_cast<size_t>(deaths - deaths_before), natives_dropped);
    EXPECT_EQ(stats.live_objects, kept.size());
    EXPECT_EQ(stats.live_bytes, kept_bytes);
    std::unordered_set<Object*> live;
    heap.forEachObject([&](Object* o) { live.insert(o); });
    EXPECT_EQ(live.size(), kept.size());
    for (Object* o : kept) EXPECT_EQ(live.count(o), 1u);
    for (const auto& [o, chars] : kept_strings) EXPECT_EQ(o->str(), chars);
  };
  churn(400);
  const u64 recycled_before = heap.recycledAllocs();
  churn(400);
  if (heap.cachedBytes() == 0) {
    GTEST_SKIP() << "block cache disabled (sanitizer build)";
  }
  EXPECT_GT(heap.recycledAllocs() - recycled_before, 100u);
  heap.releaseCache(cache);
}

}  // namespace
}  // namespace ijvm
