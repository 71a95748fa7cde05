// Zero-copy donation protocol (docs/comm.md): property harness over seeded
// random object graphs -- cycles, shared subobjects, large primitive
// arrays, interned strings -- round-tripped through transferGraph with
// donation forced on and off. Receiver-visible values must be identical
// either way, ResourceStats bytes must conserve exactly (sender and
// receiver donation deltas sum to zero), donated buffers must be
// GC-scanned in the receiver's heap, and termination racing an in-flight
// donation (either kill order) must neither leak charge nor leave a
// dangling cross-isolate reference. The termination races also run under
// the TSan CI leg.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "support/rng.h"
#include "support/strf.h"

namespace ijvm {
namespace {

// Order-insensitive structural checksum of a receiver-visible graph:
// node identity is replaced by discovery order, so a donated original and
// a deep copy of the same message hash identically, while any difference
// in values, shape or sharing changes the hash.
i64 graphChecksum(Object* root) {
  std::unordered_map<Object*, i64> ids;
  u64 h = 1469598103934665603ULL;  // FNV-1a, wrapping (unsigned) arithmetic
  auto mix = [&h](i64 v) { h = (h ^ static_cast<u64>(v)) * 1099511628211ULL; };
  std::function<void(Object*)> go = [&](Object* o) {
    if (o == nullptr) {
      mix(-1);
      return;
    }
    if (auto it = ids.find(o); it != ids.end()) {
      mix(-2);
      mix(it->second);
      return;
    }
    ids.emplace(o, static_cast<i64>(ids.size()));
    mix(static_cast<i64>(o->kind));
    switch (o->kind) {
      case ObjKind::String:
        mix(static_cast<i64>(o->str().size()));
        for (char c : o->str()) mix(c);
        break;
      case ObjKind::ArrayInt:
        mix(o->length);
        for (i32 i = 0; i < o->length; ++i) mix(o->intElems()[i]);
        break;
      case ObjKind::ArrayLong:
        mix(o->length);
        for (i32 i = 0; i < o->length; ++i) mix(o->longElems()[i]);
        break;
      case ObjKind::ArrayDouble:
        mix(o->length);
        for (i32 i = 0; i < o->length; ++i) {
          i64 bits;
          std::memcpy(&bits, &o->doubleElems()[i], sizeof(bits));
          mix(bits);
        }
        break;
      case ObjKind::ArrayRef:
        mix(o->length);
        for (i32 i = 0; i < o->length; ++i) go(o->refElems()[i]);
        break;
      case ObjKind::Plain:
        mix(o->cls->instance_slots);
        for (i32 i = 0; i < o->cls->instance_slots; ++i) {
          Value v = o->fields()[i];
          mix(static_cast<i64>(v.kind));
          if (v.kind == Kind::Ref) {
            go(v.ref);
          } else {
            mix(v.i);
          }
        }
        break;
      case ObjKind::Native:
        mix(-3);
        break;
    }
  };
  go(root);
  return static_cast<i64>(h);
}

// Asserts every node of a received graph is keyed to `iso_id`: donated
// nodes were re-keyed, copied nodes were allocated by the receiver. A
// node still keyed to another isolate would be a dangling cross-isolate
// reference (docs/comm.md, "Eligibility").
void expectAllOwnedBy(Object* root, i32 iso_id) {
  std::unordered_map<Object*, bool> seen;
  std::function<void(Object*)> go = [&](Object* o) {
    if (o == nullptr || seen.count(o) != 0) return;
    seen.emplace(o, true);
    EXPECT_EQ(o->creator_isolate, iso_id);
    o->forEachRef(go);
  };
  go(root);
}

// Per-round-trip observations compared between donation modes.
struct RoundTrip {
  i64 checksum = 0;
  TransferStats stats;
  u64 sender_bytes = 0, receiver_bytes = 0;
  u64 sender_objects = 0, receiver_objects = 0;
};

struct DonationFixture : ::testing::Test {
  void boot(bool zero_copy) {
    vm.reset();
    VmOptions opts;
    opts.comm_zero_copy = zero_copy;
    // No implicit GC: collections happen only where the tests invoke them
    // (or where a memory-limit check forces one), so the termination races
    // below exercise donation-vs-terminate interleavings, not allocation
    // noise.
    opts.gc_threshold = 256u << 20;
    vm = std::make_unique<VM>(opts);
    installSystemLibrary(*vm);
    // The first isolate is the privileged Isolate0 hosting the main
    // thread (it issues the kills); sender and receiver are separate
    // unprivileged isolates driven through attached thread records.
    loader0 = vm->registry().newLoader("platform");
    iso0 = vm->createIsolate(loader0, "platform");
    loader_s = vm->registry().newLoader("sender");
    iso_s = vm->createIsolate(loader_s, "sender");
    loader_r = vm->registry().newLoader("receiver");
    iso_r = vm->createIsolate(loader_r, "receiver");
    send_t = vm->attachThread("send", iso_s);
    recv_t = vm->attachThread("recv", iso_r);

    ClassBuilder cb("d/Node");
    cb.field("value", "I");
    cb.field("label", "Ljava/lang/String;");
    cb.field("payload", "[I");
    cb.field("left", "Ld/Node;");
    cb.field("right", "Ld/Node;");
    node_cls = loader0->define(cb.build());
    ASSERT_NE(node_cls, nullptr);
    value_f = node_cls->findField("value");
    label_f = node_cls->findField("label");
    payload_f = node_cls->findField("payload");
    left_f = node_cls->findField("left");
    right_f = node_cls->findField("right");
  }
  void TearDown() override { vm.reset(); }

  // Seeded random message graph built by `t` (charged to its isolate): a
  // tree of d/Node with random sharing and back-edges (cycles), random
  // int[] payloads (occasionally large), random SSO-sized strings
  // (occasionally interned in the builder's isolate -- interned-table
  // entries are sender GC roots, so the termination tests that expect the
  // sender's charge to drain to zero pass allow_intern=false). Tolerates
  // allocation failure (returns what it has) so it can keep running while
  // its isolate is being terminated.
  Object* genGraph(JThread* t, Rng& rng, LocalRootScope& roots, int budget,
                   bool allow_intern = true) {
    std::vector<Object*> nodes;
    std::function<Object*(int)> gen = [&](int depth) -> Object* {
      if (depth > 4 || static_cast<int>(nodes.size()) >= budget) return nullptr;
      if (!nodes.empty() && rng.nextBounded(5) == 0) {
        // Shared subobject or back-edge (cycle).
        return nodes[rng.nextBounded(nodes.size())];
      }
      Object* n = roots.add(vm->allocObject(t, node_cls));
      if (n == nullptr) return nullptr;
      nodes.push_back(n);
      n->fields()[value_f->slot] = Value::ofInt(rng.nextInt());
      // SSO-sized strings so copy-mode duplicates have identical byte_size
      // (allocString charges the std::string capacity).
      std::string label =
          strf("s%llx", static_cast<unsigned long long>(rng.nextBounded(1u << 20)));
      const bool intern = allow_intern && rng.nextBounded(4) == 0;
      Object* s = intern ? vm->internString(t, label)
                         : vm->newStringObject(t, label);
      if (s != nullptr) {
        roots.add(s);
        n->fields()[label_f->slot] = Value::ofRef(s);
      }
      const i32 len = rng.nextBounded(10) == 0
                          ? 1024
                          : static_cast<i32>(rng.nextBounded(64));
      Object* arr =
          vm->allocArrayObject(t, vm->registry().arrayClass("[I"), len);
      if (arr != nullptr) {
        roots.add(arr);
        for (i32 i = 0; i < len; ++i) arr->intElems()[i] = rng.nextInt();
        n->fields()[payload_f->slot] = Value::ofRef(arr);
      }
      n->fields()[left_f->slot] = Value::ofRef(gen(depth + 1));
      n->fields()[right_f->slot] = Value::ofRef(gen(depth + 1));
      return n;
    };
    return gen(0);
  }

  // One seeded round trip in a fresh VM: build in the sender, transfer to
  // the receiver, check mid-flight conservation, GC with only the
  // receiver holding the graph, record the post-GC charges.
  void runTrip(bool zero_copy, u64 seed, RoundTrip* out) {
    boot(zero_copy);
    Rng rng(seed);
    GlobalRef* kept = nullptr;
    {
      LocalRootScope roots(send_t);
      Object* msg = genGraph(send_t, rng, roots, 24);
      ASSERT_NE(msg, nullptr);
      Object* got = transferGraph(*vm, recv_t, iso_s, msg, &out->stats);
      ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
      ASSERT_NE(got, nullptr);
      out->checksum = graphChecksum(got);
      expectAllOwnedBy(got, iso_r->id);
      kept = vm->addGlobalRef(got, iso_r);
      // Exact conservation before any GC: the signed deltas sum to zero
      // across the platform and the in/out totals agree.
      i64 delta_sum = 0;
      for (Isolate* iso : vm->isolates()) {
        delta_sum += iso->stats.donated_bytes_delta.load();
      }
      EXPECT_EQ(delta_sum, 0);
      EXPECT_EQ(iso_s->stats.bytes_donated_out.load(),
                iso_r->stats.bytes_donated_in.load());
      EXPECT_EQ(iso_s->stats.bytes_donated_out.load(), out->stats.bytes_donated);
      EXPECT_EQ(iso_s->stats.objects_donated_out.load(),
                out->stats.objects_donated);
    }
    // The sender relinquished the message (its local roots are gone); after
    // a GC only the receiver-held graph survives and the recomputed charges
    // must not depend on the donation mode.
    vm->collectGarbage(vm->mainThread(), nullptr);
    out->sender_bytes = iso_s->stats.bytes_charged.load();
    out->receiver_bytes = iso_r->stats.bytes_charged.load();
    out->sender_objects = iso_s->stats.objects_charged.load();
    out->receiver_objects = iso_r->stats.objects_charged.load();
    EXPECT_EQ(iso_s->stats.donated_bytes_delta.load(), 0);  // reset by GC
    EXPECT_EQ(iso_r->stats.donated_bytes_delta.load(), 0);
    vm->removeGlobalRef(kept);
  }

  std::unique_ptr<VM> vm;
  ClassLoader* loader0 = nullptr;
  ClassLoader* loader_s = nullptr;
  ClassLoader* loader_r = nullptr;
  Isolate* iso0 = nullptr;
  Isolate* iso_s = nullptr;
  Isolate* iso_r = nullptr;
  JThread* send_t = nullptr;
  JThread* recv_t = nullptr;
  JClass* node_cls = nullptr;
  JField* value_f = nullptr;
  JField* label_f = nullptr;
  JField* payload_f = nullptr;
  JField* left_f = nullptr;
  JField* right_f = nullptr;
};

TEST_F(DonationFixture, SeededGraphsAreIdenticalWithDonationOnAndOff) {
  // The same seed must produce a byte-identical receiver-visible graph and
  // identical post-GC charges whether payloads were donated or copied.
  constexpr int kSeeds = 25;
  u64 donated_total = 0;
  for (int s = 0; s < kSeeds; ++s) {
    SCOPED_TRACE(strf("seed=%d", s));
    RoundTrip on, off;
    runTrip(/*zero_copy=*/true, 0xC0FFEE00ull + s, &on);
    runTrip(/*zero_copy=*/false, 0xC0FFEE00ull + s, &off);
    EXPECT_EQ(on.checksum, off.checksum);
    EXPECT_EQ(off.stats.objects_donated, 0u);
    EXPECT_EQ(on.sender_bytes, off.sender_bytes);
    EXPECT_EQ(on.receiver_bytes, off.receiver_bytes);
    EXPECT_EQ(on.sender_objects, off.sender_objects);
    EXPECT_EQ(on.receiver_objects, off.receiver_objects);
    donated_total += on.stats.objects_donated;
  }
  // The harness must actually exercise donation, not just the fallback.
  EXPECT_GT(donated_total, 0u);
}

TEST_F(DonationFixture, DonatedBuffersAreGcScannedInTheReceiversHeap) {
  boot(/*zero_copy=*/true);
  Object* donated_arr = nullptr;
  GlobalRef* kept = nullptr;
  {
    LocalRootScope roots(send_t);
    Object* arr = roots.add(
        vm->allocArrayObject(send_t, vm->registry().arrayClass("[I"), 1024));
    ASSERT_NE(arr, nullptr);
    for (i32 i = 0; i < 1024; ++i) arr->intElems()[i] = i * 3;
    TransferStats stats;
    Object* got = transferGraph(*vm, recv_t, iso_s, arr, &stats);
    ASSERT_EQ(got, arr);  // donated, not copied
    EXPECT_EQ(stats.objects_donated, 1u);
    EXPECT_EQ(stats.bytes_donated, arr->byte_size);
    donated_arr = got;
    kept = vm->addGlobalRef(got, iso_r);
  }
  // The sender dropped every reference; the donated buffer must survive
  // the collection through the receiver's root alone, charged to the
  // receiver, payload intact.
  vm->collectGarbage(vm->mainThread(), nullptr);
  bool alive = false;
  vm->heap().forEachObject([&](Object* o) {
    if (o == donated_arr) alive = true;
  });
  ASSERT_TRUE(alive);
  EXPECT_EQ(donated_arr->charged_isolate, iso_r->id);
  EXPECT_EQ(donated_arr->creator_isolate, iso_r->id);
  for (i32 i = 0; i < 1024; ++i) ASSERT_EQ(donated_arr->intElems()[i], i * 3);
  // Once the receiver drops it, the next sweep reclaims it.
  vm->removeGlobalRef(kept);
  vm->collectGarbage(vm->mainThread(), nullptr);
  alive = false;
  vm->heap().forEachObject([&](Object* o) {
    if (o == donated_arr) alive = true;
  });
  EXPECT_FALSE(alive);
}

TEST_F(DonationFixture, DonationMovesTheMemoryLimitCharge) {
  // A sender at its memory limit sheds bytes by donating; the receiver
  // inherits them immediately -- before any accounting pass re-derives the
  // charges (vm.cpp checkMemoryLimits folds donated_bytes_delta in).
  boot(/*zero_copy=*/true);
  iso_s->memory_limit = 64 * 1024;
  iso_r->memory_limit = 64 * 1024;
  GlobalRef* kept = nullptr;
  u64 bytes = 0;
  {
    LocalRootScope roots(send_t);
    Object* arr = roots.add(vm->allocArrayObject(
        send_t, vm->registry().arrayClass("[I"), 12 * 1024));
    ASSERT_NE(arr, nullptr);
    bytes = arr->byte_size;
    TransferStats stats;
    Object* got = transferGraph(*vm, recv_t, iso_s, arr, &stats);
    ASSERT_EQ(got, arr);
    EXPECT_EQ(iso_s->stats.donated_bytes_delta.load(), -static_cast<i64>(bytes));
    EXPECT_EQ(iso_r->stats.donated_bytes_delta.load(), static_cast<i64>(bytes));
    kept = vm->addGlobalRef(got, iso_r);
  }
  // The receiver's held estimate now includes the donated bytes: an
  // allocation that would cross its limit must fail even though the
  // receiver itself allocated almost nothing. (The limit check forces a
  // GC first; the recomputed charges bill the donated array to the
  // receiver all the same.)
  Object* too_much = vm->allocArrayObject(
      recv_t, vm->registry().arrayClass("[I"), 6 * 1024);
  EXPECT_EQ(too_much, nullptr);
  ASSERT_NE(recv_t->pending_exception, nullptr);
  EXPECT_NE(vm->pendingMessage(recv_t).find("OutOfMemoryError"),
            std::string::npos);
  vm->clearPending(recv_t);
  // The sender was credited: it can fill the shed space again.
  {
    LocalRootScope roots(send_t);
    Object* refill = roots.add(vm->allocArrayObject(
        send_t, vm->registry().arrayClass("[I"), 12 * 1024));
    EXPECT_NE(refill, nullptr) << vm->pendingMessage(send_t);
  }
  vm->removeGlobalRef(kept);
}

TEST_F(DonationFixture, IneligibleNodesFallBackToCopy) {
  boot(/*zero_copy=*/true);
  LocalRootScope roots(send_t);

  // Interned strings stay in the sender's table (its `==` semantics and
  // GC roots depend on the original object).
  Object* interned = vm->internString(send_t, "interned-label");
  ASSERT_NE(interned, nullptr);
  TransferStats s1;
  Object* got1 = transferGraph(*vm, recv_t, iso_s, interned, &s1);
  ASSERT_NE(got1, nullptr);
  EXPECT_NE(got1, interned);
  EXPECT_EQ(s1.objects_donated, 0u);
  EXPECT_EQ(VM::stringValue(got1), "interned-label");

  // A monitor-bearing array is visibly aliased (someone synchronized on
  // it), so ownership cannot move.
  Object* locked = roots.add(
      vm->allocArrayObject(send_t, vm->registry().arrayClass("[I"), 16));
  ASSERT_NE(locked, nullptr);
  vm->monitorOf(locked);
  TransferStats s2;
  Object* got2 = transferGraph(*vm, recv_t, iso_s, locked, &s2);
  ASSERT_NE(got2, nullptr);
  EXPECT_NE(got2, locked);
  EXPECT_EQ(s2.objects_donated, 0u);

  // An array the claimed sender did not create cannot be donated on its
  // behalf.
  Object* foreign = roots.add(vm->allocArrayObject(
      vm->mainThread(), vm->registry().arrayClass("[I"), 16));
  ASSERT_NE(foreign, nullptr);
  TransferStats s3;
  Object* got3 = transferGraph(*vm, recv_t, iso_s, foreign, &s3);
  ASSERT_NE(got3, nullptr);
  EXPECT_NE(got3, foreign);
  EXPECT_EQ(s3.objects_donated, 0u);

  // Plain objects always copy (mutable structure), but eligible leaves
  // hanging off them still donate: the received node is a fresh copy whose
  // payload field aliases the donated original.
  Object* n = roots.add(vm->allocObject(send_t, node_cls));
  ASSERT_NE(n, nullptr);
  Object* arr = roots.add(
      vm->allocArrayObject(send_t, vm->registry().arrayClass("[I"), 8));
  ASSERT_NE(arr, nullptr);
  n->fields()[payload_f->slot] = Value::ofRef(arr);
  TransferStats s4;
  Object* got4 = transferGraph(*vm, recv_t, iso_s, n, &s4);
  ASSERT_NE(got4, nullptr);
  EXPECT_NE(got4, n);
  EXPECT_EQ(got4->fields()[payload_f->slot].asRef(), arr);
  EXPECT_EQ(s4.objects_donated, 1u);  // the int[]; label/left/right are null
  EXPECT_EQ(s4.objects_copied, 1u);   // the d/Node itself
}

TEST_F(DonationFixture, ZeroCopyOffNeverDonates) {
  boot(/*zero_copy=*/false);
  LocalRootScope roots(send_t);
  Object* arr = roots.add(
      vm->allocArrayObject(send_t, vm->registry().arrayClass("[I"), 256));
  ASSERT_NE(arr, nullptr);
  TransferStats stats;
  Object* got = transferGraph(*vm, recv_t, iso_s, arr, &stats);
  ASSERT_NE(got, nullptr);
  EXPECT_NE(got, arr);
  EXPECT_EQ(stats.objects_donated, 0u);
  EXPECT_EQ(iso_s->stats.objects_donated_out.load(), 0u);
  EXPECT_EQ(iso_r->stats.objects_donated_in.load(), 0u);
  EXPECT_EQ(iso_s->stats.donated_bytes_delta.load(), 0);
  EXPECT_EQ(iso_r->stats.donated_bytes_delta.load(), 0);

  // An eligible leaf under a plain object copies too: node and payload
  // both arrive as fresh objects.
  Object* n = roots.add(vm->allocObject(send_t, node_cls));
  ASSERT_NE(n, nullptr);
  Object* payload = roots.add(
      vm->allocArrayObject(send_t, vm->registry().arrayClass("[I"), 8));
  ASSERT_NE(payload, nullptr);
  n->fields()[payload_f->slot] = Value::ofRef(payload);
  TransferStats s2;
  Object* got2 = transferGraph(*vm, recv_t, iso_s, n, &s2);
  ASSERT_NE(got2, nullptr);
  EXPECT_NE(got2, n);
  EXPECT_NE(got2->fields()[payload_f->slot].asRef(), payload);
  EXPECT_EQ(s2.objects_donated, 0u);
  EXPECT_EQ(s2.objects_copied, 2u);
}

// ---- graph depth and width never reach the host stack ----

// The walkers keep their own stacks: a 200k-node list and a 100k-wide
// Object[] go through transferGraph, deepCopy and serializeGraph ->
// deserializeGraph on this thread's default stack. Without a memory limit
// each must come back as a correct copy; under a receiver limit smaller
// than the copy, as a guest OutOfMemoryError. Neither may crash the host.
TEST_F(DonationFixture, DeepAndWideGraphsNeverReachTheHostStack) {
  boot(/*zero_copy=*/true);
  constexpr i32 kDepth = 200'000;
  constexpr i32 kWidth = 100'000;
  JThread* main_t = vm->mainThread();  // Isolate0 resolves d/Node
  LocalRootScope roots(send_t);

  // list: node i -> node i+1 through `left`, value i. Each node is linked
  // from the rooted head's chain before the next allocation.
  Object* list = roots.add(vm->allocObject(send_t, node_cls));
  ASSERT_NE(list, nullptr);
  Object* tail = list;
  for (i32 i = 1; i < kDepth; ++i) {
    Object* n = vm->allocObject(send_t, node_cls);
    ASSERT_NE(n, nullptr);
    n->fields()[value_f->slot] = Value::ofInt(i);
    tail->fields()[left_f->slot] = Value::ofRef(n);
    tail = n;
  }
  // wide: element i is a childless node with value i.
  Object* wide = roots.add(vm->allocArrayObject(
      send_t, vm->registry().resolve(loader0, "[Ld/Node;"), kWidth));
  ASSERT_NE(wide, nullptr);
  for (i32 i = 0; i < kWidth; ++i) {
    Object* n = vm->allocObject(send_t, node_cls);
    ASSERT_NE(n, nullptr);
    n->fields()[value_f->slot] = Value::ofInt(i);
    wide->refElems()[i] = n;
  }

  auto expectList = [&](Object* got) {
    ASSERT_NE(got, nullptr);
    Object* n = got;
    for (i32 i = 0; i < kDepth; ++i) {
      ASSERT_NE(n, nullptr) << "list ends at " << i;
      ASSERT_EQ(n->cls, node_cls);
      ASSERT_EQ(n->fields()[value_f->slot].asInt(), i);
      n = n->fields()[left_f->slot].asRef();
    }
    EXPECT_EQ(n, nullptr);
    EXPECT_NE(got, list);
  };
  auto expectWide = [&](Object* got) {
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->kind, ObjKind::ArrayRef);
    ASSERT_EQ(got->length, kWidth);
    for (i32 i = 0; i < kWidth; ++i) {
      Object* n = got->refElems()[i];
      ASSERT_NE(n, nullptr);
      ASSERT_NE(n, wide->refElems()[i]);
      ASSERT_EQ(n->fields()[value_f->slot].asInt(), i);
    }
  };
  // Runs every walker on `root` and checks each result with `expect`;
  // the copies are dropped (and collected) before the next walker runs.
  auto throughEveryWalker = [&](Object* root, const auto& expect) {
    {
      LocalRootScope keep(recv_t);
      Object* got = keep.add(transferGraph(*vm, recv_t, iso_s, root));
      ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
      expect(got);
      EXPECT_EQ(got->creator_isolate, iso_r->id);
    }
    {
      LocalRootScope keep(recv_t);
      Object* got = keep.add(deepCopy(*vm, recv_t, root));
      ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
      expect(got);
    }
    {
      const std::string bytes = serializeGraph(*vm, root);
      LocalRootScope keep(main_t);
      Object* got = keep.add(deserializeGraph(*vm, main_t, bytes));
      ASSERT_EQ(main_t->pending_exception, nullptr) << vm->pendingMessage(main_t);
      expect(got);
    }
    vm->collectGarbage(main_t, nullptr);
  };
  throughEveryWalker(list, expectList);
  throughEveryWalker(wide, expectWide);

  // Over the receiver's limit the copy stops with a guest
  // OutOfMemoryError partway through the graph.
  iso_r->memory_limit = 4u << 20;
  for (Object* root : {list, wide}) {
    for (int walker = 0; walker < 2; ++walker) {
      Object* got = walker == 0 ? transferGraph(*vm, recv_t, iso_s, root)
                                : deepCopy(*vm, recv_t, root);
      EXPECT_EQ(got, nullptr);
      ASSERT_NE(recv_t->pending_exception, nullptr);
      EXPECT_EQ(recv_t->pending_exception.load()->cls->name, "java/lang/OutOfMemoryError");
      vm->clearPending(recv_t);
    }
  }
  iso_r->memory_limit = 0;
  // The sender's graph is untouched.
  EXPECT_EQ(list->fields()[value_f->slot].asInt(), 0);
  EXPECT_EQ(wide->refElems()[kWidth - 1]->fields()[value_f->slot].asInt(),
            kWidth - 1);
}

// ---- termination racing an in-flight donation, both kill orders ----
// These run under the TSan CI leg (.github/workflows/ci.yml).

TEST_F(DonationFixture, SenderKilledMidStreamLeaksNoChargeAndNoForeignRefs) {
  boot(/*zero_copy=*/true);
  constexpr int kMessages = 400;
  std::atomic<int> sent{0};
  std::vector<GlobalRef*> received;
  std::mutex received_m;

  std::thread pump([&] {
    // Both endpoint records belong to this OS thread: build each message
    // in the sender isolate, transfer it into the receiver isolate, keep
    // every 16th received graph alive. No interning (see genGraph).
    JThread* st = vm->attachThread("pump-send", iso_s);
    JThread* rt = vm->attachThread("pump-recv", iso_r);
    Rng rng(0xFEEDFACEull);
    for (int i = 0; i < kMessages; ++i) {
      LocalRootScope roots(st);
      Object* msg = genGraph(st, rng, roots, 6, /*allow_intern=*/false);
      if (msg != nullptr) {
        TransferStats stats;
        Object* got = transferGraph(*vm, rt, iso_s, msg, &stats);
        if (got != nullptr && (i % 16) == 0) {
          std::lock_guard<std::mutex> lock(received_m);
          received.push_back(vm->addGlobalRef(got, iso_r));
        }
      }
      vm->clearPending(st);
      vm->clearPending(rt);
      sent.fetch_add(1, std::memory_order_release);
    }
    vm->detachThread(rt);
    vm->detachThread(st);
  });

  // Kill the sender mid-stream (the main thread lives in the privileged
  // Isolate0), racing terminateIsolate's stop-the-world against the
  // pump's per-node counted donation brackets.
  while (sent.load(std::memory_order_acquire) < kMessages / 4) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(vm->terminateIsolate(vm->mainThread(), iso_s));
  pump.join();

  // Conservation survived the race: the signed deltas still sum to zero
  // and the monotonic in/out totals agree.
  i64 delta_sum = 0;
  for (Isolate* iso : vm->isolates()) {
    delta_sum += iso->stats.donated_bytes_delta.load();
  }
  EXPECT_EQ(delta_sum, 0);
  EXPECT_EQ(iso_s->stats.bytes_donated_out.load(),
            iso_r->stats.bytes_donated_in.load());
  EXPECT_EQ(iso_s->stats.objects_donated_out.load(),
            iso_r->stats.objects_donated_in.load());

  // Killed-bundle observability: the report is still served and the
  // isolate is Terminating or Dead, never Active again.
  EXPECT_NE(vm->reportFor(iso_s).state, IsolateState::Active);

  // No dangling cross-isolate references: every kept graph is wholly
  // receiver-keyed -- donated before the kill (donation and termination
  // are mutually ordered by the safepoint protocol) or copied after it.
  vm->collectGarbage(vm->mainThread(), nullptr);
  for (GlobalRef* ref : received) {
    expectAllOwnedBy(ref->obj, iso_r->id);
    vm->removeGlobalRef(ref);
  }
  // No leaked charge: with every message dropped, both the dead sender's
  // and the receiver's charges drain to zero.
  vm->collectGarbage(vm->mainThread(), nullptr);
  EXPECT_EQ(iso_r->stats.bytes_charged.load(), 0u);
  EXPECT_EQ(iso_s->stats.bytes_charged.load(), 0u);
}

TEST_F(DonationFixture, ReceiverKilledBeforeDrainRefusesDonationAndLeaksNothing) {
  boot(/*zero_copy=*/true);
  // Queue messages (the sender's part of the send is done), then kill the
  // receiver before the drain: the in-flight transfers must refuse
  // donation -- a Terminating isolate cannot accept ownership -- and
  // nothing may leak on either side.
  std::vector<GlobalRef*> queue;
  {
    LocalRootScope roots(send_t);
    for (int i = 0; i < 8; ++i) {
      Object* arr = roots.add(vm->allocArrayObject(
          send_t, vm->registry().arrayClass("[I"), 512));
      ASSERT_NE(arr, nullptr);
      queue.push_back(vm->addGlobalRef(arr, iso_s));
    }
  }
  ASSERT_TRUE(vm->terminateIsolate(vm->mainThread(), iso_r));

  const u64 donated_before = iso_r->stats.bytes_donated_in.load();
  for (GlobalRef* ref : queue) {
    TransferStats stats;
    Object* got = transferGraph(*vm, recv_t, iso_s, ref->obj, &stats);
    EXPECT_EQ(stats.objects_donated, 0u);  // receiver not Active
    if (got != nullptr) {
      EXPECT_NE(got, ref->obj);
    }
    vm->clearPending(recv_t);
    vm->removeGlobalRef(ref);
  }
  EXPECT_EQ(iso_r->stats.bytes_donated_in.load(), donated_before);
  EXPECT_EQ(iso_r->stats.donated_bytes_delta.load(), 0);
  EXPECT_EQ(iso_s->stats.donated_bytes_delta.load(), 0);

  // Everything dropped: the killed receiver drains to zero charge and
  // leaves Active for good; the sender keeps nothing it should not.
  vm->collectGarbage(vm->mainThread(), nullptr);
  EXPECT_EQ(iso_s->stats.bytes_charged.load(), 0u);
  EXPECT_EQ(iso_r->stats.bytes_charged.load(), 0u);
  EXPECT_NE(vm->reportFor(iso_r).state, IsolateState::Active);
}

}  // namespace
}  // namespace ijvm
