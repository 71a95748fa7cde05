// Communication models (Table 1 substrate): serializer round-trips, deep
// copy isolation, and the cost ordering local <= ijvm << incommunicado << rmi.
#include <gtest/gtest.h>

#include "bytecode/builder.h"
#include "comm/comm.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "support/rng.h"
#include "support/strf.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

struct CommFixture : ::testing::Test {
  void boot() {
    vm = std::make_unique<VM>();
    installSystemLibrary(*vm);
    fw = std::make_unique<Framework>(*vm);
  }
  void TearDown() override {
    fw.reset();
    vm.reset();
  }
  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
};

TEST_F(CommFixture, SerializerRoundTripsObjectGraph) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Node");
    cb.field("value", "I");
    cb.field("weight", "D");
    cb.field("label", "Ljava/lang/String;");
    cb.field("next", "Lt/Node;");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* node_cls = shared->find("t/Node");

  LocalRootScope roots(t);
  Object* a = roots.add(vm->allocObject(t, node_cls));
  Object* b = roots.add(vm->allocObject(t, node_cls));
  Object* label = roots.add(vm->newStringObject(t, "hello graph"));
  JField* value_f = node_cls->findField("value");
  JField* weight_f = node_cls->findField("weight");
  JField* label_f = node_cls->findField("label");
  JField* next_f = node_cls->findField("next");
  a->fields()[value_f->slot] = Value::ofInt(7);
  a->fields()[weight_f->slot] = Value::ofDouble(2.5);
  a->fields()[label_f->slot] = Value::ofRef(label);
  a->fields()[next_f->slot] = Value::ofRef(b);
  b->fields()[value_f->slot] = Value::ofInt(9);
  b->fields()[next_f->slot] = Value::ofRef(a);  // cycle

  std::string bytes = serializeGraph(*vm, a);
  Object* copy = deserializeGraph(*vm, t, bytes);
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  ASSERT_NE(copy, nullptr);
  EXPECT_NE(copy, a);
  EXPECT_EQ(copy->fields()[value_f->slot].asInt(), 7);
  EXPECT_DOUBLE_EQ(copy->fields()[weight_f->slot].asDouble(), 2.5);
  Object* copy_label = copy->fields()[label_f->slot].asRef();
  ASSERT_NE(copy_label, nullptr);
  EXPECT_EQ(VM::stringValue(copy_label), "hello graph");
  Object* copy_b = copy->fields()[next_f->slot].asRef();
  ASSERT_NE(copy_b, nullptr);
  EXPECT_EQ(copy_b->fields()[value_f->slot].asInt(), 9);
  // Cycle preserved through back-references.
  EXPECT_EQ(copy_b->fields()[next_f->slot].asRef(), copy);
}

TEST_F(CommFixture, SerializerRejectsCorruptStream) {
  boot();
  JThread* t = vm->mainThread();
  std::string bytes = serializeGraph(*vm, nullptr);
  // Flip a payload byte: checksum must catch it.
  ASSERT_FALSE(bytes.empty());
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 1;
  Object* r = deserializeGraph(*vm, t, corrupt);
  EXPECT_EQ(r, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  vm->clearPending(t);
}

// Wraps `body` in the stream header with a valid checksum, so a crafted
// stream reaches the parser rather than the integrity check.
std::string withHeader(const std::string& body) {
  u32 sum = 0;
  for (unsigned char c : body) sum = sum * 131 + c;
  return strf("IJSER1 %zu %u\n", body.size(), sum) + body;
}

// Deserializes `body` and expects a guest IllegalArgumentException (whose
// message contains `why`, when given), not a result and not a host
// exception.
void expectRejected(VM& vm, JThread* t, const std::string& body,
                    const std::string& why = "") {
  SCOPED_TRACE(body);
  Object* r = deserializeGraph(vm, t, withHeader(body));
  EXPECT_EQ(r, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  EXPECT_EQ(t->pending_exception.load()->cls->name, "java/lang/IllegalArgumentException")
      << vm.pendingMessage(t);
  EXPECT_NE(vm.pendingMessage(t).find(why), std::string::npos) << vm.pendingMessage(t);
  vm.clearPending(t);
}

TEST_F(CommFixture, DeserializerChecksFieldTagsAgainstDeclaredKinds) {
  // An int smuggled into a reference field would let asRef() hand guest
  // code the address 0x41414141; the stream's tag must match the kind the
  // receiver's class declares.
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("x/E");
    cb.field("ref", "Ljava/lang/Object;");
    shared->define(cb.build());
    ClassBuilder ib("x/I");
    ib.field("n", "I");
    shared->define(ib.build());
  }
  JThread* t = vm->mainThread();
  const std::string kMismatch = "field kind mismatch";
  expectRejected(*vm, t, "OBJ 0 3:x/E 1 I 1094795585", kMismatch);
  expectRejected(*vm, t, "OBJ 0 3:x/E 1 J 1094795585 ", kMismatch);
  expectRejected(*vm, t, "OBJ 0 3:x/I 1 R NULL ", kMismatch);
  expectRejected(*vm, t, "OBJ 0 3:x/I 1 D 1.5 ", kMismatch);

  // Matching tags still decode.
  Object* e = deserializeGraph(*vm, t, withHeader("OBJ 0 3:x/E 1 R STR 1 2:hi "));
  ASSERT_NE(e, nullptr) << vm->pendingMessage(t);
  Object* s = e->fields()[0].asRef();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(VM::stringValue(s), "hi");
  Object* i = deserializeGraph(*vm, t, withHeader("OBJ 0 3:x/I 1 I -7 "));
  ASSERT_NE(i, nullptr) << vm->pendingMessage(t);
  EXPECT_EQ(i->fields()[0].asInt(), -7);
}

TEST_F(CommFixture, MalformedStreamsRaiseGuestExceptionsNotHostErrors) {
  // Each body carries a valid checksum, so the parser itself must turn
  // every defect into a guest exception; none may throw to the host.
  boot();
  JThread* t = vm->mainThread();
  // Non-numeric tokens.
  expectRejected(*vm, t, "STR 0 x:abc ");
  expectRejected(*vm, t, "ARI 0 2 1 x ");
  expectRejected(*vm, t, "ARD 0 1 pi ");
  expectRejected(*vm, t, "BACK zero ");
  // Negative lengths.
  expectRejected(*vm, t, "STR 0 -3:abc ");
  expectRejected(*vm, t, "ARI 0 -3 ");
  // Lengths past the end.
  expectRejected(*vm, t, "STR 0 99:abc ");
  expectRejected(*vm, t, "ARL 0 2000000000 1 ");
  // Truncated arrays and objects.
  expectRejected(*vm, t, "ARI 0 4 1 2 3 ");
  expectRejected(*vm, t, "ARR 0 16:java/lang/Object 2 NULL ");
  expectRejected(*vm, t, "ARR 0 16:java/lang/Object 1 ");
  // Forged ids and class names.
  expectRejected(*vm, t, "BACK 0 ");
  expectRejected(*vm, t, "STR 5 1:a ");
  expectRejected(*vm, t, "ARR 0 4:[[[I 0 ");
  expectRejected(*vm, t, "ARR 0 1:; 0 ");
  expectRejected(*vm, t, "NULL NULL ");
  // Objects whose slots or payload hold host state, and an interface.
  expectRejected(*vm, t, "OBJ 0 15:java/lang/Class 1 J 1094795585 ",
                 "cannot deserialize a java/lang/Class");
  expectRejected(*vm, t, "OBJ 0 16:java/lang/String 0 ",
                 "cannot deserialize a java/lang/String");
  expectRejected(*vm, t, "OBJ 0 18:java/lang/Runnable 0 ",
                 "cannot deserialize a java/lang/Runnable");
  expectRejected(*vm, t, "");
}

TEST_F(CommFixture, MutatedStreamsDecodeOrFailAsGuestExceptions) {
  // Seeded byte mutations of a stream that uses every record kind: each
  // mutant (re-checksummed, so it reaches the parser) must decode or fail
  // with a guest exception -- never crash or throw to the host.
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/F");
    cb.field("i", "I");
    cb.field("j", "J");
    cb.field("d", "D");
    cb.field("s", "Ljava/lang/String;");
    cb.field("ints", "[I");
    cb.field("longs", "[J");
    cb.field("doubles", "[D");
    cb.field("refs", "[Ljava/lang/Object;");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* f_cls = shared->find("t/F");
  std::string body;
  {
    LocalRootScope roots(t);
    Object* f = roots.add(vm->allocObject(t, f_cls));
    Object* ints = roots.add(
        vm->allocArrayObject(t, vm->registry().arrayClass("[I"), 3));
    Object* longs = roots.add(
        vm->allocArrayObject(t, vm->registry().arrayClass("[J"), 2));
    Object* doubles = roots.add(
        vm->allocArrayObject(t, vm->registry().arrayClass("[D"), 2));
    Object* refs = roots.add(vm->allocArrayObject(
        t, vm->registry().arrayClass("[Ljava/lang/Object;"), 3));
    Object* s = roots.add(vm->newStringObject(t, "mutate me"));
    ints->intElems()[1] = -42;
    longs->longElems()[0] = 1ll << 40;
    doubles->doubleElems()[1] = 0.1;
    refs->refElems()[0] = s;     // shared with f.s
    refs->refElems()[1] = f;     // cycle
    f->fields()[0] = Value::ofInt(7);
    f->fields()[1] = Value::ofLong(-9);
    f->fields()[2] = Value::ofDouble(2.5);
    f->fields()[3] = Value::ofRef(s);
    f->fields()[4] = Value::ofRef(ints);
    f->fields()[5] = Value::ofRef(longs);
    f->fields()[6] = Value::ofRef(doubles);
    f->fields()[7] = Value::ofRef(refs);
    const std::string bytes = serializeGraph(*vm, f);
    body = bytes.substr(bytes.find('\n') + 1);
  }
  const std::string alphabet = " :-.0123456789IJDRNULBACKSTROBJ\n";
  int decoded = 0;
  for (u64 seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    std::string m = body;
    for (u64 k = 1 + rng.nextBounded(3); k > 0 && !m.empty(); --k) {
      const size_t at = rng.nextBounded(m.size());
      switch (rng.nextBounded(3)) {
        case 0:
          m[at] = alphabet[rng.nextBounded(alphabet.size())];
          break;
        case 1:
          m.erase(at, 1 + rng.nextBounded(4));
          break;
        default:
          m.insert(at, 1, alphabet[rng.nextBounded(alphabet.size())]);
          break;
      }
    }
    SCOPED_TRACE(m);
    LocalRootScope roots(t);
    Object* r = roots.add(deserializeGraph(*vm, t, withHeader(m)));
    if (t->pending_exception == nullptr) {
      ++decoded;
      continue;
    }
    EXPECT_EQ(r, nullptr);
    const std::string cls = t->pending_exception.load()->cls->name;
    EXPECT_TRUE(cls == "java/lang/IllegalArgumentException" ||
                cls == "java/lang/NoClassDefFoundError")
        << vm->pendingMessage(t);
    vm->clearPending(t);
  }
  // Some mutants (e.g. a changed digit) are still well formed.
  EXPECT_GT(decoded, 0);
}

TEST_F(CommFixture, DeepCopyCreatesDistinctObjectsChargedToReceiver) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Pair");
    cb.field("x", "I");
    cb.field("y", "I");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* pair_cls = shared->find("t/Pair");
  LocalRootScope roots(t);
  Object* src = roots.add(vm->allocObject(t, pair_cls));
  src->fields()[pair_cls->findField("x")->slot] = Value::ofInt(11);

  Object* dup = deepCopy(*vm, t, src);
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup, src);
  EXPECT_EQ(dup->fields()[pair_cls->findField("x")->slot].asInt(), 11);
  // Mutating the copy does not affect the source (isolation of message
  // passing -- exactly what direct sharing in I-JVM does NOT do).
  dup->fields()[pair_cls->findField("x")->slot] = Value::ofInt(99);
  EXPECT_EQ(src->fields()[pair_cls->findField("x")->slot].asInt(), 11);
}

TEST_F(CommFixture, NativeBackedObjectsReportOwnerAndFieldPath) {
  // A graph that reaches a native-backed object cannot cross an isolate
  // boundary; the error must name the object's class, the isolate that
  // owns it, and the field path from the message root -- otherwise a
  // bundle author staring at a failed send has nothing to go on.
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Box");
    cb.field("left", "Ljava/lang/Object;");
    cb.field("right", "Ljava/lang/Object;");
    shared->define(cb.build());
    ClassBuilder nb("t/NativeThing");
    shared->define(nb.build());
  }
  JThread* t = vm->mainThread();
  JClass* box_cls = shared->find("t/Box");
  JClass* native_cls = shared->find("t/NativeThing");
  LocalRootScope roots(t);
  Object* box = roots.add(vm->allocObject(t, box_cls));
  Object* nat = roots.add(vm->allocNativeObject(
      t, native_cls, std::make_unique<NativePayload>()));
  ASSERT_NE(nat, nullptr);
  box->fields()[box_cls->findField("left")->slot] = Value::ofRef(nat);

  Object* dup = deepCopy(*vm, t, box);
  EXPECT_EQ(dup, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  const std::string msg = vm->pendingMessage(t);
  EXPECT_NE(msg.find("t/NativeThing"), std::string::npos) << msg;
  const std::string owner =
      t->current_isolate.load(std::memory_order_relaxed)->name;
  EXPECT_NE(msg.find("owned by isolate '" + owner + "'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("at <root>.left"), std::string::npos) << msg;
  vm->clearPending(t);
}

TEST_F(CommFixture, AllFourModelsComputeTheSameResultAndOrderAsExpected) {
  boot();
  CommHarness harness(*fw);
  const i32 n = 200;  // the paper's 200 inter-bundle calls

  i64 t_local = harness.runLocal(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // local counter: n calls
  i64 t_ijvm = harness.runIJvm(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // remote counter: n calls
  i64 t_inc = harness.runIncommunicado(n);
  EXPECT_EQ(harness.lastCounterValue(), 2 * n);
  i64 t_rmi = harness.runRmi(n);
  EXPECT_EQ(harness.lastCounterValue(), 3 * n);

  // Shape of Table 1: direct calls are far cheaper than message passing.
  EXPECT_LT(t_ijvm, t_inc);
  EXPECT_LT(t_inc, t_rmi * 10);  // rmi >= inc within noise; assert not wildly off
  EXPECT_LT(t_local, t_inc);
  ::testing::Test::RecordProperty("local_ns", std::to_string(t_local));
  ::testing::Test::RecordProperty("ijvm_ns", std::to_string(t_ijvm));
  ::testing::Test::RecordProperty("incommunicado_ns", std::to_string(t_inc));
  ::testing::Test::RecordProperty("rmi_ns", std::to_string(t_rmi));
}

}  // namespace
}  // namespace ijvm
