// System-library natives: StringBuilder, collections, Connection I/O with
// per-isolate accounting, Math, Integer, System, permission checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "bytecode/builder.h"
#include "heap/object.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"

namespace ijvm {
namespace {

struct StdlibFixture : ::testing::Test {
  void SetUp() override {
    vm = std::make_unique<VM>();
    installSystemLibrary(*vm);
    app = vm->registry().newLoader("app");
    iso = vm->createIsolate(app, "app");
  }
  void TearDown() override { vm.reset(); }

  Value run(ClassBuilder& cb, const std::string& method, const std::string& desc,
            std::vector<Value> args = {}) {
    std::string cls = cb.name();
    app->define(cb.build());
    JThread* t = vm->mainThread();
    Value r = vm->callStaticIn(t, app, cls, method, desc, std::move(args));
    last_error = t->pending_exception != nullptr ? vm->pendingMessage(t) : "";
    vm->clearPending(t);
    return r;
  }

  std::unique_ptr<VM> vm;
  ClassLoader* app = nullptr;
  Isolate* iso = nullptr;
  std::string last_error;
};

TEST_F(StdlibFixture, StringBuilderBuildsText) {
  ClassBuilder cb("sl/Sb");
  auto& m = cb.method("f", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/lang/StringBuilder");
  m.ldcStr("n=").invokevirtual("java/lang/StringBuilder", "append",
                               "(Ljava/lang/String;)Ljava/lang/StringBuilder;");
  m.iconst(42).invokevirtual("java/lang/StringBuilder", "appendInt",
                             "(I)Ljava/lang/StringBuilder;");
  m.iconst('!').invokevirtual("java/lang/StringBuilder", "appendChar",
                              "(I)Ljava/lang/StringBuilder;");
  m.invokevirtual("java/lang/StringBuilder", "toString", "()Ljava/lang/String;");
  m.areturn();
  Value r = run(cb, "f", "()Ljava/lang/String;");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(VM::stringValue(r.asRef()), "n=42!");
}

TEST_F(StdlibFixture, StringBuilderAppendIntMatchesPrintf) {
  const i32 values[] = {0, 7, -1, -42, 1000000, INT32_MIN, INT32_MAX};
  ClassBuilder cb("sl/SbInt");
  auto& m = cb.method("f", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/lang/StringBuilder");
  std::string expected;
  for (i32 v : values) {
    m.iconst(v).invokevirtual("java/lang/StringBuilder", "appendInt",
                              "(I)Ljava/lang/StringBuilder;");
    m.iconst('|').invokevirtual("java/lang/StringBuilder", "appendChar",
                                "(I)Ljava/lang/StringBuilder;");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d|", v);
    expected += buf;
  }
  m.invokevirtual("java/lang/StringBuilder", "toString", "()Ljava/lang/String;");
  m.areturn();
  Value r = run(cb, "f", "()Ljava/lang/String;");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(VM::stringValue(r.asRef()), expected);
  EXPECT_EQ(expected, "0|7|-1|-42|1000000|-2147483648|2147483647|");
}

TEST_F(StdlibFixture, ArrayListAddGetSetSizeRemove) {
  ClassBuilder cb("sl/List");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/util/ArrayList").astore(0);
  for (int i = 0; i < 3; ++i) {
    m.aload(0).ldcStr("item" + std::to_string(i));
    m.invokevirtual("java/util/ArrayList", "add", "(Ljava/lang/Object;)I").pop();
  }
  // replace element 1, then size*100 + length(get(1))
  m.aload(0).iconst(1).ldcStr("XY");
  m.invokevirtual("java/util/ArrayList", "set",
                  "(ILjava/lang/Object;)Ljava/lang/Object;").pop();
  m.aload(0).invokevirtual("java/util/ArrayList", "removeLast",
                           "()Ljava/lang/Object;").pop();
  m.aload(0).invokevirtual("java/util/ArrayList", "size", "()I").iconst(100).imul();
  m.aload(0).iconst(1).invokevirtual("java/util/ArrayList", "get",
                                     "(I)Ljava/lang/Object;");
  m.checkcast("java/lang/String");
  m.invokevirtual("java/lang/String", "length", "()I");
  m.iadd().ireturn();
  Value r = run(cb, "f", "()I");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(r.asInt(), 202);  // size 2 * 100 + "XY".length()
}

TEST_F(StdlibFixture, HashMapPutGetRemove) {
  ClassBuilder cb("sl/Map");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/util/HashMap").astore(0);
  m.aload(0).ldcStr("k1").ldcStr("value-one");
  m.invokevirtual("java/util/HashMap", "put",
                  "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;").pop();
  m.aload(0).ldcStr("k2").ldcStr("v2");
  m.invokevirtual("java/util/HashMap", "put",
                  "(Ljava/lang/String;Ljava/lang/Object;)Ljava/lang/Object;").pop();
  Label missing = m.newLabel();
  m.aload(0).ldcStr("k1");
  m.invokevirtual("java/util/HashMap", "get",
                  "(Ljava/lang/String;)Ljava/lang/Object;");
  m.dup().ifNull(missing);
  m.checkcast("java/lang/String").invokevirtual("java/lang/String", "length", "()I");
  m.aload(0).ldcStr("k2").invokevirtual("java/util/HashMap", "remove",
                                        "(Ljava/lang/String;)Ljava/lang/Object;");
  m.pop();
  m.aload(0).invokevirtual("java/util/HashMap", "size", "()I");
  m.iconst(100).imul().iadd().ireturn();
  m.bind(missing).pop().iconst(-1).ireturn();
  Value r = run(cb, "f", "()I");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(r.asInt(), 109);  // "value-one".length()=9 + size 1 * 100
}

TEST_F(StdlibFixture, ConnectionIoChargesTheCurrentIsolate) {
  ClassBuilder cb("sl/Io");
  auto& m = cb.method("f", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC);
  m.ldcStr("loop").invokestatic("java/io/Connection", "open",
                                "(Ljava/lang/String;)Ljava/io/Connection;");
  m.astore(0);
  m.aload(0).ldcStr("ping-pong!");
  m.invokevirtual("java/io/Connection", "writeString", "(Ljava/lang/String;)V");
  m.aload(0).iconst(10);
  m.invokevirtual("java/io/Connection", "readString", "(I)Ljava/lang/String;");
  m.areturn();
  Value r = run(cb, "f", "()Ljava/lang/String;");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(VM::stringValue(r.asRef()), "ping-pong!");
  // JRes-style accounting (paper 3.2): bytes charged to the caller.
  EXPECT_EQ(iso->stats.io_bytes_written.load(), 10u);
  EXPECT_EQ(iso->stats.io_bytes_read.load(), 10u);
  EXPECT_EQ(iso->stats.connections_opened.load(), 1u);
}

TEST_F(StdlibFixture, MathNatives) {
  ClassBuilder cb("sl/Math");
  auto& m = cb.method("f", "(D)D", ACC_PUBLIC | ACC_STATIC);
  m.dload(0).invokestatic("java/lang/Math", "sqrt", "(D)D");
  m.dconst(2.0).invokestatic("java/lang/Math", "pow", "(DD)D").dreturn();
  Value r = run(cb, "f", "(D)D", {Value::ofDouble(49.0)});
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_DOUBLE_EQ(r.asDouble(), 49.0);  // sqrt(49)^2
}

TEST_F(StdlibFixture, IntegerParseAndToString) {
  ClassBuilder cb("sl/Int");
  auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
  m.iload(0).invokestatic("java/lang/Integer", "toString",
                          "(I)Ljava/lang/String;");
  m.invokestatic("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
  m.ireturn();
  Value r = run(cb, "f", "(I)I", {Value::ofInt(-123456)});
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(r.asInt(), -123456);
}

TEST_F(StdlibFixture, ParseIntRejectsGarbage) {
  ClassBuilder cb("sl/Bad");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
  m.bind(from);
  m.ldcStr("12x4").invokestatic("java/lang/Integer", "parseInt",
                                "(Ljava/lang/String;)I");
  m.bind(to).ireturn();
  m.bind(handler).pop().iconst(-1).ireturn();
  m.handler(from, to, handler, "java/lang/NumberFormatException");
  Value r = run(cb, "f", "()I");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(r.asInt(), -1);
}

TEST_F(StdlibFixture, ArraycopyMovesElementsAndChecksBounds) {
  ClassBuilder cb("sl/Copy");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  m.iconst(5).newarray(Kind::Int).astore(0);
  for (int i = 0; i < 5; ++i) {
    m.aload(0).iconst(i).iconst(i * 10).iastore();
  }
  m.iconst(5).newarray(Kind::Int).astore(1);
  m.aload(0).iconst(1).aload(1).iconst(0).iconst(3);
  m.invokestatic("java/lang/System", "arraycopy",
                 "(Ljava/lang/Object;ILjava/lang/Object;II)V");
  m.aload(1).iconst(2).iaload().ireturn();  // src[3] == 30
  Value r = run(cb, "f", "()I");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(r.asInt(), 30);
}

TEST_F(StdlibFixture, ArraycopyRejectsKindMismatch) {
  ClassBuilder cb("sl/Copy2");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
  m.bind(from);
  m.iconst(2).newarray(Kind::Int).astore(0);
  m.iconst(2).newarray(Kind::Double).astore(1);
  m.aload(0).iconst(0).aload(1).iconst(0).iconst(1);
  m.invokestatic("java/lang/System", "arraycopy",
                 "(Ljava/lang/Object;ILjava/lang/Object;II)V");
  m.bind(to).iconst(0).ireturn();
  m.bind(handler).pop().iconst(1).ireturn();
  m.handler(from, to, handler, "java/lang/ArrayStoreException");
  Value r = run(cb, "f", "()I");
  EXPECT_EQ(r.asInt(), 1);
}

TEST_F(StdlibFixture, SystemExitDeniedToUnprivilegedIsolates) {
  // Rule 2 (paper 3.4): a bundle must not be able to shut down the JVM.
  // We need a second (standard) isolate because the first one is Isolate0.
  ClassLoader* bundle = vm->registry().newLoader("bundle");
  Isolate* biso = vm->createIsolate(bundle, "bundle");
  ASSERT_FALSE(biso->privileged);
  ClassBuilder cb("sl/Exit");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
  m.bind(from);
  m.iconst(0).invokestatic("java/lang/System", "exit", "(I)V");
  m.bind(to).iconst(0).ireturn();
  m.bind(handler).pop().iconst(1).ireturn();
  m.handler(from, to, handler, "java/lang/SecurityException");
  bundle->define(cb.build());
  JThread* t = vm->mainThread();
  Value r = vm->callStaticIn(t, bundle, "sl/Exit", "f", "()I", {});
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  EXPECT_EQ(r.asInt(), 1);  // denied
}

TEST_F(StdlibFixture, ObjectIdentityHashAndEquals) {
  ClassBuilder cb("sl/Obj");
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/lang/Object").astore(0);
  // o.equals(o) + (o.equals(new Object()) * 10)
  m.aload(0).aload(0)
      .invokevirtual("java/lang/Object", "equals", "(Ljava/lang/Object;)I");
  m.aload(0).newDefault("java/lang/Object")
      .invokevirtual("java/lang/Object", "equals", "(Ljava/lang/Object;)I");
  m.iconst(10).imul().iadd().ireturn();
  Value r = run(cb, "f", "()I");
  EXPECT_EQ(r.asInt(), 1);
}

TEST_F(StdlibFixture, GetClassNameRoundTrips) {
  ClassBuilder cb("sl/Cls");
  auto& m = cb.method("f", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC);
  m.newDefault("java/lang/Object");
  m.invokevirtual("java/lang/Object", "getClass", "()Ljava/lang/Class;");
  m.invokevirtual("java/lang/Class", "getName", "()Ljava/lang/String;");
  m.areturn();
  Value r = run(cb, "f", "()Ljava/lang/String;");
  ASSERT_TRUE(last_error.empty()) << last_error;
  EXPECT_EQ(VM::stringValue(r.asRef()), "java/lang/Object");
}

}  // namespace
}  // namespace ijvm
