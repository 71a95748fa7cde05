#include "comm/comm.h"

#include <charconv>
#include <chrono>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "support/strf.h"
#include "workloads/bundles.h"

namespace ijvm {

namespace {

i64 nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses an RMI frame header ("%09zu\n": nine decimal digits, newline).
// Returns false on anything else.
bool parseFrameLength(const std::string& header, size_t* len) {
  if (header.size() != 10 || header[9] != '\n') return false;
  const auto [end, ec] = std::from_chars(header.data(), header.data() + 9, *len);
  return ec == std::errc() && end == header.data() + 9;
}

// Client bundle with two identical call loops: one against a bundle-local
// counter, one against the remote (provider) service.
BundleDescriptor makeCommClient() {
  BundleDescriptor desc;
  desc.symbolic_name = "comm.client";
  const std::string local = "comm_client/LocalCounter";
  const std::string runner = "comm_client/Runner";

  {
    ClassBuilder cb(local);
    cb.addInterface("api/Counter");
    cb.field("n", "I");
    auto& inc = cb.method("inc", "()I");
    inc.aload(0).aload(0).getfield(local, "n", "I").iconst(1).iadd();
    inc.putfield(local, "n", "I");
    inc.aload(0).getfield(local, "n", "I").ireturn();
    auto& get = cb.method("get", "()I");
    get.aload(0).getfield(local, "n", "I").ireturn();
    auto& add = cb.method("add", "(I)I");
    add.aload(0).aload(0).getfield(local, "n", "I").iload(1).iadd();
    add.putfield(local, "n", "I");
    add.aload(0).getfield(local, "n", "I").ireturn();
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb(runner);
    cb.field("localSvc", "Lapi/Counter;", ACC_PUBLIC | ACC_STATIC);
    cb.field("remoteSvc", "Lapi/Counter;", ACC_PUBLIC | ACC_STATIC);

    auto make_loop = [&](const char* name, const char* field) {
      auto& m = cb.method(name, "(I)I", ACC_PUBLIC | ACC_STATIC);
      Label loop = m.newLabel();
      Label done = m.newLabel();
      m.iconst(0).istore(1);
      m.bind(loop).iload(0).ifle(done);
      m.getstatic(runner, field, "Lapi/Counter;");
      m.invokeinterface("api/Counter", "inc", "()I").istore(1);
      m.iinc(0, -1).gotoLabel(loop);
      m.bind(done).iload(1).ireturn();
    };
    make_loop("localMany", "localSvc");
    make_loop("remoteMany", "remoteSvc");
    desc.classes.push_back(cb.build());
  }
  {
    ClassBuilder cb("comm_client/Activator");
    cb.addInterface("osgi/BundleActivator");
    auto& start = cb.method("start", "(Losgi/BundleContext;)V");
    start.newDefault(local);
    start.putstatic(runner, "localSvc", "Lapi/Counter;");
    start.aload(1).ldcStr("comm.counter");
    start.invokevirtual("osgi/BundleContext", "getService",
                        "(Ljava/lang/String;)Ljava/lang/Object;");
    start.checkcast("api/Counter");
    start.putstatic(runner, "remoteSvc", "Lapi/Counter;");
    start.ret();
    cb.method("stop", "(Losgi/BundleContext;)V").ret();
    desc.classes.push_back(cb.build());
    desc.activator = "comm_client/Activator";
  }
  return desc;
}

}  // namespace

void CommHarness::Mailbox::push(i64 v) {
  {
    std::lock_guard<std::mutex> lock(m);
    messages.push_back(v);
  }
  cv.notify_all();
}

bool CommHarness::Mailbox::pop(i64* out, const std::atomic<bool>* cancel) {
  std::unique_lock<std::mutex> lock(m);
  for (;;) {
    if (!messages.empty()) {
      *out = messages.front();
      messages.pop_front();
      return true;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return false;
    cv.wait_for(lock, std::chrono::microseconds(200));
  }
}

CommHarness::CommHarness(Framework& fw) : fw_(fw), vm_(fw.vm()) {
  defineCounterApi(fw_);

  // Message classes, visible to everyone (framework loader).
  ClassLoader* shared = fw_.frameworkIsolate()->loader;
  if ((request_class_ = shared->findLocal("comm/Request")) == nullptr) {
    ClassBuilder cb("comm/Request");
    cb.field("method", "Ljava/lang/String;");
    cb.field("seq", "I");
    request_class_ = shared->define(cb.build());
  }
  if ((reply_class_ = shared->findLocal("comm/Reply")) == nullptr) {
    ClassBuilder cb("comm/Reply");
    cb.field("value", "I");
    cb.field("status", "Ljava/lang/String;");
    reply_class_ = shared->define(cb.build());
  }

  provider_ = fw_.install(makeCounterProvider("comm.provider", "comm.counter"));
  IJVM_CHECK(fw_.start(provider_), "comm provider failed to start");
  client_ = fw_.install(makeCommClient());
  IJVM_CHECK(fw_.start(client_), "comm client failed to start");

  inc_server_ = std::thread([this] { incommunicadoServer(); });
  rmi_channel_ = channelHub(vm_)->connect("rmi.comm.counter");
  rmi_server_ = std::thread([this] { rmiServer(); });
}

CommHarness::~CommHarness() {
  stop_.store(true, std::memory_order_release);
  if (rmi_channel_ != nullptr) rmi_channel_->close();
  if (inc_server_.joinable()) inc_server_.join();
  if (rmi_server_.joinable()) rmi_server_.join();
}

Object* CommHarness::serviceObject() {
  Object* svc = fw_.getService("comm.counter");
  IJVM_CHECK(svc != nullptr, "comm.counter service missing");
  return svc;
}

i64 CommHarness::runLocal(i32 n) {
  JThread* t = vm_.mainThread();
  const i64 start = nowNs();
  Value r = vm_.callStaticIn(t, client_->loader(), "comm_client/Runner",
                             "localMany", "(I)I", {Value::ofInt(n)});
  const i64 elapsed = nowNs() - start;
  IJVM_CHECK(t->pending_exception == nullptr, vm_.pendingMessage(t));
  last_value_ = r.asInt();
  return elapsed;
}

i64 CommHarness::runIJvm(i32 n) {
  JThread* t = vm_.mainThread();
  const i64 start = nowNs();
  Value r = vm_.callStaticIn(t, client_->loader(), "comm_client/Runner",
                             "remoteMany", "(I)I", {Value::ofInt(n)});
  const i64 elapsed = nowNs() - start;
  IJVM_CHECK(t->pending_exception == nullptr, vm_.pendingMessage(t));
  last_value_ = r.asInt();
  return elapsed;
}

void CommHarness::incommunicadoServer() {
  // Stands for the receiver-side of an Isolate Link: runs inside the
  // provider isolate, deep-copies each request, dispatches, replies.
  JThread* t = vm_.attachThread("incommunicado-server", provider_->isolate());
  for (;;) {
    i64 msg = 0;
    if (!inc_requests_.pop(&msg, &stop_)) break;
    auto* ref = reinterpret_cast<GlobalRef*>(msg);
    Object* request = ref->obj;
    // Donation-aware transfer (docs/comm.md): the client relinquished the
    // request when it pushed the GlobalRef, so eligible payload nodes are
    // re-keyed to this isolate instead of copied; with comm_zero_copy off
    // this is exactly the old deepCopy.
    Object* copy =
        transferGraph(vm_, t, vm_.isolateById(ref->isolate_id), request);
    vm_.removeGlobalRef(ref);
    i32 result = -1;
    if (copy != nullptr && t->pending_exception == nullptr) {
      JField* f = request_class_->findField("method");
      Object* mname = copy->fields()[f->slot].asRef();
      if (mname != nullptr && mname->str() == "inc") {
        Value r = vm_.callVirtual(t, serviceObject(), "inc", "()I", {});
        if (t->pending_exception == nullptr) result = r.asInt();
      }
    }
    t->pending_exception = nullptr;
    inc_replies_.push(result);
  }
  vm_.detachThread(t);
}

i64 CommHarness::runIncommunicado(i32 n) {
  JThread* t = vm_.mainThread();
  JField* method_f = request_class_->findField("method");
  JField* seq_f = request_class_->findField("seq");
  const i64 start = nowNs();
  i32 result = 0;
  for (i32 i = 0; i < n; ++i) {
    // Build the per-call request object (client side), hand it over, wait.
    LocalRootScope roots(t);
    Object* request = roots.add(vm_.allocObject(t, request_class_));
    IJVM_CHECK(request != nullptr, "request alloc failed");
    Object* mname = roots.add(vm_.newStringObject(t, "inc"));
    request->fields()[method_f->slot] = Value::ofRef(mname);
    request->fields()[seq_f->slot] = Value::ofInt(i);
    GlobalRef* ref = vm_.addGlobalRef(request, fw_.frameworkIsolate());
    inc_requests_.push(reinterpret_cast<i64>(ref));
    i64 reply = 0;
    IJVM_CHECK(inc_replies_.pop(&reply, &stop_), "incommunicado cancelled");
    result = static_cast<i32>(reply);
  }
  const i64 elapsed = nowNs() - start;
  last_value_ = result;
  return elapsed;
}

void CommHarness::rmiServer() {
  JThread* t = vm_.attachThread("rmi-server", provider_->isolate());
  auto server = channelHub(vm_)->accept("rmi.comm.counter", &stop_);
  if (server == nullptr) {
    vm_.detachThread(t);
    return;
  }
  JField* method_f = request_class_->findField("method");
  JField* value_f = reply_class_->findField("value");
  JField* status_f = reply_class_->findField("status");
  for (;;) {
    // Length-prefixed framing, as an RMI transport would do over TCP.
    std::string header;
    size_t len = 0;
    if (!server->readFully(&header, 10, &stop_)) break;
    if (!parseFrameLength(header, &len)) break;
    std::string payload;
    if (!server->readFully(&payload, len, &stop_)) break;

    Object* request = deserializeGraph(vm_, t, payload);
    i32 result = -1;
    if (request != nullptr && t->pending_exception == nullptr) {
      Object* mname = request->fields()[method_f->slot].asRef();
      if (mname != nullptr && mname->str() == "inc") {
        Value r = vm_.callVirtual(t, serviceObject(), "inc", "()I", {});
        if (t->pending_exception == nullptr) result = r.asInt();
      }
    }
    t->pending_exception = nullptr;

    LocalRootScope roots(t);
    Object* reply = roots.add(vm_.allocObject(t, reply_class_));
    reply->fields()[value_f->slot] = Value::ofInt(result);
    reply->fields()[status_f->slot] =
        Value::ofRef(roots.add(vm_.newStringObject(t, "OK")));
    std::string encoded = serializeGraph(vm_, reply);
    const std::string frames[2] = {strf("%09zu\n", encoded.size()),
                                   std::move(encoded)};
    server->writev(frames, 2);
  }
  vm_.detachThread(t);
}

i64 CommHarness::runRmi(i32 n) {
  JThread* t = vm_.mainThread();
  JField* method_f = request_class_->findField("method");
  JField* seq_f = request_class_->findField("seq");
  JField* value_f = reply_class_->findField("value");
  const i64 start = nowNs();
  i32 result = 0;
  for (i32 i = 0; i < n; ++i) {
    LocalRootScope roots(t);
    Object* request = roots.add(vm_.allocObject(t, request_class_));
    IJVM_CHECK(request != nullptr, "request alloc failed");
    Object* mname = roots.add(vm_.newStringObject(t, "inc"));
    request->fields()[method_f->slot] = Value::ofRef(mname);
    request->fields()[seq_f->slot] = Value::ofInt(i);
    std::string encoded = serializeGraph(vm_, request);
    const std::string frames[2] = {strf("%09zu\n", encoded.size()),
                                   std::move(encoded)};
    rmi_channel_->writev(frames, 2);

    std::string header;
    size_t len = 0;
    IJVM_CHECK(rmi_channel_->readFully(&header, 10, &stop_), "rmi cancelled");
    IJVM_CHECK(parseFrameLength(header, &len), "malformed rmi frame header");
    std::string payload;
    IJVM_CHECK(rmi_channel_->readFully(&payload, len, &stop_), "rmi cancelled");
    Object* reply = deserializeGraph(vm_, t, payload);
    IJVM_CHECK(reply != nullptr && t->pending_exception == nullptr,
               vm_.pendingMessage(t));
    result = reply->fields()[value_f->slot].asInt();
  }
  const i64 elapsed = nowNs() - start;
  last_value_ = result;
  return elapsed;
}

}  // namespace ijvm
