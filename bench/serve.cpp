// Request-serving benchmark for zero-copy inter-isolate communication
// (docs/comm.md): what donation and batched channel sends buy a service
// platform that moves messages between bundles all day.
//
// Three measurements, all rows landing in BENCH_serve.json:
//  * donate vs copy -- a 4 KiB primitive-array send through transferGraph
//    with comm_zero_copy on vs off; the copy baseline stays in the file
//    and the speedup row is the headline (target >= 2x: a donation re-keys
//    one header where the copy path allocates, memcpys and charges 4 KiB).
//  * request serving -- a driver isolate fans request payloads out to
//    server isolates on the mutator pool; each server receives the message
//    via transferGraph and runs a guest sum() over it. Throughput and
//    p50/p90/p99 request latency, zero-copy on vs off.
//  * batched sends -- framed messages through a loopback ByteChannel with
//    writev flushes at batch sizes 1/8/64 (one lock + one wakeup per
//    flush, amortized across the batch).
//
// Runs without google-benchmark. --smoke does one tiny rep of everything
// (CI: the JSON must be well-formed; no perf assertions).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "runtime/mutator_pool.h"
#include "stdlib/channels.h"

namespace ijvm::bench {
namespace {

bool g_smoke = false;

// VM with a platform isolate0, a driver (sender) isolate with an attached
// thread, and `servers` receiver isolates, each with a guest
// s<k>/Srv.sum([I)I handler in its own loader.
struct ServeEnv {
  ServeEnv(bool zero_copy, u32 servers, u32 workers) {
    VmOptions opts = VmOptions::isolated();
    opts.comm_zero_copy = zero_copy;
    opts.gc_threshold = 128u << 20;  // keep GC out of the timed paths
    opts.heap_limit = 512u << 20;
    if (workers > 0) opts.mutator_threads = workers;
    vm = std::make_unique<VM>(opts);
    installSystemLibrary(*vm);
    ClassLoader* platform = vm->registry().newLoader("platform");
    vm->createIsolate(platform, "platform");
    ClassLoader* dl = vm->registry().newLoader("driver");
    iso_d = vm->createIsolate(dl, "driver");
    dt = vm->attachThread("driver", iso_d);
    for (u32 k = 0; k < servers; ++k) {
      const std::string name = strf("srv%u", k);
      ClassLoader* loader = vm->registry().newLoader(name);
      ClassBuilder cb(strf("s%u/Srv", k));
      auto& m = cb.method("sum", "([I)I", ACC_PUBLIC | ACC_STATIC);
      Label loop = m.newLabel(), done = m.newLabel();
      m.iconst(0).istore(1).iconst(0).istore(2);
      m.bind(loop).iload(1).aload(0).arraylength().ifIcmpGe(done);
      m.aload(0).iload(1).iaload().iload(2).iadd().istore(2);
      m.iinc(1, 1).gotoLabel(loop);
      m.bind(done).iload(2).ireturn();
      loader->define(cb.build());
      server_loaders.push_back(loader);
      server_isos.push_back(vm->createIsolate(loader, name));
      server_threads.push_back(vm->attachThread(name, server_isos.back()));
    }
  }
  ~ServeEnv() {
    for (JThread* t : server_threads) vm->detachThread(t);
    vm->detachThread(dt);
  }

  Object* newPayload(i32 len) {
    Object* arr =
        vm->allocArrayObject(dt, vm->registry().arrayClass("[I"), len);
    if (arr != nullptr) {
      for (i32 k = 0; k < len; ++k) arr->intElems()[k] = k;
    }
    return arr;
  }

  std::unique_ptr<VM> vm;
  Isolate* iso_d = nullptr;
  JThread* dt = nullptr;
  std::vector<ClassLoader*> server_loaders;
  std::vector<Isolate*> server_isos;
  std::vector<JThread*> server_threads;
};

// ---- donate vs copy: one 4 KiB primitive array per send ----

struct SendCost {
  double per_send_ns = 0;
  double total_ms = 0;
  int sends = 0;
};

SendCost measureSend(bool zero_copy) {
  const int sends = g_smoke ? 64 : 4000;
  const int reps = g_smoke ? 1 : 5;
  ServeEnv env(zero_copy, /*servers=*/1, /*workers=*/0);
  VM& vm = *env.vm;
  JThread* rt = env.server_threads[0];
  i64 best = -1;
  for (int r = 0; r < reps; ++r) {
    // Bound the garbage from previous reps outside the timed region.
    vm.collectGarbage(vm.mainThread(), nullptr);
    i64 sum = 0;
    for (int i = 0; i < sends; ++i) {
      // Building the request is untimed: both modes pay it identically,
      // and the row is the cost of the *send* (a fresh payload per send
      // because a donated array is gone from the sender).
      LocalRootScope roots(env.dt);
      Object* req = roots.add(env.newPayload(1024));  // 4 KiB payload
      const i64 t0 = nowNs();
      Object* got = transferGraph(vm, rt, env.iso_d, req);
      sum += nowNs() - t0;
      if (got == nullptr) vm.clearPending(rt);
      // Received graph is dropped: steady-state serving, not retention.
    }
    if (best < 0 || sum < best) best = sum;
  }
  SendCost c;
  c.sends = sends;
  c.total_ms = static_cast<double>(best) / 1e6;
  c.per_send_ns = static_cast<double>(best) / sends;
  return c;
}

// ---- request serving on the mutator pool ----

struct ServeResult {
  double throughput_rps = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0;
  int requests = 0;
};

double pctile(std::vector<i64>& v, double q) {
  if (v.empty()) return 0;
  const size_t idx =
      std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]) / 1e3;
}

ServeResult measureServing(bool zero_copy) {
  const u32 kServers = 4;
  const int per_server = g_smoke ? 16 : 400;
  const i32 payload_len = 256;  // 1 KiB requests
  ServeEnv env(zero_copy, kServers, /*workers=*/4);
  VM& vm = *env.vm;
  MutatorPool& pool = vm.mutatorPool();
  const int total = static_cast<int>(kServers) * per_server;
  std::vector<i64> latency(static_cast<size_t>(total), 0);
  std::atomic<int> failed{0};

  // Warm the handlers (first call quickens/compiles).
  for (u32 k = 0; k < kServers; ++k) {
    LocalRootScope roots(env.dt);
    Object* warm = roots.add(env.newPayload(payload_len));
    vm.callStaticIn(env.server_threads[k], env.server_loaders[k],
                    strf("s%u/Srv", k), "sum", "([I)I", {Value::ofRef(warm)});
  }
  vm.collectGarbage(vm.mainThread(), nullptr);

  const i64 t_start = nowNs();
  for (int i = 0; i < total; ++i) {
    const u32 k = static_cast<u32>(i) % kServers;
    Object* req = env.newPayload(payload_len);
    if (req == nullptr) {
      failed.fetch_add(1);
      continue;
    }
    // Root the in-flight request until the server picks it up; the ref is
    // dropped by the handler task after the transfer.
    GlobalRef* ref = vm.addGlobalRef(req, env.iso_d);
    ClassLoader* loader = env.server_loaders[k];
    const std::string cls = strf("s%u/Srv", k);
    Isolate* sender = env.iso_d;
    i64* slot = &latency[static_cast<size_t>(i)];
    const i64 t0 = nowNs();
    pool.submit(
        [&vm, sender, req, ref, loader, cls, slot, t0, &failed](JThread* jt) {
          Object* got = transferGraph(vm, jt, sender, req);
          vm.removeGlobalRef(ref);
          if (got == nullptr) {
            vm.clearPending(jt);
            failed.fetch_add(1);
            return;
          }
          LocalRootScope roots(jt);
          roots.add(got);
          vm.callStaticIn(jt, loader, cls, "sum", "([I)I",
                          {Value::ofRef(got)});
          if (jt->pending_exception != nullptr) vm.clearPending(jt);
          *slot = nowNs() - t0;
        },
        env.server_isos[k]);
  }
  pool.drain();
  const i64 wall = nowNs() - t_start;

  ServeResult r;
  r.requests = total - failed.load();
  r.throughput_rps =
      wall > 0 ? static_cast<double>(r.requests) / (static_cast<double>(wall) / 1e9)
               : 0;
  std::sort(latency.begin(), latency.end());
  r.p50_us = pctile(latency, 0.50);
  r.p90_us = pctile(latency, 0.90);
  r.p99_us = pctile(latency, 0.99);
  return r;
}

// ---- batched channel sends ----

struct BatchCost {
  double per_msg_ns = 0;
  double total_ms = 0;
  int messages = 0;
};

BatchCost measureBatch(u32 batch) {
  const int messages = g_smoke ? 256 : 20000;
  const int reps = g_smoke ? 1 : 5;
  const std::string body(512, 'x');
  const std::string header = strf("%09zu\n", body.size());
  auto channel = ByteChannel::loopback();
  std::vector<std::string> frames;
  frames.reserve(2 * batch);
  i64 best = -1;
  for (int r = 0; r < reps; ++r) {
    const i64 t0 = nowNs();
    for (int i = 0; i < messages; ++i) {
      frames.push_back(header);
      frames.push_back(body);
      if (frames.size() >= 2 * static_cast<size_t>(batch)) {
        channel->writev(frames.data(), frames.size());
        frames.clear();
      }
    }
    if (!frames.empty()) {
      channel->writev(frames.data(), frames.size());
      frames.clear();
    }
    const i64 dt = nowNs() - t0;
    if (best < 0 || dt < best) best = dt;
    // Drain outside the timed send loop so the queue stays bounded.
    std::string sink;
    channel->readFully(&sink, static_cast<size_t>(messages) *
                                  (header.size() + body.size()));
  }
  BatchCost c;
  c.messages = messages;
  c.total_ms = static_cast<double>(best) / 1e6;
  c.per_msg_ns = static_cast<double>(best) / messages;
  return c;
}

}  // namespace
}  // namespace ijvm::bench

int main(int argc, char** argv) {
  using namespace ijvm;
  using namespace ijvm::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  BenchJson json;

  printHeader("Zero-copy send: 4 KiB primitive array, donate vs copy");
  SendCost copy = measureSend(/*zero_copy=*/false);
  SendCost donate = measureSend(/*zero_copy=*/true);
  const double speedup =
      donate.per_send_ns > 0 ? copy.per_send_ns / donate.per_send_ns : 0;
  std::printf("%-12s %12s %12s\n", "mode", "per send", "total");
  std::printf("%-12s %9.1f ns %9.2f ms\n", "copy", copy.per_send_ns,
              copy.total_ms);
  std::printf("%-12s %9.1f ns %9.2f ms\n", "donate", donate.per_send_ns,
              donate.total_ms);
  std::printf("speedup: %.2fx (target >= 2x)\n", speedup);
  json.add("serve:copy_4k", {{"per_send_ns", copy.per_send_ns},
                             {"total_ms", copy.total_ms},
                             {"sends", static_cast<double>(copy.sends)}});
  json.add("serve:donate_4k", {{"per_send_ns", donate.per_send_ns},
                               {"total_ms", donate.total_ms},
                               {"sends", static_cast<double>(donate.sends)}});
  json.add("serve:speedup_4k", {{"speedup_vs_copy", speedup}});

  printHeader("Request serving: 4 servers on a 4-worker pool, 1 KiB requests");
  std::printf("%-12s %12s %10s %10s %10s\n", "mode", "req/s", "p50 us",
              "p90 us", "p99 us");
  for (bool zc : {false, true}) {
    ServeResult r = measureServing(zc);
    const char* mode = zc ? "zero-copy" : "copy";
    std::printf("%-12s %12.0f %10.1f %10.1f %10.1f\n", mode, r.throughput_rps,
                r.p50_us, r.p90_us, r.p99_us);
    json.add(strf("serve:pool_%s", zc ? "zero_copy" : "copy"),
             {{"throughput_rps", r.throughput_rps},
              {"p50_us", r.p50_us},
              {"p90_us", r.p90_us},
              {"p99_us", r.p99_us},
              {"requests", static_cast<double>(r.requests)}});
  }

  printHeader("Batched channel sends: 522-byte framed messages");
  std::printf("%-12s %12s %12s\n", "batch", "per msg", "total");
  for (u32 b : {1u, 8u, 64u}) {
    BatchCost c = measureBatch(b);
    std::printf("%-12u %9.1f ns %9.2f ms\n", b, c.per_msg_ns, c.total_ms);
    json.add(strf("serve:batch%u", b),
             {{"per_msg_ns", c.per_msg_ns},
              {"total_ms", c.total_ms},
              {"messages", static_cast<double>(c.messages)}});
  }

  const std::string out_path = bench::benchOutPath("BENCH_serve.json");
  if (!json.write(out_path)) {
    std::printf("failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  // The acceptance bar only applies to real runs; smoke runs are one
  // noisy rep.
  if (!g_smoke) return speedup >= 2.0 ? 0 : 1;
  return 0;
}
