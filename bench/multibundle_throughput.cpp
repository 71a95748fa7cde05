// Multi-bundle throughput on the mutator pool (docs/concurrency.md).
//
// The service-platform shape the pool exists for: many bundles, each
// handling requests that spend most of their time *waiting* (I/O, timers,
// downstream calls) and only a sliver computing. One mutator serializes
// the waits; N pool workers overlap them. The scenario is deliberately
// wait-bound so the scaling claim holds on a single-core container --
// what is measured is the scheduler's ability to keep bundles in flight,
// not arithmetic throughput.
//
// While the tasks run, the main thread churns the code cache (demote the
// hottest bundle's compiled code, then run the concurrent era-gated
// reclamation pass) to measure reclamation *under load*: the era-lag
// histogram reports how many eras past its target retired code lingered,
// and the time-to-stop histogram proves no stop-the-world grows with the
// worker count (reclaimJitCode never parks the world; only the GCs do).
//
// A second, CPU-bound scenario measures allocation scaling: every task
// runs a guest loop that does nothing but allocate small objects (short
// chains, so most die young and the collector recycles their blocks).
// With per-thread allocation caches the workers share no lock on that
// path; what is left shared is the heap-wide and per-isolate counters and
// the stop-the-world collections. Its rows report wall time, ns per
// allocation (wall time over all allocations, so it falls as workers
// scale) and the speedup over one worker. No gate: the ceiling is the
// host's core count.
//
// Rows land in BENCH_exec.json alongside fig1_micro's: existing rows are
// preserved, previous multibundle:* and multibundle-alloc:* rows are
// replaced.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bytecode/builder.h"
#include "exec/code_cache.h"
#include "obs/trace.h"
#include "runtime/mutator_pool.h"

namespace ijvm::bench {
namespace {

constexpr int kBundles = 8;
constexpr int kTasksPerBundle = 4;
constexpr int kWaitMs = 20;  // per-request downstream wait
constexpr int kReps = 2;

// svc/Handler.handle(I)I -- sleep(arg ms), then a small compute tail.
BundleDescriptor handlerBundle(const std::string& name,
                               const std::string& pkg) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  ClassBuilder cb(pkg + "/Handler");
  auto& m = cb.method("handle", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label head = m.newLabel(), done = m.newLabel();
  m.iload(0).i2l().invokestatic("java/lang/Thread", "sleep", "(J)V");
  m.iconst(0).istore(1);
  m.iconst(0).istore(2);
  m.bind(head).iload(2).iconst(512).ifIcmpGe(done);
  m.iload(1).iload(2).ixor().istore(1);
  m.iinc(2, 1).gotoLabel(head);
  m.bind(done).iload(1).ireturn();
  desc.classes.push_back(cb.build());
  return desc;
}

struct RunResult {
  i64 wall_ns = 0;
  obs::HistSnapshot era_lag;
  obs::HistSnapshot time_to_stop;
};

RunResult runAt(u32 workers) {
  auto p = bootPlatform(/*isolated=*/true, ExecEngine::Jit,
                        [workers](VmOptions& o) {
                          o.mutator_threads = workers;
                          o.fusion_threshold = 0;
                          o.jit_threshold = 0;  // handlers compile up front
                          o.background_compile = false;
                        });
  VM& vm = *p->vm;
  std::vector<Bundle*> bundles;
  for (int k = 0; k < kBundles; ++k) {
    Bundle* b = p->fw->install(
        handlerBundle(strf("svc%d", k), strf("s%d", k)));
    p->fw->start(b);
    bundles.push_back(b);
  }
  // Warm every handler with the sleep site taken (1 ms) so the second
  // call compiles code whose sleep arm is quickened -- no cold-arm deopt.
  JThread* main = vm.mainThread();
  for (int k = 0; k < kBundles; ++k) {
    for (int i = 0; i < 2; ++i) {
      vm.callStaticIn(main, bundles[k]->loader(), strf("s%d/Handler", k),
                      "handle", "(I)I", {Value::ofInt(1)});
    }
  }

  MutatorPool& pool = vm.mutatorPool();
  obs::setTraceEnabled(true);
  obs::resetTrace();
  RunResult res;
  res.wall_ns = bestOf(kReps, [&] {
    const u64 done_before = pool.tasksCompleted();
    for (int t = 0; t < kTasksPerBundle; ++t) {
      for (int k = 0; k < kBundles; ++k) {
        Bundle* b = bundles[k];
        const std::string cls = strf("s%d/Handler", k);
        pool.submit(
            [&vm, b, cls](JThread* jt) {
              vm.callStaticIn(jt, b->loader(), cls, "handle", "(I)I",
                              {Value::ofInt(kWaitMs)});
            },
            b->isolate());
      }
    }
    // Code-cache churn concurrent with the in-flight requests: retire one
    // bundle's compiled code per lap and let the era-gated pass free it
    // once every worker has polled past the arm -- no stop-the-world.
    const u64 target = done_before + kBundles * kTasksPerBundle;
    int lap = 0;
    while (pool.tasksCompleted() < target) {
      exec::demoteLoaderJit(vm, bundles[lap % kBundles]->loader());
      exec::reclaimJitCode(vm);
      ++lap;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pool.drain();
  });
  // Final passes so everything retired mid-run is freed and counted.
  exec::reclaimJitCode(vm);
  exec::reclaimJitCode(vm);
  res.era_lag = obs::latencySnapshot(obs::Lat::ReclaimEraLag);
  res.time_to_stop = obs::latencySnapshot(obs::Lat::SafepointTimeToStop);
  obs::setTraceEnabled(false);
  return res;
}

constexpr int kAllocTasksPerBundle = 2;
constexpr int kAllocsPerTask = 50000;
constexpr int kAllocReps = 3;

// a<k>/Churn.run(I)I -- n allocations of a<k>/Node, each linked to the
// previous one; every 64th drops the chain, so the live set stays small.
BundleDescriptor allocBundle(const std::string& name, const std::string& pkg) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  const std::string node = pkg + "/Node";
  const std::string node_desc = "L" + node + ";";
  ClassBuilder nb(node);
  nb.field("next", node_desc);
  nb.field("v", "I");
  desc.classes.push_back(nb.build());
  ClassBuilder cb(pkg + "/Churn");
  auto& m = cb.method("run", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label loop = m.newLabel(), keep = m.newLabel(), done = m.newLabel();
  m.aconstNull().astore(1);
  m.iconst(0).istore(2);
  m.bind(loop).iload(2).iload(0).ifIcmpGe(done);
  m.newDefault(node).astore(3);
  m.aload(3).aload(1).putfield(node, "next", node_desc);
  m.aload(3).astore(1);
  m.iload(2).iconst(63).iand().ifne(keep);
  m.aconstNull().astore(1);
  m.bind(keep).iinc(2, 1).gotoLabel(loop);
  m.bind(done).iload(2).ireturn();
  desc.classes.push_back(cb.build());
  return desc;
}

struct AllocResult {
  i64 wall_ns = 0;
  u64 allocs = 0;  // per timed rep
  u64 gcs = 0;     // per timed rep, averaged
};

AllocResult runAllocAt(u32 workers) {
  auto p = bootPlatform(/*isolated=*/true, ExecEngine::Jit,
                        [workers](VmOptions& o) {
                          o.mutator_threads = workers;
                          o.gc_threshold = 8u << 20;  // the VM default
                        });
  VM& vm = *p->vm;
  std::vector<Bundle*> bundles;
  for (int k = 0; k < kBundles; ++k) {
    Bundle* b = p->fw->install(allocBundle(strf("alloc%d", k), strf("a%d", k)));
    p->fw->start(b);
    bundles.push_back(b);
  }
  MutatorPool& pool = vm.mutatorPool();
  auto lap = [&] {
    for (int t = 0; t < kAllocTasksPerBundle; ++t) {
      for (int k = 0; k < kBundles; ++k) {
        Bundle* b = bundles[k];
        const std::string cls = strf("a%d/Churn", k);
        pool.submit(
            [&vm, b, cls](JThread* jt) {
              vm.callStaticIn(jt, b->loader(), cls, "run", "(I)I",
                              {Value::ofInt(kAllocsPerTask)});
            },
            b->isolate());
      }
    }
    pool.drain();
  };
  lap();  // warm-up: tiers settle, the block cache fills
  const u64 gcs_before = vm.gcCount();
  AllocResult res;
  res.wall_ns = bestOf(kAllocReps, lap);
  res.allocs = u64{kBundles} * kAllocTasksPerBundle * kAllocsPerTask;
  res.gcs = (vm.gcCount() - gcs_before) / kAllocReps;
  return res;
}

// Keep every existing BENCH_exec.json row except ours, then append ours:
// fig1_micro owns the file's other rows and rewrites it wholesale, so
// this bench must merge, not clobber.
void mergeInto(const std::string& path, const BenchJson& ours) {
  std::vector<std::string> kept;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("{\"name\": \"") == std::string::npos) continue;
    if (line.find("\"multibundle") != std::string::npos) continue;
    if (line.back() == ',') line.pop_back();
    kept.push_back(line);
  }
  in.close();
  for (const std::string& row : ours.rows()) kept.push_back(row);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("failed to write %s\n", path.c_str());
    return;
  }
  std::fputs("[\n", f);
  for (size_t i = 0; i < kept.size(); ++i) {
    std::fputs(kept[i].c_str(), f);
    std::fputs(i + 1 < kept.size() ? ",\n" : "\n", f);
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace ijvm::bench

int main() {
  using namespace ijvm;
  using namespace ijvm::bench;

  printHeader(strf("Multi-bundle throughput: %d bundles x %d requests, "
                   "%d ms wait each, mutator pool at 1/2/4 workers",
                   kBundles, kTasksPerBundle, kWaitMs)
                  .c_str());
  std::printf("%-8s %12s %10s %14s %16s\n", "workers", "wall ms", "speedup",
              "era-lag p99", "time-to-stop p99");

  BenchJson json;
  double t1_ms = 0.0;
  double speedup4 = 0.0;
  for (u32 w : {1u, 2u, 4u}) {
    RunResult r = runAt(w);
    const double ms = static_cast<double>(r.wall_ns) / 1e6;
    if (w == 1) t1_ms = ms;
    const double speedup = ms > 0 ? t1_ms / ms : 0.0;
    if (w == 4) speedup4 = speedup;
    std::printf("%-8u %12.1f %9.2fx %14llu %13.2f ms\n", w, ms, speedup,
                static_cast<unsigned long long>(r.era_lag.p99_ns),
                static_cast<double>(r.time_to_stop.p99_ns) / 1e6);
    json.add(strf("multibundle:w%u", w),
             {{"wall_ms", ms},
              {"speedup_vs_w1", speedup},
              {"era_lag_p99", static_cast<double>(r.era_lag.p99_ns)},
              {"era_lag_samples", static_cast<double>(r.era_lag.count)},
              {"tts_p99_ms",
               static_cast<double>(r.time_to_stop.p99_ns) / 1e6},
              {"bundles", static_cast<double>(kBundles)},
              {"tasks_per_bundle", static_cast<double>(kTasksPerBundle)},
              {"wait_ms", static_cast<double>(kWaitMs)}});
  }
  std::printf("\n4-worker speedup vs 1: %.2fx (target >= 2.5x; wait-bound "
              "by construction)\n",
              speedup4);
  json.add("multibundle:speedup", {{"speedup_4w_vs_1w", speedup4}});

  printHeader(strf("Allocation scaling: %d bundles x %d tasks x %d allocations, "
                   "mutator pool at 1/2/4 workers",
                   kBundles, kAllocTasksPerBundle, kAllocsPerTask)
                  .c_str());
  std::printf("%-8s %12s %14s %10s %8s\n", "workers", "wall ms", "ns/alloc",
              "speedup", "GCs");
  double alloc_t1_ms = 0.0;
  for (u32 w : {1u, 2u, 4u}) {
    AllocResult r = runAllocAt(w);
    const double ms = static_cast<double>(r.wall_ns) / 1e6;
    if (w == 1) alloc_t1_ms = ms;
    const double speedup = ms > 0 ? alloc_t1_ms / ms : 0.0;
    const double ns_per_alloc =
        static_cast<double>(r.wall_ns) / static_cast<double>(r.allocs);
    std::printf("%-8u %12.1f %14.1f %9.2fx %8llu\n", w, ms, ns_per_alloc, speedup,
                static_cast<unsigned long long>(r.gcs));
    json.add(strf("multibundle-alloc:w%u", w),
             {{"wall_ms", ms},
              {"ns_per_alloc", ns_per_alloc},
              {"speedup_vs_w1", speedup},
              {"allocs", static_cast<double>(r.allocs)},
              {"gcs_per_rep", static_cast<double>(r.gcs)},
              {"reps", static_cast<double>(kAllocReps)}});
  }
  mergeInto(benchOutPath("BENCH_exec.json"), json);
  return speedup4 >= 2.5 ? 0 : 1;
}
