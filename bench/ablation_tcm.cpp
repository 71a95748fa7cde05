// Ablation: decomposing I-JVM's static-access and allocation overhead.
//
// Figure 1's "static variable access" bar bundles two mechanisms: the TCM
// indirection (thread -> isolate -> mirror -> slot) and the initialization
// check that reentrant code cannot elide. The allocation bar bundles
// accounting increments and the memory-limit check. This ablation measures
// the four VM configurations that separate them:
//   baseline           isolation off, accounting off
//   accounting only    isolation off, accounting on
//   isolation only     isolation on,  accounting off
//   full I-JVM         isolation on,  accounting on
#include "bench_util.h"

using namespace ijvm;
using namespace ijvm::bench;

namespace {

struct Config {
  const char* name;
  bool isolation;
  bool accounting;
};

i64 timeMicro(const Config& cfg, const char* method, i32 n, int reps) {
  VmOptions opts;
  opts.isolation = cfg.isolation;
  opts.accounting = cfg.accounting;
  opts.gc_threshold = 64u << 20;
  opts.heap_limit = 512u << 20;
  BenchPlatform p(opts);
  Bundle* b = p.fw->install(makeMicroBundle("micro"));
  p.fw->start(b);
  JThread* t = p.vm->mainThread();
  // Warm-up resolves pool entries.
  p.vm->callStaticIn(t, b->loader(), "micro/Bench", method, "(I)I",
                     {Value::ofInt(std::max(1, n / 16))});
  return bestOf(reps, [&] {
    p.vm->callStaticIn(t, b->loader(), "micro/Bench", method, "(I)I",
                       {Value::ofInt(n)});
    IJVM_CHECK(t->pending_exception == nullptr, p.vm->pendingMessage(t));
  });
}

}  // namespace

int main() {
  const Config configs[] = {
      {"baseline", false, false},
      {"accounting only", false, true},
      {"isolation only", true, false},
      {"full I-JVM", true, true},
  };
  const i32 kStatics = 1000000;
  const i32 kAllocs = 200000;

  // Interleaved passes: allocator/page-cache warm-up then affects every
  // configuration equally; we keep the per-config minimum.
  double stat_ns[4], alloc_ns[4];
  std::fill(std::begin(stat_ns), std::end(stat_ns), 1e18);
  std::fill(std::begin(alloc_ns), std::end(alloc_ns), 1e18);
  for (int pass = 0; pass < 4; ++pass) {
    for (int i = 0; i < 4; ++i) {
      double s =
          static_cast<double>(timeMicro(configs[i], "staticMany", kStatics, 2)) /
          kStatics;
      double a =
          static_cast<double>(timeMicro(configs[i], "allocMany", kAllocs, 2)) /
          kAllocs;
      if (pass == 0) continue;  // throwaway warm-up pass
      stat_ns[i] = std::min(stat_ns[i], s);
      alloc_ns[i] = std::min(alloc_ns[i], a);
    }
  }

  printHeader("Ablation: TCM indirection vs accounting cost decomposition");
  std::printf("%-18s %18s %18s\n", "configuration", "static ns/op",
              "alloc ns/op");
  for (int i = 0; i < 4; ++i) {
    std::printf("%-18s %12.1f (%+.0f%%) %12.1f (%+.0f%%)\n", configs[i].name,
                stat_ns[i], pct(stat_ns[i], stat_ns[0]), alloc_ns[i],
                pct(alloc_ns[i], alloc_ns[0]));
  }
  std::printf("\nshape: static access pays for isolation (the TCM loads),\n"
              "allocation pays mostly for accounting (counters + limit check).\n");
  return 0;
}
