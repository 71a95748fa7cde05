// Ablation: CPU-sampling rate vs attribution quality.
//
// The paper chose sampling over per-call timing because two syscalls plus a
// lock per inter-isolate call are too expensive (section 3.2). This bench
// quantifies the trade-off on this implementation: for several sampling
// rates (VmOptions::profile_hz -- the profiler tick is the section-3.2
// sampler), two bundles spin concurrently for a fixed wall-clock window and
// we report how far the cpu_samples split is from the ideal 50/50.
#include "bench_util.h"

using namespace ijvm;
using namespace ijvm::bench;

namespace {

struct SpinSetup {
  std::unique_ptr<BenchPlatform> platform;
  Bundle* a = nullptr;
  Bundle* b = nullptr;

  explicit SpinSetup(u32 profile_hz) {
    VmOptions opts = VmOptions::isolated();
    opts.profile_hz = profile_hz;
    platform = std::make_unique<BenchPlatform>(opts);
    BundleDescriptor da = makeMicroBundle("spin.a");
    BundleDescriptor db = makeMicroBundle("spin.b");
    // Rename the class of the second bundle to avoid loader collisions --
    // each bundle has its own loader, so identical names are fine.
    a = platform->fw->install(std::move(da));
    b = platform->fw->install(std::move(db));
    platform->fw->start(a);
    platform->fw->start(b);
  }

  // Runs spinFor on both bundles from two threads for roughly `ms`.
  void spinBoth(i64 ms) {
    auto run = [&](Bundle* bundle, const char* name) {
      JThread* t = platform->vm->attachThread(name, platform->fw->frameworkIsolate());
      auto deadline = nowNs() + ms * 1000000;
      while (nowNs() < deadline) {
        platform->vm->callStaticIn(t, bundle->loader(), "micro/Bench", "spinFor",
                                   "(I)I", {Value::ofInt(20000)});
        t->pending_exception = nullptr;
      }
      platform->vm->detachThread(t);
    };
    std::thread ta([&] { run(a, "spin-a"); });
    std::thread tb([&] { run(b, "spin-b"); });
    ta.join();
    tb.join();
  }
};

}  // namespace

int main() {
  printHeader("Ablation: CPU sampling rate vs attribution accuracy");
  std::printf("%-12s %10s %10s %12s %14s\n", "rate", "A samples", "B samples",
              "split error", "samples/sec");
  for (u32 hz : {250u, 500u, 1000u, 2000u, 4000u}) {
    SpinSetup setup(hz);
    setup.spinBoth(400);
    u64 sa = setup.a->isolate()->stats.cpu_samples.load();
    u64 sb = setup.b->isolate()->stats.cpu_samples.load();
    u64 total = sa + sb;
    double err = total > 0
                     ? std::abs(50.0 - 100.0 * static_cast<double>(sa) /
                                           static_cast<double>(total))
                     : 100.0;
    std::printf("%9u Hz %10llu %10llu %11.1f%% %14.0f\n", hz,
                static_cast<unsigned long long>(sa),
                static_cast<unsigned long long>(sb), err, total / 0.4);
  }
  std::printf("\nshape: higher rates gather more samples (better confidence)\n"
              "at higher sampler overhead; all rates keep the split near the\n"
              "scheduler's actual time division.\n");
  return 0;
}
