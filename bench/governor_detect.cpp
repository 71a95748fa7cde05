// ResourceGovernor detection/containment latency (section 4.4 extension).
//
// The paper relies on a human administrator to read per-isolate counters
// and kill misbehaving bundles; it leaves automation as future work. This
// bench measures how long the automated governor takes, per DoS class, to
// (a) *detect* the attack (first over-threshold event for the offender) and
// (b) *contain* it (offender killed and its threads unwound), while a
// well-behaved bundle keeps running and must survive.
//
// Output: one row per attack class with detect/contain latency and the
// collateral check. Latencies scale with the governor tick period (50 ms
// here) times the per-rule strike count -- the point is that they are tens
// of governor ticks, not human minutes.
#include <atomic>
#include <chrono>
#include <thread>

#include "admin/governor.h"
#include "bench_util.h"
#include "obs/report.h"

using namespace ijvm;
using namespace ijvm::bench;
using namespace std::chrono;

namespace {

constexpr i64 kTickMs = 50;

struct Episode {
  const char* attack;
  double detect_ms = -1;
  double contain_ms = -1;
  double unwound_ms = -1;
  bool control_survived = false;
  const char* rule = "";
};

std::unique_ptr<BenchPlatform> bootGoverned() {
  VmOptions opts = VmOptions::isolated();
  opts.gc_threshold = 1u << 20;
  opts.heap_limit = 64u << 20;
  opts.host_thread_cap = 48;
  return std::make_unique<BenchPlatform>(opts);
}

Episode runEpisode(const char* name, BundleDescriptor attacker_desc,
                   GovernorPolicy policy) {
  Episode ep;
  ep.attack = name;
  auto p = bootGoverned();
  Bundle* control = p->fw->install(makeWellBehavedBundle("control"));
  p->fw->start(control);

  ResourceGovernor gov(*p->fw, std::move(policy));
  // Warm the governor so the attacker's first window is a real delta.
  gov.tick();

  Bundle* attacker = p->fw->install(std::move(attacker_desc));
  p->fw->start(attacker);
  const auto t0 = steady_clock::now();

  auto deadline = t0 + seconds(20);
  std::string kill_rule;
  while (steady_clock::now() < deadline) {
    auto events = gov.tick();
    for (const GovernorEvent& ev : events) {
      if (ev.bundle_id != attacker->id()) continue;
      if (ep.detect_ms < 0) {
        ep.detect_ms =
            duration_cast<microseconds>(steady_clock::now() - t0).count() / 1e3;
      }
      if (ev.acted && ev.action == GovernorAction::Kill) kill_rule = ev.rule_label;
    }
    if (!gov.killed().empty()) {
      ep.contain_ms =
          duration_cast<microseconds>(steady_clock::now() - t0).count() / 1e3;
      break;
    }
    std::this_thread::sleep_for(milliseconds(kTickMs));
  }

  // Wait for the attacker's threads to unwind.
  if (ep.contain_ms >= 0) {
    auto unwind_deadline = steady_clock::now() + seconds(10);
    while (attacker->isolate()->stats.live_threads.load() != 0 &&
           steady_clock::now() < unwind_deadline) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    if (attacker->isolate()->stats.live_threads.load() == 0) {
      ep.unwound_ms =
          duration_cast<microseconds>(steady_clock::now() - t0).count() / 1e3;
    }
  }
  ep.control_survived = control->state() == BundleState::Active &&
                        control->isolate()->isActive();
  static std::string rule_keep;
  rule_keep = kill_rule;
  ep.rule = rule_keep.c_str();

  p->vm->shutdownAllThreads();
  return ep;
}

// Latency columns go through the obs report formatter (obs/report.h) so
// the bench reads like the platform report: humanized units, "-" for a
// phase the episode never reached.
std::string phaseMs(double ms) {
  if (ms < 0) return "-";
  return obs::humanNs(static_cast<u64>(ms * 1e6));
}

void printEpisode(const Episode& ep) {
  std::printf("%-22s %-10s %13s %15s %15s   %s\n", ep.attack, ep.rule,
              phaseMs(ep.detect_ms).c_str(), phaseMs(ep.contain_ms).c_str(),
              phaseMs(ep.unwound_ms).c_str(),
              ep.control_survived ? "yes" : "NO");
}

}  // namespace

int main() {
  printHeader(
      "Governor: automatic DoS detection latency (paper 4.4 future work)");
  std::printf("governor tick period: %lld ms; standard policy\n\n",
              static_cast<long long>(kTickMs));
  std::printf("%-22s %-10s %13s %15s %15s   %s\n", "attack", "rule", "detect",
              "contain", "unwound", "control survived");

  // A6: infinite loop.
  printEpisode(runEpisode("A6 infinite loop", makeCpuHogBundle("atk"),
                          GovernorPolicy::standard()));
  // A4: allocation churn.
  printEpisode(runEpisode("A4 alloc churn", makeChurnBundle("atk"),
                          GovernorPolicy::standard()));
  // A3: memory hog (12 MiB retention against a 2 MiB budget).
  {
    GovernorPolicy pol = GovernorPolicy::standard(2u << 20);
    pol.gc_if_allocated_bytes = 256u << 10;
    printEpisode(runEpisode("A3 memory hog",
                            makeMemoryHogBundle("atk", 16384, 96), pol));
  }
  // A5: thread bomb (12 threads against a budget of 6).
  printEpisode(runEpisode("A5 thread bomb", makeThreadBombBundle("atk", 12),
                          GovernorPolicy::standard(4u << 20, 6)));
  // A7: hanging service -- a caller migrates into the bundle and never
  // returns; the hung-callers signal trips and the kill returns control.
  {
    Episode ep;
    ep.attack = "A7 hanging service";
    auto p = bootGoverned();
    Bundle* control = p->fw->install(makeWellBehavedBundle("control"));
    p->fw->start(control);
    defineCounterApi(*p->fw);
    ResourceGovernor gov(*p->fw, GovernorPolicy::standard());
    gov.tick();

    Bundle* attacker = p->fw->install(makeHangServiceBundle("atk", "svc"));
    Bundle* client = p->fw->install(makeCounterClient("cli", "svc"));
    p->fw->start(attacker);
    p->fw->start(client);

    // The victim call that will hang inside the attacker.
    std::atomic<bool> returned{false};
    std::atomic<i32> result{0};
    JThread* ct = p->vm->attachThread("caller", p->fw->frameworkIsolate());
    VM* vmp = p->vm.get();
    ClassLoader* cl = client->loader();
    std::thread caller([&returned, &result, vmp, ct, cl] {
      Value r = vmp->callStaticIn(ct, cl, bundlePkg("cli") + "/Client",
                                  "callGuarded", "()I", {});
      result.store(r.kind == Kind::Int ? r.asInt() : -2);
      returned.store(true, std::memory_order_release);
      vmp->detachThread(ct);
    });

    const auto t0 = steady_clock::now();
    auto deadline = t0 + seconds(20);
    std::string kill_rule;
    while (steady_clock::now() < deadline && gov.killed().empty()) {
      for (const GovernorEvent& ev : gov.tick()) {
        if (ev.bundle_id != attacker->id()) continue;
        if (ep.detect_ms < 0) {
          ep.detect_ms =
              duration_cast<microseconds>(steady_clock::now() - t0).count() /
              1e3;
        }
        if (ev.acted && ev.action == GovernorAction::Kill)
          kill_rule = ev.rule_label;
      }
      std::this_thread::sleep_for(milliseconds(kTickMs));
    }
    if (!gov.killed().empty()) {
      ep.contain_ms =
          duration_cast<microseconds>(steady_clock::now() - t0).count() / 1e3;
    }
    // "Unwound" here means the hung caller got control back (-1 from the
    // guarded call -- it caught StoppedIsolateException).
    auto unwind_deadline = steady_clock::now() + seconds(10);
    while (!returned.load(std::memory_order_acquire) &&
           steady_clock::now() < unwind_deadline) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    if (returned.load() && result.load() == -1) {
      ep.unwound_ms =
          duration_cast<microseconds>(steady_clock::now() - t0).count() / 1e3;
    }
    caller.join();
    ep.control_survived = control->state() == BundleState::Active;
    static std::string rule_keep7;
    rule_keep7 = kill_rule;
    ep.rule = rule_keep7.c_str();
    p->vm->shutdownAllThreads();
    printEpisode(ep);
  }

  std::printf(
      "\nshape check: every attack detected and contained within seconds\n"
      "(tens of %lld ms governor ticks x strike hysteresis), the control\n"
      "bundle survives every episode. The paper's manual administrator is\n"
      "replaced by the threshold policy of src/admin/governor.h.\n",
      static_cast<long long>(kTickMs));
  return 0;
}
