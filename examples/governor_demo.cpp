// Self-healing OSGi platform: the ResourceGovernor as an automated
// administrator (paper section 4.4 leaves this as future work).
//
// Boots an I-JVM platform with four bundles -- two well-behaved services
// and two that turn hostile (a CPU spinner and an allocation churner) --
// then starts the governor with the standard policy and lets it watch the
// per-isolate counters. The governor detects both attacks from the counter
// deltas, kills the offenders through the framework (StoppedBundleEvent +
// isolate termination), and the healthy bundles keep running.
//
//   build/examples/governor_demo
#include <chrono>
#include <cstdio>
#include <thread>

#include "admin/governor.h"
#include "obs/report.h"
#include "osgi/framework.h"
#include "stdlib/system_library.h"
#include "support/strf.h"
#include "workloads/bundles.h"

using namespace ijvm;
using namespace std::chrono;

int main() {
  VmOptions opts = VmOptions::isolated();
  opts.gc_threshold = 1u << 20;
  opts.heap_limit = 64u << 20;
  VM vm(opts);
  installSystemLibrary(vm);
  Framework fw(vm);

  std::printf("booting platform: 2 healthy bundles, 2 soon-to-be-hostile\n");
  Bundle* shop = fw.install(makeWellBehavedBundle("shop.frontend"));
  Bundle* billing = fw.install(makeWellBehavedBundle("billing.engine"));
  Bundle* spinner = fw.install(makeCpuHogBundle("weather.widget"));
  Bundle* churner = fw.install(makeChurnBundle("ad.rotator"));
  for (Bundle* b : {shop, billing, spinner, churner}) fw.start(b);

  ResourceGovernor gov(fw, GovernorPolicy::standard());
  gov.onKill([](const GovernorEvent& ev) {
    std::printf("  !! governor killed '%s' -- rule %s (observed %.2f > %.2f "
                "for %d ticks)\n",
                ev.bundle_name.c_str(), ev.rule_label.c_str(), ev.observed,
                ev.threshold, ev.strikes);
  });
  gov.start(/*period_ms=*/50);
  std::printf("governor watching (50 ms ticks, standard policy)...\n");

  // Let the governor do its job.
  auto deadline = steady_clock::now() + seconds(15);
  while (gov.killed().size() < 2 && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(50));
  }
  gov.stop();

  std::printf("\nwarnings/strikes recorded along the way:\n");
  for (const GovernorEvent& ev : gov.history()) {
    if (ev.acted) continue;  // final actions were printed live
    // A CPU share is only as good as the samples behind it.
    const std::string samples =
        ev.signal == Signal::CpuShare
            ? strf(", %llu cpu samples",
                   static_cast<unsigned long long>(ev.samples))
            : "";
    std::printf("  tick %3llu  %-16s %-12s [%s] observed %10.2f "
                "(threshold %.2f%s, strike %d)\n",
                static_cast<unsigned long long>(ev.tick),
                ev.bundle_name.c_str(), ev.rule_label.c_str(),
                actionName(ev.action), ev.observed, ev.threshold,
                samples.c_str(), ev.strikes);
  }

  std::printf("\nfinal platform state (admin snapshot):\n%s",
              gov.adminSnapshot().c_str());

  const bool healthy_ok = shop->state() == BundleState::Active &&
                          billing->state() == BundleState::Active;
  const bool hostile_gone = spinner->state() == BundleState::Uninstalled &&
                            churner->state() == BundleState::Uninstalled;
  std::printf("\n%s\n", healthy_ok && hostile_gone
                            ? "platform self-healed: offenders terminated, "
                              "services unaffected"
                            : "unexpected end state (see above)");
  vm.shutdownAllThreads();
  return healthy_ok && hostile_gone ? 0 : 1;
}
