#include "obs/report.h"

#include "exec/code_cache.h"
#include "exec/compile_manager.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/mutator_pool.h"
#include "runtime/vm.h"
#include "support/strf.h"

namespace ijvm::obs {

namespace {

const char* stateName(IsolateState s) {
  switch (s) {
    case IsolateState::Active: return "active";
    case IsolateState::Terminating: return "terminating";
    case IsolateState::Dead: return "dead";
  }
  return "?";
}

}  // namespace

std::string humanBytes(u64 bytes) {
  if (bytes < 1024) return strf("%llu B", static_cast<unsigned long long>(bytes));
  const char* units[] = {"KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes) / 1024.0;
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  return strf("%.1f %s", v, units[u]);
}

std::string humanNs(u64 ns) {
  if (ns < 1000) return strf("%llu ns", static_cast<unsigned long long>(ns));
  if (ns < 1000 * 1000) return strf("%.1f us", static_cast<double>(ns) / 1e3);
  if (ns < 1000ull * 1000 * 1000) {
    return strf("%.1f ms", static_cast<double>(ns) / 1e6);
  }
  return strf("%.2f s", static_cast<double>(ns) / 1e9);
}

std::string isolateTable(const std::vector<IsolateReport>& reports) {
  std::string out;
  // Both CPU columns come from the profiler tick (obs/profiler.h):
  // "cpu-smpls" is the paper's section-3.2 charge (the running thread's
  // current isolate, unbiased); "prof-smpls" is the safepoint-biased
  // leaf count of the published stack samples.
  // "donated in/out" are the PR-8 ownership-transfer totals -- bytes whose
  // memory charge moved between bundles via transferGraph.
  out += strf("  %3s  %-18s %-11s %10s %10s %10s %10s %12s %8s %9s %10s %10s\n",
              "id", "isolate", "state", "charged", "cpu-smpls", "prof-smpls",
              "allocs", "alloc-bytes", "threads", "calls-in", "donated-in",
              "donated-out");
  for (const IsolateReport& r : reports) {
    out += strf(
        "  %3d  %-18s %-11s %10s %10llu %10llu %10llu %12s %8lld %9llu %10s "
        "%10s\n",
        r.id, r.name.c_str(), stateName(r.state),
        humanBytes(r.bytes_charged).c_str(),
        static_cast<unsigned long long>(r.cpu_samples),
        static_cast<unsigned long long>(r.cpu_profile_samples),
        static_cast<unsigned long long>(r.objects_allocated),
        humanBytes(r.bytes_allocated).c_str(),
        static_cast<long long>(r.live_threads),
        static_cast<unsigned long long>(r.calls_in),
        humanBytes(r.bytes_donated_in).c_str(),
        humanBytes(r.bytes_donated_out).c_str());
  }
  return out;
}

std::string jitTable(const std::vector<IsolateReport>& reports) {
  std::string out;
  out += strf("  %3s  %-18s %9s %9s %11s %12s %11s %10s\n", "id", "isolate",
              "compiled", "demoted", "code-bytes", "osr-refused", "recompiles",
              "payoff-dem");
  for (const IsolateReport& r : reports) {
    out += strf("  %3d  %-18s %9llu %9llu %11s %12llu %11llu %10llu\n", r.id,
                r.name.c_str(),
                static_cast<unsigned long long>(r.jit_methods_compiled),
                static_cast<unsigned long long>(r.jit_methods_demoted),
                humanBytes(r.jit_code_bytes > 0
                               ? static_cast<u64>(r.jit_code_bytes)
                               : 0)
                    .c_str(),
                static_cast<unsigned long long>(r.osr_refused_transfers),
                static_cast<unsigned long long>(r.jit_recompile_requests),
                static_cast<unsigned long long>(r.jit_payoff_demotions));
  }
  return out;
}

std::string codeCacheSection(VM& vm) {
  const exec::CodeCacheStats cc = exec::codeCacheStats(vm);
  const u32 queue = exec::compileQueueDepth(vm);
  std::string out;
  out += strf("  installed: %u methods, %s (budget %s); retired awaiting "
              "sweep: %s\n",
              cc.installed_methods, humanBytes(cc.installed_bytes).c_str(),
              vm.options().code_cache_budget == 0
                  ? "unlimited"
                  : humanBytes(vm.options().code_cache_budget).c_str(),
              humanBytes(cc.retired_bytes).c_str());
  out += strf("  compiles: %llu (%llu background), demotions: %llu, deopt "
              "invalidations: %llu, reclaimed: %llu\n",
              static_cast<unsigned long long>(cc.compiles),
              static_cast<unsigned long long>(cc.background_compiles),
              static_cast<unsigned long long>(cc.demotions),
              static_cast<unsigned long long>(cc.deopt_invalidations),
              static_cast<unsigned long long>(cc.reclaimed));
  out += strf("  compile queue depth: %u (pending + building + awaiting "
              "install)\n",
              queue);
  return out;
}

std::string latencySection() {
  std::string out;
  for (u8 i = 0; i < static_cast<u8>(Lat::Count); ++i) {
    const Lat l = static_cast<Lat>(i);
    const HistSnapshot s = latencySnapshot(l);
    if (s.count == 0) continue;
    if (out.empty()) {
      out += strf("  %-28s %8s %10s %10s %10s %10s\n", "path", "samples",
                  "p50", "p90", "p99", "max");
    }
    // ReclaimEraLag counts *eras* and DonatedBytes counts *bytes*, not
    // nanoseconds: a histogram fed in a different unit must not be
    // rendered through humanNs.
    auto fmt = [l](u64 v) {
      return l == Lat::ReclaimEraLag || l == Lat::DonatedBytes
                 ? strf("%llu", static_cast<unsigned long long>(v))
                 : humanNs(v);
    };
    out += strf("  %-28s %8llu %10s %10s %10s %10s\n", latName(l),
                static_cast<unsigned long long>(s.count),
                fmt(s.p50_ns).c_str(), fmt(s.p90_ns).c_str(),
                fmt(s.p99_ns).c_str(), fmt(s.max_ns).c_str());
  }
  return out;
}

std::string platformReport(VM& vm) {
  std::vector<IsolateReport> reports = vm.reportAll();
  std::string out;
  out += "=== I-JVM platform report ===\n";
  out += "resources (charges recomputed at GC; paper section 3.2):\n";
  out += isolateTable(reports);
  out += "jit code (per-isolate, charged to the defining bundle):\n";
  out += jitTable(reports);
  out += "code cache:\n";
  out += codeCacheSection(vm);
  if (MutatorPool* pool = vm.mutatorPoolIfStarted()) {
    out += "mutator pool:\n";
    out += strf("  workers: %zu, tasks completed: %llu, steals: %llu\n",
                pool->workerCount(),
                static_cast<unsigned long long>(pool->tasksCompleted()),
                static_cast<unsigned long long>(pool->steals()));
  }
  const std::string lat = latencySection();
  if (!lat.empty()) {
    out += "latency histograms (log-bucketed; values are bucket midpoints):\n";
    out += lat;
  }
  if (Profiler* prof = vm.profiler()) out += prof->attributionSection();
  return out;
}

}  // namespace ijvm::obs
