// Safepoint-aware sampling profiler with per-isolate CPU attribution
// (docs/observability.md, "Sampling profiler").
//
// The paper's resource-accounting story (section 3.2) charges CPU by
// sampling the isolate reference of running threads; that tells an
// administrator *who* is burning time but not *where* or *in which tier*.
// On this codebase the bytecode-side profile counters are systematically
// blind: tier-3 compiled code, OSR'd loops, GC, compile workers and
// channel pumps all burn wall-clock the counters never see. The profiler
// closes that gap with stack samples.
//
// Sampling discipline (the reason this needs no stop-the-world):
//   * a dedicated sampler thread ticks at VmOptions::profile_hz. It never
//     touches another thread's frames -- the frame deque is owner- or
//     world-stopped-only (runtime/jthread.h). Instead it *requests* a
//     sample: one relaxed store into the target thread's request counter,
//     at most one outstanding per thread;
//   * the target thread honors the request at its next safepoint poll
//     site (interpreter back-edge/entry, compiled-code poll, classic
//     loop) by walking its *own* frame chain -- always coherent for the
//     owner -- and publishing the sample into its own lock-free ring.
//     A thread mid-unsafe-region simply samples a few microseconds late
//     (the classic safepoint bias, documented in docs/observability.md);
//   * threads parked in blocking natives are Blocked and are not
//     requested -- wait time is not CPU time;
//   * host threads without guest frames (compile workers, the GC bracket,
//     channel pumps) publish an *activity slot* (kind, isolate, label)
//     the sampler reads directly -- plain atomics, no frames involved.
//
// Rings are seqlock slot rings exactly like the trace's (obs/trace.h):
// single owner-writer, any number of snapshot readers, wrap keeps the
// newest. Aggregation (folded stacks, the CPU-attribution report table,
// per-isolate share counters) happens entirely on the reader side.
//
// The tick is also the paper's section-3.2 CPU sampler: while it visits
// every Running guest thread it charges one cpu_samples tick to that
// thread's current isolate (with VmOptions::accounting). That counter is
// wall-clock and unbiased by safepoints; cpu_profile_samples is the
// poll-site-biased count published with each stack sample. This is the
// VM's only sampler thread; VmOptions::profile_hz = 0 turns both off.
#pragma once

#include <string>
#include <vector>

#include "support/common.h"

namespace ijvm {
class VM;
class JThread;
}  // namespace ijvm

namespace ijvm::obs {

// Execution tier a sampled frame was running in. Values mirror
// Frame::tier (runtime/jthread.h), which the engines stamp on entry and
// at tier transitions (OSR, deopt).
enum class SampleTier : u8 {
  Unknown = 0,
  Classic,    // original single-switch interpreter
  Quickened,  // direct-threaded quickened stream
  Fused,      // superinstruction tier
  Jit,        // tier-3 call-threaded compiled code, entered at method entry
  Osr,        // tier-3 entered mid-invocation via on-stack replacement
  Count,
};

// What kind of thread a sample came from.
enum class SampleThreadKind : u8 {
  Mutator = 0,  // guest thread / pool worker walking real frames
  Compiler,     // compile-manager worker building code
  Gc,           // the thread driving a stop-the-world collection
  Pump,         // channel pump / comm shuttle threads
  Other,
  Count,
};

const char* tierName(SampleTier t);
// Short suffix used in folded-stack frames ("@jit", "@fused", ...).
const char* tierTag(SampleTier t);
const char* threadKindName(SampleThreadKind k);

// One decoded sample (reader-side representation).
struct ProfileSample {
  u64 ts_ns = 0;     // obs/clock.h epoch, comparable with trace spans
  i32 isolate = -1;  // isolate of the leaf frame; -1 = platform-wide
  SampleThreadKind kind = SampleThreadKind::Mutator;
  bool truncated = false;  // stack deeper than the slot, middle dropped
  // Root-first frames: interned name ids (profileNameOf) + tiers.
  std::vector<u32> name_ids;
  std::vector<SampleTier> tiers;
};

// Interns a frame/activity name. Unlike the trace interner this table is
// never reset: ids are cached on JMethod records that outlive any
// profiler reset, so a reset must not dangle them. Lock-taking -- cold
// paths only (first sample of a method, activity registration).
u32 profileNameId(const std::string& name);
std::string profileNameOf(u32 id);

// The per-VM sampling profiler. Owned by the VM (VM::profiler()); the
// sampler thread runs only between start(hz) and stop(), but manual
// driving via tickOnce() works with no thread at all (tests, benches).
class Profiler {
 public:
  explicit Profiler(VM& vm);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Spawns the sampler thread at `hz` samples/sec (no-op if hz == 0 or
  // already started). stop() joins; safe to call repeatedly.
  void start(u32 hz);
  void stop();

  // Runtime gate shared by the thread and manual ticking: when disabled,
  // ticks do nothing and poll sites never see a request (benches measure
  // on-vs-off against exactly this switch).
  void setEnabled(bool on);
  bool enabled() const;

  // One sampling pass: request a self-sample from every Running guest
  // thread and charge its current isolate one cpu_samples tick (with
  // VmOptions::accounting), sample active host-activity slots directly,
  // roll the CPU-share window every kWindowTicks ticks. Called by the
  // sampler thread each period; tests call it manually for determinism.
  void tickOnce();

  // Ring capacity (slots) for rings created after the call; tests shrink
  // it to force wrap.
  void setRingCapacity(u32 slots);

  // ---- aggregated attribution ----
  u64 totalSamples() const;
  u64 isolateSamples(i32 id) const;
  // CPU share over the last closed window (0..1); falls back to the
  // cumulative share before the first window closes. The same series the
  // governor's Signal::CpuShare consumes (via IsolateReport deltas) and
  // the window roll exports as Perfetto counter tracks.
  double cpuShare(i32 id) const;

  // All currently-readable samples, merged across rings (ts order).
  std::vector<ProfileSample> snapshot();

  // Collapsed-stack text, flamegraph.pl-compatible:
  //   <isolate>;<kind>;pkg/Cls.m(desc)@tier;... <count>\n
  std::string dumpFoldedStacks();

  // The "CPU attribution" table for obs::platformReport: per-isolate
  // %time + sample counts, tier mix, top-5 hot leaf methods.
  std::string attributionSection();

  // Forgets samples and counters. Rings of live threads are retired (not
  // freed), exactly like resetTrace; interned names survive.
  void reset();

  // Owner-thread slow path behind IJVM_PROFILE_POLL: acknowledges the
  // pending request and publishes a sample of the calling thread's own
  // frame chain. Must only be called by `t`'s owner at a poll site.
  void selfSample(JThread* t);

  // Activity-slot registration (host threads without guest frames); used
  // via ProfileActivityScope. Returns a slot index or -1 when full.
  int activityBegin(SampleThreadKind kind, i32 isolate, const char* what);
  void activityEnd(int slot);

  // Ticks between CPU-share window rolls (exposed for tests).
  static constexpr u32 kWindowTicks = 32;

  // Public so the translation unit's free helpers (ring publication and
  // readers) can name it; the definition stays in profiler.cpp.
  struct Impl;

 private:
  Impl* impl_;  // raw: selfSample may run on guest threads until ~VM joins
};

// RAII activity bracket for host threads the frame walk cannot see:
//   ProfileActivityScope act(vm, SampleThreadKind::Compiler, iso_id,
//                            "compile pkg/Cls.m");
// Samples taken while the scope is open are attributed to (kind,
// isolate) with the label as their single frame.
class ProfileActivityScope {
 public:
  ProfileActivityScope(VM& vm, SampleThreadKind kind, i32 isolate,
                       const char* what);
  ~ProfileActivityScope();
  ProfileActivityScope(const ProfileActivityScope&) = delete;
  ProfileActivityScope& operator=(const ProfileActivityScope&) = delete;

 private:
  Profiler* profiler_ = nullptr;
  int slot_ = -1;
};

// Poll-site check: one relaxed load of the calling thread's own request
// counter (adjacent to the fields every poll already touches); the slow
// path runs only while a sampler tick is in flight for this thread.
// `vmref` must be the thread's VM.
#define IJVM_PROFILE_POLL(vmref, tptr)                                        \
  do {                                                                        \
    if ((tptr)->profile_requests.load(std::memory_order_relaxed) !=           \
        (tptr)->profile_taken.load(std::memory_order_relaxed)) {              \
      if (::ijvm::obs::Profiler* ijvm_prof = (vmref).profiler()) {            \
        ijvm_prof->selfSample(tptr);                                          \
      }                                                                       \
    }                                                                         \
  } while (0)

}  // namespace ijvm::obs
