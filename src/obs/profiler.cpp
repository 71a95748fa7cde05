// Sampling profiler: request/self-sample handshake, per-thread sample
// rings, CPU attribution and flame-graph export. Contract in profiler.h
// and docs/observability.md ("Sampling profiler").
#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/compile_manager.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "runtime/vm.h"
#include "support/strf.h"

namespace ijvm::obs {

const char* tierName(SampleTier t) {
  switch (t) {
    case SampleTier::Unknown: return "unknown";
    case SampleTier::Classic: return "classic";
    case SampleTier::Quickened: return "quickened";
    case SampleTier::Fused: return "fused";
    case SampleTier::Jit: return "jit";
    case SampleTier::Osr: return "osr";
    case SampleTier::Count: break;
  }
  return "?";
}

const char* tierTag(SampleTier t) {
  switch (t) {
    case SampleTier::Unknown: return "";
    case SampleTier::Classic: return "@classic";
    case SampleTier::Quickened: return "@quick";
    case SampleTier::Fused: return "@fused";
    case SampleTier::Jit: return "@jit";
    case SampleTier::Osr: return "@osr";
    case SampleTier::Count: break;
  }
  return "";
}

const char* threadKindName(SampleThreadKind k) {
  switch (k) {
    case SampleThreadKind::Mutator: return "mutator";
    case SampleThreadKind::Compiler: return "compiler";
    case SampleThreadKind::Gc: return "gc";
    case SampleThreadKind::Pump: return "pump";
    case SampleThreadKind::Other: return "other";
    case SampleThreadKind::Count: break;
  }
  return "?";
}

// ---- never-reset name interner ----------------------------------------
//
// Process-wide (not per-Profiler): JMethod::profile_name_id caches ids on
// class-model records that several VMs in one process may share a build
// of, and nothing ever invalidates them. Append-only by construction.

namespace {

struct NameTable {
  std::mutex mu;
  std::unordered_map<std::string, u32> ids;
  std::deque<std::string> names;  // id -> string (id 0 = "")
};

NameTable& nameTable() {
  static NameTable* t = new NameTable();  // never destroyed: JMethod caches
  return *t;                              // ids past static teardown order
}

}  // namespace

u32 profileNameId(const std::string& name) {
  NameTable& t = nameTable();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  if (t.names.empty()) t.names.push_back("");  // id 0 = unnamed
  const u32 id = static_cast<u32>(t.names.size());
  t.names.push_back(name);
  t.ids.emplace(name, id);
  return id;
}

std::string profileNameOf(u32 id) {
  NameTable& t = nameTable();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id == 0 || id >= t.names.size()) return {};
  return t.names[id];
}

// ---- sample rings ------------------------------------------------------

namespace {

constexpr u32 kMaxDepth = 24;          // frames kept per sample
constexpr u32 kRootKeep = 8;           // root-side frames kept on overflow
constexpr u32 kDefaultRingSlots = 2048;
constexpr u32 kActivitySlots = 64;

// Isolate-id -> counter-slot mapping: ids 0..63 map directly, negative
// (platform work) and overflow ids share two catch-all buckets.
constexpr u32 kIsoSlots = 64;
constexpr u32 kPlatformSlot = kIsoSlots;      // isolate == -1
constexpr u32 kOverflowSlot = kIsoSlots + 1;  // isolate >= 64
constexpr u32 kCounterSlots = kIsoSlots + 2;

u32 slotFor(i32 isolate) {
  if (isolate < 0) return kPlatformSlot;
  if (static_cast<u32>(isolate) >= kIsoSlots) return kOverflowSlot;
  return static_cast<u32>(isolate);
}

// One seqlock sample slot; the publish protocol is the trace ring's
// (obs/trace.cpp Slot): invalidate, relaxed payload stores, release-store
// seq = write-index + 1. Readers reject a slot whose seq moved.
struct SampleSlot {
  std::atomic<u64> seq{0};
  std::atomic<u64> ts{0};
  std::atomic<i32> isolate{-1};
  std::atomic<u8> kind{0};
  std::atomic<u8> depth{0};
  std::atomic<u8> truncated{0};
  std::atomic<u32> names[kMaxDepth] = {};
  std::atomic<u8> tiers[kMaxDepth] = {};
};

// One thread's sample ring: single writer (the owning thread -- guest
// self-samples, or the tick driver for activity samples), any readers.
struct SampleRing {
  SampleRing(u32 tid_, u32 cap) : tid(tid_), slots(cap) {}
  const u32 tid;
  std::vector<SampleSlot> slots;
  std::atomic<u64> next{0};  // monotonic write count, owner-written
};

// Host-thread activity slot (compile workers, the GC bracket, pumps).
// Claimed with a CAS on `busy`, published/retired by bumping `seq` (odd =
// open); the sampler validates its field reads with a seq re-check.
struct ActivitySlot {
  std::atomic<bool> busy{false};
  std::atomic<u32> seq{0};
  std::atomic<i32> isolate{-1};
  std::atomic<u8> kind{0};
  std::atomic<u32> name{0};
};

// One decoded pending sample, before ring publication.
struct PendingSample {
  u64 ts = 0;
  i32 isolate = -1;
  SampleThreadKind kind = SampleThreadKind::Mutator;
  bool truncated = false;
  u32 depth = 0;
  u32 names[kMaxDepth];
  u8 tiers[kMaxDepth];
};

SampleTier tierOfFrame(const Frame& f) {
  return static_cast<SampleTier>(static_cast<u8>(f.tier));
}

}  // namespace

struct Profiler::Impl {
  explicit Impl(VM& vm_ref) : vm(vm_ref) {}

  VM& vm;
  const u64 instance = nextInstanceId();

  std::atomic<bool> enabled{true};

  // Sampler thread (start/stop); tick_mu serializes tickOnce so a test
  // driving manual ticks cannot interleave with a late thread tick.
  std::thread sampler;
  std::atomic<bool> stop_flag{false};
  std::mutex tick_mu;

  // Ring registry (mirrors obs/trace.cpp TraceState).
  std::mutex mu;
  std::deque<std::unique_ptr<SampleRing>> rings;
  std::deque<std::unique_ptr<SampleRing>> retired;  // kept alive after reset
  u32 next_tid = 1;
  u32 ring_slots = kDefaultRingSlots;
  std::atomic<u64> epoch{1};

  ActivitySlot activity[kActivitySlots];

  // Cumulative attribution counters.
  std::atomic<u64> total_samples{0};
  std::atomic<u64> iso_samples[kCounterSlots] = {};
  std::atomic<u64> kind_samples[static_cast<size_t>(SampleThreadKind::Count)] =
      {};

  // CPU-share window: every kWindowTicks ticks the roller diffs the
  // cumulative counters against window_prev and publishes per-mille
  // shares. tick-mutex-guarded writers, atomic per-mille for readers.
  u64 tick_count = 0;
  u64 window_prev[kCounterSlots] = {};
  std::atomic<u32> window_share_pm[kCounterSlots] = {};
  std::atomic<u64> window_total_delta{0};

  static u64 nextInstanceId() {
    static std::atomic<u64> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
};

namespace {

// Thread-local ring cache keyed by (profiler instance, reset epoch) --
// instance ids, not pointers, so a Profiler reallocated at a dead one's
// address cannot inherit a stale ring.
struct TlRing {
  u64 instance = 0;
  u64 epoch = 0;
  SampleRing* ring = nullptr;
};
thread_local TlRing tl_ring;

SampleRing& ringOf(Profiler::Impl& s) {
  const u64 epoch = s.epoch.load(std::memory_order_acquire);
  if (tl_ring.ring == nullptr || tl_ring.instance != s.instance ||
      tl_ring.epoch != epoch) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.rings.push_back(std::make_unique<SampleRing>(s.next_tid++, s.ring_slots));
    tl_ring.ring = s.rings.back().get();
    tl_ring.instance = s.instance;
    tl_ring.epoch = s.epoch.load(std::memory_order_relaxed);
  }
  return *tl_ring.ring;
}

void publishSample(Profiler::Impl& s, const PendingSample& p) {
  SampleRing& r = ringOf(s);
  const u64 idx = r.next.load(std::memory_order_relaxed);
  SampleSlot& slot = r.slots[idx % r.slots.size()];
  slot.seq.store(0, std::memory_order_release);  // invalidate for readers
  slot.ts.store(p.ts, std::memory_order_relaxed);
  slot.isolate.store(p.isolate, std::memory_order_relaxed);
  slot.kind.store(static_cast<u8>(p.kind), std::memory_order_relaxed);
  slot.depth.store(static_cast<u8>(p.depth), std::memory_order_relaxed);
  slot.truncated.store(p.truncated ? 1 : 0, std::memory_order_relaxed);
  for (u32 i = 0; i < p.depth; ++i) {
    slot.names[i].store(p.names[i], std::memory_order_relaxed);
    slot.tiers[i].store(p.tiers[i], std::memory_order_relaxed);
  }
  slot.seq.store(idx + 1, std::memory_order_release);
  r.next.store(idx + 1, std::memory_order_release);

  s.total_samples.fetch_add(1, std::memory_order_relaxed);
  s.iso_samples[slotFor(p.isolate)].fetch_add(1, std::memory_order_relaxed);
  s.kind_samples[static_cast<size_t>(p.kind)].fetch_add(
      1, std::memory_order_relaxed);
}

void readRing(const SampleRing& r, std::vector<ProfileSample>* out) {
  for (const SampleSlot& slot : r.slots) {
    const u64 seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 == 0) continue;  // empty or mid-write
    ProfileSample p;
    p.ts_ns = slot.ts.load(std::memory_order_relaxed);
    p.isolate = slot.isolate.load(std::memory_order_relaxed);
    p.kind = static_cast<SampleThreadKind>(
        slot.kind.load(std::memory_order_relaxed));
    p.truncated = slot.truncated.load(std::memory_order_relaxed) != 0;
    u32 depth = slot.depth.load(std::memory_order_relaxed);
    depth = std::min(depth, kMaxDepth);
    p.name_ids.resize(depth);
    p.tiers.resize(depth);
    for (u32 i = 0; i < depth; ++i) {
      p.name_ids[i] = slot.names[i].load(std::memory_order_relaxed);
      u8 tier = slot.tiers[i].load(std::memory_order_relaxed);
      if (tier >= static_cast<u8>(SampleTier::Count)) tier = 0;
      p.tiers[i] = static_cast<SampleTier>(tier);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq1) continue;  // torn
    if (p.kind >= SampleThreadKind::Count) continue;
    out->push_back(std::move(p));
  }
}

u32 methodNameId(JMethod* m) {
  if (m == nullptr) return 0;
  u32 id = m->profile_name_id.load(std::memory_order_relaxed);
  if (id == 0) {
    id = profileNameId(m->fullName());
    m->profile_name_id.store(id, std::memory_order_relaxed);
  }
  return id;
}

// Folded-stack frames must not contain the format's separators.
std::string foldSanitize(std::string s) {
  for (char& c : s) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return s;
}

std::string isolateLabel(VM& vm, i32 id) {
  if (id < 0) return "platform";
  Isolate* iso = vm.isolateById(id);
  if (iso != nullptr && !iso->name.empty()) return foldSanitize(iso->name);
  return strf("isolate-%d", id);
}

}  // namespace


// ---- Profiler ----------------------------------------------------------

Profiler::Profiler(VM& vm) : impl_(new Impl(vm)) {}

Profiler::~Profiler() {
  stop();
  delete impl_;  // ~VM joined every guest thread before member teardown
}

void Profiler::start(u32 hz) {
  Impl& s = *impl_;
  if (hz == 0 || s.sampler.joinable()) return;
  s.stop_flag.store(false, std::memory_order_release);
  const auto period = std::chrono::nanoseconds(1000000000ull / hz);
  s.sampler = std::thread([this, period] {
    setTraceThreadName("profiler");
    Impl& st = *impl_;
    while (!st.stop_flag.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(period);
      if (st.stop_flag.load(std::memory_order_acquire)) break;
      tickOnce();
    }
  });
}

void Profiler::stop() {
  Impl& s = *impl_;
  s.stop_flag.store(true, std::memory_order_release);
  if (s.sampler.joinable()) s.sampler.join();
}

void Profiler::setEnabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Profiler::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Profiler::setRingCapacity(u32 slots) {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.ring_slots = slots > 0 ? slots : 1;
}

u64 Profiler::totalSamples() const {
  return impl_->total_samples.load(std::memory_order_relaxed);
}

u64 Profiler::isolateSamples(i32 id) const {
  return impl_->iso_samples[slotFor(id)].load(std::memory_order_relaxed);
}

double Profiler::cpuShare(i32 id) const {
  const Impl& s = *impl_;
  if (s.window_total_delta.load(std::memory_order_relaxed) > 0) {
    return static_cast<double>(s.window_share_pm[slotFor(id)].load(
               std::memory_order_relaxed)) /
           1000.0;
  }
  // No window closed yet: cumulative share.
  const u64 total = s.total_samples.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  return static_cast<double>(
             s.iso_samples[slotFor(id)].load(std::memory_order_relaxed)) /
         static_cast<double>(total);
}

void Profiler::selfSample(JThread* t) {
  Impl& s = *impl_;
  // Acknowledge first: even a sample we end up dropping (profiler just
  // disabled) must clear the pending request, or the poll check would
  // call back here on every iteration.
  t->profile_taken.store(t->profile_requests.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  if (!s.enabled.load(std::memory_order_relaxed)) return;

  PendingSample p;
  p.ts = monoNowNs();
  p.kind = SampleThreadKind::Mutator;

  // Own-thread frame walk: frames_active is exact for the owner, and no
  // one else mutates the deque (the invariant jthread.h documents).
  const size_t n = t->frames_active.load(std::memory_order_relaxed);
  if (n == 0) return;  // nothing to attribute (request raced a return)
  auto frameInto = [&](size_t i, u32 at) {
    Frame& f = t->frameAt(i);
    p.names[at] = methodNameId(f.method);
    p.tiers[at] = static_cast<u8>(tierOfFrame(f));
  };
  if (n <= kMaxDepth) {
    for (size_t i = 0; i < n; ++i) frameInto(i, static_cast<u32>(i));
    p.depth = static_cast<u32>(n);
  } else {
    // Keep the outermost kRootKeep and the leaf-most remainder; the
    // exporter marks the cut. Entry points and hot leaves both survive.
    for (size_t i = 0; i < kRootKeep; ++i) frameInto(i, static_cast<u32>(i));
    const size_t leaf_keep = kMaxDepth - kRootKeep;
    for (size_t i = 0; i < leaf_keep; ++i) {
      frameInto(n - leaf_keep + i, static_cast<u32>(kRootKeep + i));
    }
    p.depth = kMaxDepth;
    p.truncated = true;
  }

  // Leaf-frame isolate: library code charges its caller, exactly like the
  // tick's current_isolate attribution of cpu_samples.
  Isolate* iso = t->frameAt(n - 1).isolate;
  if (iso == nullptr) iso = t->current_isolate.load(std::memory_order_relaxed);
  p.isolate = iso != nullptr ? iso->id : -1;
  if (iso != nullptr) {
    iso->stats.cpu_profile_samples.fetch_add(1, std::memory_order_relaxed);
  }
  publishSample(s, p);
}

int Profiler::activityBegin(SampleThreadKind kind, i32 isolate,
                            const char* what) {
  Impl& s = *impl_;
  const u32 name = profileNameId(what != nullptr ? what : "");
  for (u32 i = 0; i < kActivitySlots; ++i) {
    ActivitySlot& a = s.activity[i];
    bool expected = false;
    if (!a.busy.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
      continue;
    }
    a.isolate.store(isolate, std::memory_order_relaxed);
    a.kind.store(static_cast<u8>(kind), std::memory_order_relaxed);
    a.name.store(name, std::memory_order_relaxed);
    // Odd seq publishes the slot; fields above are ordered by release.
    a.seq.store(a.seq.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
    return static_cast<int>(i);
  }
  return -1;  // table full: the activity just goes unsampled
}

void Profiler::activityEnd(int slot) {
  if (slot < 0) return;
  Impl& s = *impl_;
  ActivitySlot& a = s.activity[static_cast<u32>(slot)];
  a.seq.store(a.seq.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);  // even again: closed
  a.busy.store(false, std::memory_order_release);
}

void Profiler::tickOnce() {
  Impl& s = *impl_;
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> tick_lock(s.tick_mu);
  const u64 ts = monoNowNs();

  // 1. Request a self-sample from every Running guest thread (one
  //    relaxed store; at most one outstanding request per thread), and
  //    charge the section-3.2 CPU sample to the isolate it runs in.
  const bool accounting = s.vm.options().accounting;
  s.vm.forEachThread([accounting](JThread& t) {
    if (t.state.load(std::memory_order_acquire) != ThreadState::Running) {
      return;  // blocked/dead threads burn no CPU
    }
    if (accounting) {
      if (Isolate* iso = t.current_isolate.load(std::memory_order_relaxed)) {
        iso->stats.cpu_samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const u32 req = t.profile_requests.load(std::memory_order_relaxed);
    if (req == t.profile_taken.load(std::memory_order_relaxed)) {
      t.profile_requests.store(req + 1, std::memory_order_relaxed);
    }
  });

  // 2. Sample open activity slots directly (their owners have no guest
  //    frames to walk; one synthetic single-frame sample each).
  for (ActivitySlot& a : s.activity) {
    const u32 seq1 = a.seq.load(std::memory_order_acquire);
    if ((seq1 & 1) == 0) continue;  // closed
    PendingSample p;
    p.ts = ts;
    p.isolate = a.isolate.load(std::memory_order_relaxed);
    p.kind = static_cast<SampleThreadKind>(
        a.kind.load(std::memory_order_relaxed));
    p.names[0] = a.name.load(std::memory_order_relaxed);
    p.tiers[0] = static_cast<u8>(SampleTier::Unknown);
    p.depth = 1;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (a.seq.load(std::memory_order_relaxed) != seq1) continue;  // torn
    if (p.kind >= SampleThreadKind::Count) continue;
    if (p.isolate >= 0) {
      Isolate* iso = s.vm.isolateById(p.isolate);
      if (iso != nullptr) {
        iso->stats.cpu_profile_samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
    publishSample(s, p);
  }

  // 3. Roll the CPU-share window.
  if (++s.tick_count % kWindowTicks != 0) return;
  u64 deltas[kCounterSlots];
  u64 total_delta = 0;
  for (u32 i = 0; i < kCounterSlots; ++i) {
    const u64 cur = s.iso_samples[i].load(std::memory_order_relaxed);
    deltas[i] = cur - s.window_prev[i];
    s.window_prev[i] = cur;
    total_delta += deltas[i];
  }
  for (u32 i = 0; i < kCounterSlots; ++i) {
    const u32 pm = total_delta > 0
                       ? static_cast<u32>(deltas[i] * 1000 / total_delta)
                       : 0;
    s.window_share_pm[i].store(pm, std::memory_order_relaxed);
  }
  s.window_total_delta.store(total_delta, std::memory_order_relaxed);

  // Counter tracks (trace.h Ev::MetricCounter, rendered "ph":"C"): the
  // per-isolate CPU share, the compile queue depth, the cumulative
  // sample count and the reclaim era-lag p99, all on the trace timeline.
  if (traceEnabled()) {
    for (Isolate* iso : s.vm.isolates()) {
      const u32 slot = slotFor(iso->id);
      if (deltas[slot] == 0 &&
          s.iso_samples[slot].load(std::memory_order_relaxed) == 0) {
        continue;  // never-sampled isolate: no empty track
      }
      emitAt(ts, Ev::MetricCounter, Ph::Instant, iso->id,
             internTraceName(strf("cpu.share.%s", iso->name.c_str())),
             s.window_share_pm[slot].load(std::memory_order_relaxed));
    }
    emitAt(ts, Ev::MetricCounter, Ph::Instant, -1,
           internTraceName("compile.queue.depth"),
           exec::compileQueueDepth(s.vm));
    emitAt(ts, Ev::MetricCounter, Ph::Instant, -1,
           internTraceName("profiler.samples"),
           s.total_samples.load(std::memory_order_relaxed));
    // Unit is eras, not ns (report.cpp). No reclaims yet = no empty track.
    const HistSnapshot era_lag = latencySnapshot(Lat::ReclaimEraLag);
    if (era_lag.count > 0) {
      emitAt(ts, Ev::MetricCounter, Ph::Instant, -1,
             internTraceName("reclaim.era-lag.p99"), era_lag.p99_ns);
    }
  }
}

std::vector<ProfileSample> Profiler::snapshot() {
  Impl& s = *impl_;
  std::vector<ProfileSample> out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& r : s.rings) readRing(*r, &out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileSample& a, const ProfileSample& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::string Profiler::dumpFoldedStacks() {
  Impl& s = *impl_;
  std::vector<ProfileSample> samples = snapshot();
  // Fold identical stacks; the map keeps the output deterministic
  // (lexicographic) for golden tests and stable diffs.
  std::map<std::string, u64> folded;
  for (const ProfileSample& p : samples) {
    std::string key = isolateLabel(s.vm, p.isolate);
    key += ';';
    key += threadKindName(p.kind);
    for (size_t i = 0; i < p.name_ids.size(); ++i) {
      key += ';';
      if (p.truncated && i == kRootKeep) key += "[...];";
      std::string frame = foldSanitize(profileNameOf(p.name_ids[i]));
      if (frame.empty()) frame = "?";
      key += frame;
      key += tierTag(p.tiers[i]);
    }
    folded[key] += 1;
  }
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += strf(" %llu\n", static_cast<unsigned long long>(count));
  }
  return out;
}

std::string Profiler::attributionSection() {
  Impl& s = *impl_;
  const u64 total = s.total_samples.load(std::memory_order_relaxed);
  std::string out = "-- cpu attribution (sampling profiler) --\n";
  if (total == 0) {
    out += "  no samples\n";
    return out;
  }

  // Leaf-frame aggregation per isolate: tier mix + hottest methods.
  struct IsoAgg {
    u64 leaf_tiers[static_cast<size_t>(SampleTier::Count)] = {};
    std::unordered_map<u32, u64> leaf_methods;  // name id -> samples
    u64 leaf_total = 0;
  };
  std::map<i32, IsoAgg> aggs;
  for (const ProfileSample& p : snapshot()) {
    if (p.name_ids.empty()) continue;
    IsoAgg& a = aggs[p.isolate];
    const size_t leaf = p.name_ids.size() - 1;
    a.leaf_tiers[static_cast<size_t>(p.tiers[leaf])] += 1;
    a.leaf_methods[p.name_ids[leaf]] += 1;
    a.leaf_total += 1;
  }

  out += strf("  %-18s %10s %7s %7s  %s\n", "isolate", "samples", "share",
              "window", "tier mix (leaf)");
  auto shareRow = [&](i32 id, u64 samples) {
    const double share =
        100.0 * static_cast<double>(samples) / static_cast<double>(total);
    const double window = 100.0 * cpuShare(id);
    std::string tiers;
    auto it = aggs.find(id);
    if (it != aggs.end() && it->second.leaf_total > 0) {
      for (size_t t = 0; t < static_cast<size_t>(SampleTier::Count); ++t) {
        const u64 n = it->second.leaf_tiers[t];
        if (n == 0) continue;
        if (!tiers.empty()) tiers += ' ';
        tiers += strf("%s %.0f%%", tierName(static_cast<SampleTier>(t)),
                      100.0 * static_cast<double>(n) /
                          static_cast<double>(it->second.leaf_total));
      }
    }
    out += strf("  %-18s %10llu %6.1f%% %6.1f%%  %s\n",
                isolateLabel(s.vm, id).c_str(),
                static_cast<unsigned long long>(samples), share, window,
                tiers.c_str());
  };
  for (Isolate* iso : s.vm.isolates()) {
    const u64 n = isolateSamples(iso->id);
    if (n > 0) shareRow(iso->id, n);
  }
  const u64 platform = s.iso_samples[kPlatformSlot].load(
      std::memory_order_relaxed);
  if (platform > 0) shareRow(-1, platform);

  // Top-5 hot leaf methods per isolate.
  for (auto& [id, agg] : aggs) {
    if (agg.leaf_methods.empty()) continue;
    std::vector<std::pair<u32, u64>> hot(agg.leaf_methods.begin(),
                                         agg.leaf_methods.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (hot.size() > 5) hot.resize(5);
    out += strf("  hot in %s:\n", isolateLabel(s.vm, id).c_str());
    for (const auto& [name_id, count] : hot) {
      std::string name = profileNameOf(name_id);
      if (name.empty()) name = "?";
      out += strf("    %8llu  %s\n", static_cast<unsigned long long>(count),
                  name.c_str());
    }
  }
  return out;
}

void Profiler::reset() {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> tick_lock(s.tick_mu);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    // Rings retire, never free: a guest mid-selfSample keeps writing into
    // memory that stays valid; it re-acquires a fresh ring on its next
    // sample via the epoch check.
    for (auto& r : s.rings) s.retired.push_back(std::move(r));
    s.rings.clear();
    s.epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  s.total_samples.store(0, std::memory_order_relaxed);
  for (auto& c : s.iso_samples) c.store(0, std::memory_order_relaxed);
  for (auto& c : s.kind_samples) c.store(0, std::memory_order_relaxed);
  s.tick_count = 0;
  for (auto& w : s.window_prev) w = 0;
  for (auto& w : s.window_share_pm) w.store(0, std::memory_order_relaxed);
  s.window_total_delta.store(0, std::memory_order_relaxed);
}

// ---- ProfileActivityScope ----------------------------------------------

ProfileActivityScope::ProfileActivityScope(VM& vm, SampleThreadKind kind,
                                           i32 isolate, const char* what) {
  profiler_ = vm.profiler();
  if (profiler_ != nullptr) {
    slot_ = profiler_->activityBegin(kind, isolate, what);
  }
}

ProfileActivityScope::~ProfileActivityScope() {
  if (profiler_ != nullptr) profiler_->activityEnd(slot_);
}

}  // namespace ijvm::obs
