// perfbench: the repository benchmark (see README.md for how to run it).
//
// Boots the platform the way an embedder does -- VmOptions::isolated()
// defaults (Jit engine, profiler and section-3.2 sampler on, 8 MiB GC
// threshold), a 3-worker mutator pool, bundles installed and started
// through osgi/Framework -- and serves seeded requests to it from one
// generator thread. Every response is checked against a result computed
// here, independently of the VM.
//
//   perfbench --workload serve-donate|serve-graph|spec-compute
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 runs a closed loop and prints the end-to-end metrics; --trace 1
// runs an open loop at a fixed rate and prints the per-layer ones (from
// spans recorded around each call into a layer). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"};
// the line before it ("detail: {...}") carries sample counts and tails.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "inputs.h"
#include "openloop.h"
#include "osgi/framework.h"
#include "runtime/mutator_pool.h"
#include "spans.h"
#include "stats.h"
#include "stdlib/channels.h"
#include "stdlib/system_library.h"
#include "workloads/spec.h"

namespace {

using namespace ijvm;
using perfbench::nowNs;
using perfbench::Schedule;
using perfbench::Span;
using perfbench::SpanLog;

constexpr u32 kWorkers = 3;  // + 1 generator thread = 4 cores
constexpr int kServers = 4;
constexpr int kSetups = 5;   // setup_s is the median of these
constexpr int kWarmRequests = 4000;
constexpr int kSpecWarmRuns = 3;
constexpr size_t kSpansWritten = 2000;  // requests whose spans go to --spans
constexpr i64 kRateWindowNs = 250'000'000;  // throughput is counted per window
constexpr int kPollUs = 20;  // the closed-loop generator's sleep when its window is full

enum class Kind { Donate, Graph, Spec };

struct Workload {
  const char* name;
  Kind kind;
  double fixed_rate;  // offered rate of the traced run's open loop, req/s
  u64 window;         // requests in flight in the end-to-end run
  u64 sample_every;   // of those, every n-th keeps its service times
  // peak_rss_mb is read once this many requests were sent (or at the end
  // of a shorter run), so that it does not grow with the host's speed.
  u64 rss_at;
};

const Workload kWorkloads[] = {
    {"serve-donate", Kind::Donate, 20000, 16 * kWorkers, 16, 1'000'000},
    {"serve-graph", Kind::Graph, 3000, 16 * kWorkers, 4, 50'000},
    // Requests for one program are serialized (see Platform), so a deep
    // window would only queue workers behind each other's program locks.
    {"spec-compute", Kind::Spec, 100, 2 * kWorkers, 1, 1'500},
};

// ---------------------------------------------------------------- tracing

// One SpanLog per thread, created on first use; a new Tracer generation
// invalidates every thread's cached pointer.
std::atomic<u64> g_tracer_generation{0};
thread_local SpanLog* tl_log = nullptr;
thread_local u64 tl_log_generation = 0;

class Tracer {
 public:
  Tracer() : generation_(g_tracer_generation.fetch_add(1) + 1) {}
  std::atomic<bool> on{false};

  SpanLog& log() {
    if (tl_log_generation != generation_) {
      std::lock_guard<std::mutex> lock(m_);
      logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
      tl_log = logs_.back().get();
      tl_log_generation = generation_;
    }
    return *tl_log;
  }
  // Call only while no thread is recording.
  std::vector<Span> merged() {
    std::lock_guard<std::mutex> lock(m_);
    std::vector<Span> all;
    for (auto& l : logs_) all.insert(all.end(), l->spans().begin(), l->spans().end());
    return all;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(m_);
    for (auto& l : logs_) l->clear();
  }

 private:
  const u64 generation_;
  std::mutex m_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ------------------------------------------------------------ guest code

// Marks an attached thread as a Running guest around straight-line host
// work on guest objects (building, transferring, deserializing), the same
// bracket VM::invoke puts around an outermost call. No stop-the-world can
// complete inside it, so objects allocated there cannot be collected
// before they are rooted; an allocation that needs a GC runs it with this
// thread as the requester. The bracketed code never blocks.
class RunningSection {
 public:
  RunningSection(VM& vm, JThread* t) : vm_(vm), t_(t) {
    vm_.safepoints().exitBlocked(t_);
    t_->state.store(ThreadState::Running, std::memory_order_release);
  }
  ~RunningSection() {
    t_->state.store(ThreadState::Blocked, std::memory_order_release);
    vm_.safepoints().enterBlocked(t_);
  }
  RunningSection(const RunningSection&) = delete;
  RunningSection& operator=(const RunningSection&) = delete;

 private:
  VM& vm_;
  JThread* t_;
};

// msg/Rec: the message record both sides see. Defined in the framework
// loader (like the OSGi API classes) so every bundle resolves the same
// class; digest() therefore runs in Isolate0, and each call from a server
// is a migrated inter-isolate call.
ClassDef recordClass() {
  ClassBuilder cb("msg/Rec");
  cb.field("name", "Ljava/lang/String;");
  cb.field("vals", "[I");
  cb.field("left", "Lmsg/Rec;");
  cb.field("right", "Lmsg/Rec;");
  cb.field("alias", "Lmsg/Rec;");
  auto& d = cb.method("digest", "()I");
  Label loop = d.newLabel(), done = d.newLabel();
  d.aload(0).getfield("msg/Rec", "name", "Ljava/lang/String;");
  d.invokevirtual("java/lang/String", "hashCode", "()I").istore(1);
  d.aload(0).getfield("msg/Rec", "vals", "[I").astore(2);
  d.iconst(0).istore(3);
  d.bind(loop).iload(3).aload(2).arraylength().ifIcmpGe(done);
  d.iload(1).iconst(31).imul().aload(2).iload(3).iaload().iadd().istore(1);
  d.iinc(3, 1).gotoLabel(loop);
  d.bind(done).iload(1).ireturn();
  return cb.build();
}

// The server bundle's handlers (see inputs.h for the host-side mirrors).
ClassDef serverClass(const std::string& cls) {
  ClassBuilder cb(cls);
  {
    auto& m = cb.method("sum", "([I)I", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1).iconst(0).istore(2);
    m.bind(loop).iload(1).aload(0).arraylength().ifIcmpGe(done);
    m.aload(0).iload(1).iaload().iload(2).iadd().istore(2);
    m.iinc(1, 1).gotoLabel(loop);
    m.bind(done).iload(2).ireturn();
  }
  {
    const char* rec = "Lmsg/Rec;";
    auto& w = cb.method("walk", "(Lmsg/Rec;)I", ACC_PUBLIC | ACC_STATIC);
    Label present = w.newLabel(), no_alias = w.newLabel();
    w.aload(0).ifNonNull(present).iconst(0).ireturn();
    w.bind(present).aload(0).invokevirtual("msg/Rec", "digest", "()I").istore(1);
    for (const char* child : {"left", "right"}) {
      w.iload(1).iconst(31).imul();
      w.aload(0).getfield("msg/Rec", child, rec);
      w.invokestatic(cls, "walk", "(Lmsg/Rec;)I").iadd().istore(1);
    }
    w.aload(0).getfield("msg/Rec", "alias", rec).ifNull(no_alias);
    w.iload(1).aload(0).getfield("msg/Rec", "alias", rec);
    w.invokevirtual("msg/Rec", "digest", "()I").ixor().istore(1);
    w.bind(no_alias).iload(1).ireturn();
  }
  return cb.build();
}

// ---------------------------------------------------------------- platform

struct SetupTimes {
  double total_s = 0;
  double cpu_s = 0;  // CPU time of the whole process over the set-up
  double install_start_ms = 0;  // Framework::install + start, all bundles
  double define_ms = 0;         // ClassLoader::define, all classes
};

// A booted platform: VM, system library, OSGi framework and the bundles
// of one workload. Destroyed before the next one boots.
struct Platform {
  explicit Platform(Kind kind, SetupTimes& times) {
    VmOptions opts = VmOptions::isolated();
    opts.mutator_threads = kWorkers;
    vm = std::make_unique<VM>(opts);
    installSystemLibrary(*vm);
    fw = std::make_unique<Framework>(*vm);

    auto install = [&](const std::string& name,
                       std::vector<ClassDef> classes) -> Bundle* {
      BundleDescriptor desc;
      desc.symbolic_name = name;
      i64 t0 = nowNs();
      Bundle* b = fw->install(std::move(desc));
      times.install_start_ms += (nowNs() - t0) / 1e6;
      t0 = nowNs();
      for (ClassDef& def : classes) b->loader()->define(std::move(def));
      times.define_ms += (nowNs() - t0) / 1e6;
      t0 = nowNs();
      fw->start(b);
      times.install_start_ms += (nowNs() - t0) / 1e6;
      return b;
    };

    if (kind == Kind::Spec) {
      programs = specWorkloads();
      for (const SpecWorkload& wl : programs) {
        std::vector<ClassDef> classes;
        for (const ClassDef& def : wl.classes) classes.emplace_back(def);
        program_bundles.push_back(install("spec." + wl.name, std::move(classes)));
        program_locks.push_back(std::make_unique<std::mutex>());
      }
      return;
    }

    const i64 t0 = nowNs();
    rec = fw->frameworkIsolate()->loader->define(recordClass());
    times.define_ms += (nowNs() - t0) / 1e6;
    f_name = rec->findField("name")->slot;
    f_vals = rec->findField("vals")->slot;
    f_left = rec->findField("left")->slot;
    f_right = rec->findField("right")->slot;
    f_alias = rec->findField("alias")->slot;
    int_array = vm->registry().arrayClass("[I");

    driver = install("driver", {});
    gen = vm->attachThread("generator", driver->isolate());
    for (int k = 0; k < kServers; ++k) {
      const std::string cls = "srv" + std::to_string(k) + "/Srv";
      std::vector<ClassDef> classes;
      classes.push_back(serverClass(cls));
      Bundle* b = install("srv" + std::to_string(k), std::move(classes));
      servers.push_back(b);
      // Resolved once per server: requests enter through the JMethod.
      JClass* c = vm->registry().resolve(b->loader(), cls);
      sum.push_back(c->findMethod("sum", "([I)I"));
      walk.push_back(c->findMethod("walk", "(Lmsg/Rec;)I"));
    }
  }

  ~Platform() {
    if (gen != nullptr) vm->detachThread(gen);
    fw.reset();
    vm.reset();
  }
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
  // serve-*
  JClass* rec = nullptr;
  JClass* int_array = nullptr;
  i32 f_name = 0, f_vals = 0, f_left = 0, f_right = 0, f_alias = 0;
  Bundle* driver = nullptr;
  JThread* gen = nullptr;  // the generator, attached to the driver isolate
  std::vector<Bundle*> servers;
  std::vector<JMethod*> sum, walk;
  // spec-compute
  std::vector<SpecWorkload> programs;
  std::vector<Bundle*> program_bundles;
  // Requests for one program never overlap: its statics are shared
  // within its isolate, so each program bundle serves one at a time.
  std::vector<std::unique_ptr<std::mutex>> program_locks;
};

// ------------------------------------------------------------ the requests

// One request's record, written by the worker that served it.
struct Slot {
  i64 sent = 0, start = 0, end = 0;
  i64 cpu = 0;  // the worker's CPU time on the request, when measured
  u32 objects_donated = 0, objects_copied = 0, bytes_copied = 0;
  i16 kind = 0;  // donate: 0; graph: 0 transfer / 1 channel; spec: program
  u8 ok = 0;
};

// Chunked so workers can write slots while the generator adds chunks.
class SlotTable {
 public:
  explicit SlotTable(size_t max_slots)
      : chunks_((max_slots + kChunk - 1) / kChunk) {}
  Slot& at(size_t k) { return chunks_[k / kChunk][k % kChunk]; }
  void ensure(size_t k) {  // generator only, before request k is sent
    auto& c = chunks_.at(k / kChunk);
    if (!c) c = std::make_unique<Slot[]>(kChunk);
  }

 private:
  static constexpr size_t kChunk = 4096;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

// A request built by the generator ahead of its due time.
struct Prepared {
  GlobalRef* ref = nullptr;  // the message root, held until received
  int server = 0;
  int kind = 0;
  i32 expected = 0;
};

// Per-worker channel pair for the serialized path (one request in flight
// per worker, so frames never interleave).
struct ChannelPair {
  std::shared_ptr<ByteChannel> tx, rx;
};
std::atomic<u64> g_platform_generation{0};
thread_local ChannelPair tl_channels;
thread_local u64 tl_channels_generation = 0;


// Request ids of the warm-up, far from the measured ones (and a multiple
// of every program count, so spec warm-up rounds are whole permutations).
constexpr u64 kWarmBase = 7ull << 40;

struct PhaseResult {
  u64 sent = 0;
  u64 failed = 0;
  std::vector<double> latency_us, late_us;
  std::vector<std::vector<double>> service_us;  // by request kind
  // transfer-path counters (TransferStats summed over requests)
  u64 transfers = 0, objects_donated = 0, objects_copied = 0, bytes_copied = 0;
  u64 gc = 0, steals = 0, tasks = 0;
  perfbench::Summary lat;  // pooled over the phase
  // Medians over consecutive blocks of requests of each block's p50 and
  // p99 (see blockPercentiles).
  double block_p50_us = 0, block_p99_us = 0;
  size_t blocks = 0;
};

// A closed-loop phase: a fixed number of requests in flight, each
// replaced as soon as its response is back.
struct ClosedResult {
  u64 sent = 0;
  u64 failed = 0;
  // Of the sampled requests, by kind: the wall time a worker spent on the
  // request, and that worker thread's CPU time.
  std::vector<std::vector<double>> service_us, service_cpu_us;
  std::vector<double> window_rps;  // completions per kRateWindowNs, as req/s
  double process_cpu_s = 0;  // CPU time of the whole process over the phase
  double peak_rss_mb = 0;    // VmHWM once rss_at requests were sent
};

// The fixed-rate phase is cut into up to kMaxBlocks consecutive blocks of
// at least kMinBlock requests (so each block's p99 has >= 10 samples
// beyond it); a latency is reported as the median over blocks of the
// block's percentile. On a host that steals whole milliseconds from its
// vCPUs now and then, one bad second then moves one block, not the run.
constexpr size_t kMaxBlocks = 10;
constexpr size_t kMinBlock = 1000;

void blockPercentiles(PhaseResult& r) {
  const size_t n = r.latency_us.size();
  r.blocks = std::clamp<size_t>(n / kMinBlock, 1, kMaxBlocks);
  std::vector<double> p50s, p99s;
  for (size_t b = 0; b < r.blocks; ++b) {
    std::vector<double> block(r.latency_us.begin() + static_cast<long>(b * n / r.blocks),
                              r.latency_us.begin() + static_cast<long>((b + 1) * n / r.blocks));
    const perfbench::Summary s = perfbench::summarize(std::move(block));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  r.block_p50_us = perfbench::summarize(p50s).p50;
  r.block_p99_us = perfbench::summarize(p99s).p50;
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

class Bench {
 public:
  Bench(const Workload& w, u64 seed, Tracer& tracer)
      : w_(w), seed_(seed), tracer_(tracer) {}

  // Boots a fresh platform (dropping the previous one) and warms it up.
  SetupTimes setUp() {
    platform_.reset();
    SetupTimes times;
    const i64 t0 = nowNs();
    const i64 cpu0 = perfbench::cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    platform_ = std::make_unique<Platform>(w_.kind, times);
    generation_ = g_platform_generation.fetch_add(1) + 1;
    warmUp();
    times.total_s = (nowNs() - t0) / 1e9;
    times.cpu_s = (perfbench::cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9;
    return times;
  }

  Platform& platform() { return *platform_; }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

  // One open-loop phase at `rate` for `seconds`.
  PhaseResult phase(double rate, double seconds, bool traced) {
    Platform& p = *platform_;
    MutatorPool& pool = p.vm->mutatorPool();
    PhaseResult r;
    const u64 first = next_req_;
    SlotTable slots(static_cast<size_t>(std::ceil(rate * seconds)) + 2);
    std::atomic<u64> completed{0};
    tracer_.on.store(traced, std::memory_order_release);

    const u64 gc0 = p.vm->gcCount();
    const u64 steals0 = pool.steals(), tasks0 = pool.tasksCompleted();
    const i64 start = nowNs() + 2'000'000;
    const Schedule sched(start, rate);
    const i64 end = start + static_cast<i64>(seconds * 1e9);
    // A generator that cannot keep up stops here rather than stretching
    // the run; the requests it never sent still count (below).
    const i64 hard_end = end + static_cast<i64>(std::max(0.5, 0.2 * seconds) * 1e9);
    Prepared cur;
    const perfbench::OpenLoopRun run = perfbench::runOpenLoop(
        sched, end,
        [&](u64 k) {
          slots.ensure(k);
          cur = prepare(first + k, slots.at(k));
        },
        [&](u64 k, i64 sent_ns) {
          slots.at(k).sent = sent_ns;
          if (traced) {
            tracer_.log().add("loadgen.late", perfbench::rootSpanId(first + k), first + k,
                              sched.due(k), sent_ns);
          }
          submit(cur, slots.at(k), first + k, sched.due(k), completed);
        },
        [&] { return nowNs() > hard_end; });
    pool.drain();
    const i64 stopped = nowNs();
    tracer_.on.store(false, std::memory_order_release);
    r.sent = run.sent;
    next_req_ += r.sent;
    r.gc = p.vm->gcCount() - gc0;
    r.steals = pool.steals() - steals0;
    r.tasks = pool.tasksCompleted() - tasks0;

    r.service_us.resize(kinds());
    r.latency_us.reserve(r.sent);
    r.late_us.reserve(r.sent);
    for (u64 k = 0; k < r.sent; ++k) {
      const Slot& s = slots.at(k);
      r.latency_us.push_back(sched.latencyNs(k, s.end) / 1e3);
      r.late_us.push_back((s.sent - sched.due(k)) / 1e3);
      r.service_us[static_cast<size_t>(s.kind)].push_back((s.end - s.start) / 1e3);
      if (!s.ok) ++r.failed;
      if (w_.kind != Kind::Spec && s.kind == 0) {
        ++r.transfers;
        r.objects_donated += s.objects_donated;
        r.objects_copied += s.objects_copied;
        r.bytes_copied += s.bytes_copied;
      }
    }
    // Requests due before the end but never sent wait at least until the
    // phase stopped: dropping them would hide the stall that caused them.
    for (u64 k = r.sent; sched.due(k) < std::min(end, stopped); ++k) {
      r.latency_us.push_back(sched.latencyNs(k, stopped) / 1e3);
    }
    attempted_ += r.sent;
    failed_ += r.failed;
    r.lat = perfbench::summarize(r.latency_us);
    blockPercentiles(r);
    return r;
  }

  // One closed-loop phase: `window` requests in flight for `seconds`, each
  // replaced by the next as soon as its response is back. The generator
  // sleeps kPollUs whenever the window is full, leaving the cores to the
  // workers. Every `sample_every`-th request keeps its service times.
  ClosedResult closedLoop(u64 window, double seconds, u64 sample_every, u64 rss_at) {
    struct InFlight {
      Slot slot;
      std::atomic<u64> done{0};  // requests of this entry completed
      u64 used = 0;              // requests of this entry submitted
      u64 req = 0;
    };
    std::vector<InFlight> ring(window);
    ClosedResult r;
    r.service_us.resize(kinds());
    r.service_cpu_us.resize(kinds());
    cpu_every_.store(sample_every, std::memory_order_relaxed);
    const i64 cpu0 = perfbench::cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const i64 start = nowNs();
    const i64 end = start + static_cast<i64>(seconds * 1e9);
    std::vector<u64> per_window(static_cast<size_t>((end - start) / kRateWindowNs), 0);
    auto harvest = [&](const Slot& s, u64 req) {
      if (!s.ok) ++r.failed;
      if (req % sample_every == 0) {
        r.service_us[static_cast<size_t>(s.kind)].push_back((s.end - s.start) / 1e3);
        r.service_cpu_us[static_cast<size_t>(s.kind)].push_back(s.cpu / 1e3);
      }
      const i64 w = (s.end - start) / kRateWindowNs;
      if (w >= 0 && static_cast<size_t>(w) < per_window.size()) {
        ++per_window[static_cast<size_t>(w)];
      }
    };
    while (nowNs() < end) {
      bool submitted = false;
      for (InFlight& f : ring) {
        if (f.done.load(std::memory_order_acquire) != f.used) continue;
        if (f.used > 0) harvest(f.slot, f.req);
        f.slot = Slot{};
        const u64 req = next_req_++;
        f.req = req;
        const Prepared pr = prepare(req, f.slot);
        f.slot.sent = nowNs();
        ++f.used;
        ++r.sent;
        submit(pr, f.slot, req, f.slot.sent, f.done);
        submitted = true;
        if (r.sent == rss_at) r.peak_rss_mb = peakRssMb();
      }
      if (!submitted) {
        std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      }
    }
    platform_->vm->mutatorPool().drain();
    r.process_cpu_s = (perfbench::cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9;
    if (r.sent < rss_at) r.peak_rss_mb = peakRssMb();
    cpu_every_.store(0, std::memory_order_relaxed);
    for (const InFlight& f : ring) {
      if (f.used > 0) harvest(f.slot, f.req);
    }
    for (u64 c : per_window) {
      r.window_rps.push_back(static_cast<double>(c) * 1e9 / kRateWindowNs);
    }
    attempted_ += r.sent;
    failed_ += r.failed;
    return r;
  }

  size_t kinds() const {
    switch (w_.kind) {
      case Kind::Donate: return 1;
      case Kind::Graph: return 2;
      case Kind::Spec: return platform_->programs.size();
    }
    return 1;
  }

 private:
  void warmUp();
  Prepared prepare(u64 req, Slot& slot);
  void submit(const Prepared& pr, Slot& slot, u64 req, i64 due,
              std::atomic<u64>& completed);
  void serve(JThread* jt, const Prepared& pr, Slot& slot, u64 req, i64 due);
  Object* receive(JThread* jt, const Prepared& pr, Slot& slot, u64 req,
                  LocalRootScope& roots, SpanLog* log);

  const Workload& w_;
  const u64 seed_;
  Tracer& tracer_;
  std::unique_ptr<Platform> platform_;
  u64 generation_ = 0;
  u64 next_req_ = 0;
  u64 attempted_ = 0, failed_ = 0;
  std::atomic<u64> cpu_every_{0};  // serve() measures Slot::cpu of every n-th request
};

void Bench::warmUp() {
  Platform& p = *platform_;
  MutatorPool& pool = p.vm->mutatorPool();
  const u64 n = w_.kind == Kind::Spec ? kSpecWarmRuns * p.programs.size()
                                      : static_cast<u64>(kWarmRequests);
  SlotTable slots(n);
  std::atomic<u64> completed{0};
  for (u64 k = 0; k < n; ++k) {
    slots.ensure(k);
    Slot& s = slots.at(k);
    const Prepared pr = prepare(kWarmBase + k, s);
    s.sent = nowNs();
    submit(pr, s, kWarmBase + k, s.sent, completed);
    if (k % 64 == 63) pool.drain();  // keep the warm-up queue short
  }
  pool.drain();
  for (u64 k = 0; k < n; ++k) {
    if (!slots.at(k).ok) ++failed_;
  }
  attempted_ += n;
}

// Builds request `req` in the driver isolate, on the generator thread.
Prepared Bench::prepare(u64 req, Slot& slot) {
  Platform& p = *platform_;
  Prepared out;
  if (w_.kind == Kind::Spec) {
    out.kind = perfbench::specProgram(seed_, req, static_cast<int>(p.programs.size()));
    out.expected = perfbench::kSpecChecksums.at(p.programs[static_cast<size_t>(out.kind)].name);
    slot.kind = static_cast<i16>(out.kind);
    return out;
  }
  VM& vm = *p.vm;
  JThread* t = p.gen;
  const bool traced = tracer_.on.load(std::memory_order_relaxed);
  SpanLog* log = traced ? &tracer_.log() : nullptr;
  u64 build_id = 0;
  size_t build = 0;
  if (traced) {
    build = log->open("loadgen.build", perfbench::rootSpanId(req), req, nowNs(),
                      &build_id);
  }
  auto timed = [&](auto&& alloc) -> Object* {
    if (!traced) return alloc();
    const i64 a = nowNs();
    Object* o = alloc();
    log->add("heap.alloc", build_id, req, a, nowNs());
    return o;
  };
  auto intArray = [&](const std::vector<i32>& vals) {
    Object* a = timed([&] {
      return vm.allocArrayObject(t, p.int_array, static_cast<i32>(vals.size()));
    });
    if (a != nullptr) std::memcpy(a->intElems(), vals.data(), vals.size() * sizeof(i32));
    return a;
  };
  {
    RunningSection running(vm, t);
    LocalRootScope roots(t);
    Object* root = nullptr;
    if (w_.kind == Kind::Donate) {
      const perfbench::DonateReq q = perfbench::makeDonateReq(seed_, req, kServers);
      out.server = q.server;
      out.expected = q.expected;
      root = intArray(q.vals);
    } else {
      const perfbench::GraphReq q = perfbench::makeGraphReq(seed_, req, kServers);
      out.server = q.server;
      out.expected = q.expected;
      out.kind = q.channel ? 1 : 0;
      std::vector<Object*> objs;
      for (const perfbench::GraphRec& rec : q.recs) {
        Object* o = roots.add(timed([&] { return vm.allocObject(t, p.rec); }));
        if (o == nullptr) break;
        objs.push_back(o);
        // Each leaf is stored into its rooted record before the next
        // allocation, the only point where a collection can run.
        Object* name = timed([&] { return vm.newStringObject(t, rec.name); });
        o->fields()[p.f_name] = Value::ofRef(name);
        Object* vals = intArray(rec.vals);
        o->fields()[p.f_vals] = Value::ofRef(vals);
        if (name == nullptr || vals == nullptr) break;
      }
      if (objs.size() == q.recs.size()) {
        auto link = [&](int k) { return Value::ofRef(k < 0 ? nullptr : objs[static_cast<size_t>(k)]); };
        for (size_t k = 0; k < objs.size(); ++k) {
          objs[k]->fields()[p.f_left] = link(q.recs[k].left);
          objs[k]->fields()[p.f_right] = link(q.recs[k].right);
          objs[k]->fields()[p.f_alias] = link(q.recs[k].alias);
        }
        root = objs[0];
      }
    }
    if (root != nullptr) {
      out.ref = vm.addGlobalRef(root, p.driver->isolate());
    } else {
      vm.clearPending(t);  // counted as a failed request when served
    }
  }
  if (traced) log->close(build, nowNs());
  slot.kind = static_cast<i16>(out.kind);
  return out;
}

void Bench::submit(const Prepared& pr, Slot& slot, u64 req, i64 due,
                   std::atomic<u64>& completed) {
  Platform& p = *platform_;
  Isolate* iso = w_.kind == Kind::Spec
                     ? p.program_bundles[static_cast<size_t>(pr.kind)]->isolate()
                     : p.servers[static_cast<size_t>(pr.server)]->isolate();
  p.vm->mutatorPool().submit(
      [this, pr, &slot, req, due, &completed](JThread* jt) {
        serve(jt, pr, slot, req, due);
        completed.fetch_add(1, std::memory_order_release);
      },
      iso);
}

// Runs on a pool worker: receive the message, call the handler, check it.
void Bench::serve(JThread* jt, const Prepared& pr, Slot& slot, u64 req, i64 due) {
  Platform& p = *platform_;
  VM& vm = *p.vm;
  const u64 cpu_every = cpu_every_.load(std::memory_order_relaxed);
  const i64 cpu0 = cpu_every > 0 && req % cpu_every == 0
                       ? perfbench::cpuNs(CLOCK_THREAD_CPUTIME_ID)
                       : -1;
  slot.start = nowNs();
  const bool traced = tracer_.on.load(std::memory_order_relaxed);
  SpanLog* log = traced ? &tracer_.log() : nullptr;
  const u64 root = perfbench::rootSpanId(req);
  if (traced) log->add("runtime.pool_wait", root, req, slot.sent, slot.start);
  bool ok = false;
  if (w_.kind == Kind::Spec) {
    const size_t k = static_cast<size_t>(pr.kind);
    std::lock_guard<std::mutex> lock(*p.program_locks[k]);
    slot.start = nowNs();  // service time excludes waiting for the bundle
    const i32 sum = runSpecWorkload(vm, jt, p.program_bundles[k]->loader(),
                                    p.programs[k], p.programs[k].default_size);
    const i64 done = nowNs();
    if (traced) log->add("exec.run", root, req, slot.start, done);
    ok = sum == pr.expected;
  } else {
    LocalRootScope roots(jt);
    Object* got = receive(jt, pr, slot, req, roots, log);
    if (got != nullptr) {
      JMethod* m = (w_.kind == Kind::Donate ? p.sum : p.walk)[static_cast<size_t>(pr.server)];
      const i64 a = nowNs();
      const Value v = vm.invoke(jt, m, {Value::ofRef(got)});
      if (traced) log->add("runtime.invoke", root, req, a, nowNs());
      ok = jt->pending_exception == nullptr && v.asInt() == pr.expected;
    }
    if (jt->pending_exception != nullptr) vm.clearPending(jt);
  }
  slot.ok = ok ? 1 : 0;
  slot.end = nowNs();
  if (cpu0 >= 0) slot.cpu = perfbench::cpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  if (traced) log->addRoot(req, due, slot.end);
}

// Moves the message into the server's isolate: transferGraph, or one
// request in four through serializeGraph -> writev -> readFully ->
// deserializeGraph (the RMI path of Table 1).
Object* Bench::receive(JThread* jt, const Prepared& pr, Slot& slot, u64 req,
                       LocalRootScope& roots, SpanLog* log) {
  if (pr.ref == nullptr) return nullptr;
  Platform& p = *platform_;
  VM& vm = *p.vm;
  const u64 root = perfbench::rootSpanId(req);
  auto span = [&](const char* name, i64 a, i64 b) {
    if (log != nullptr) log->add(name, root, req, a, b);
  };
  std::string body;
  if (pr.kind == 1) {
    if (tl_channels_generation != generation_) {
      auto [tx, rx] = ByteChannel::pair();
      tl_channels = {tx, rx};
      tl_channels_generation = generation_;
    }
    const i64 a = nowNs();
    std::string bytes;
    {
      RunningSection running(vm, jt);  // the graph stays still while read
      bytes = serializeGraph(vm, pr.ref->obj);
    }
    const i64 b = nowNs();
    const u64 len = bytes.size();
    std::string frame[2] = {std::string(reinterpret_cast<const char*>(&len), sizeof(len)),
                            std::move(bytes)};
    tl_channels.tx->writev(frame, 2);
    const i64 c = nowNs();
    std::string header;
    u64 got_len = 0;
    bool read_ok = tl_channels.rx->readFully(&header, sizeof(got_len));
    if (read_ok) {
      std::memcpy(&got_len, header.data(), sizeof(got_len));
      read_ok = got_len == len && tl_channels.rx->readFully(&body, got_len);
    }
    const i64 d = nowNs();
    span("comm.serialize", a, b);
    span("stdlib.channel_write", b, c);
    span("stdlib.channel_read", c, d);
    if (!read_ok) {
      vm.removeGlobalRef(pr.ref);
      return nullptr;
    }
  }
  Object* got = nullptr;
  {
    RunningSection running(vm, jt);
    Isolate* home = jt->current_isolate.load(std::memory_order_relaxed);
    jt->current_isolate.store(p.servers[static_cast<size_t>(pr.server)]->isolate(),
                              std::memory_order_release);
    const i64 a = nowNs();
    if (pr.kind == 1) {
      got = deserializeGraph(vm, jt, body);
    } else {
      TransferStats st;
      got = transferGraph(vm, jt, p.driver->isolate(), pr.ref->obj, &st);
      slot.objects_donated = static_cast<u32>(st.objects_donated);
      slot.objects_copied = static_cast<u32>(st.objects_copied);
      slot.bytes_copied = static_cast<u32>(st.bytes_copied);
    }
    const i64 b = nowNs();
    if (got != nullptr) roots.add(got);
    jt->current_isolate.store(home, std::memory_order_release);
    span(pr.kind == 1 ? "comm.deserialize" : "comm.transfer", a, b);
  }
  vm.removeGlobalRef(pr.ref);
  return got;
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 0;       // samples behind the value (0: a count or ratio)
  double tail_p = 0;  // highest percentile with >= 10 samples beyond it
  double tail = 0;
  bool in_result = true;  // false: printed and in the detail line only
};

double median(std::vector<double> v) { return perfbench::summarize(std::move(v)).p50; }

// A timing metric: its median or p99, with sample count and tail.
Metric timing(const std::string& name, const std::string& unit,
              const std::vector<double>& samples, bool p99 = false) {
  const perfbench::Summary s = perfbench::summarize(samples);
  return Metric{name, p99 ? s.p99 : s.p50, unit, s.n, s.tail_p, s.tail};
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void report(const Workload& w, u64 seed, bool trace, const std::vector<Metric>& ms,
            u64 attempted, u64 failed) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %14.4f %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.n > 0) std::printf("  n=%zu p%g=%.4f", m.n, m.tail_p, m.tail);
    std::printf("\n");
  }
  const double fail_ratio =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;
  std::printf("  %-28s %14.6f share  (%llu of %llu operations)\n", "fail_ratio",
              fail_ratio, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string detail = "{\"workload\": \"" + std::string(w.name) +
                       "\", \"seed\": " + std::to_string(seed) +
                       ", \"trace\": " + (trace ? "1" : "0") +
                       ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
                       ", \"fail_ratio\": " + jsonNumber(fail_ratio) +
                       ", \"metrics\": {";
  std::string last = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const char* last_sep = "";
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    const std::string sep = i > 0 ? ", " : "";
    detail += sep + "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
              ", \"unit\": \"" + m.unit + "\", \"n\": " + std::to_string(m.n) +
              ", \"tail_p\": " + jsonNumber(m.tail_p) +
              ", \"tail\": " + jsonNumber(m.tail) + "}";
    if (!m.in_result) continue;
    last += last_sep + ("\"" + m.name) + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    last_sep = ", ";
  }
  std::printf("detail: %s}}\n", detail.c_str());
  std::printf("%s}}\n", last.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ the runs

std::vector<Metric> endToEnd(Bench& bench, const Workload& w, double seconds,
                             const std::vector<double>& setup_s,
                             const std::vector<double>& setup_cpu_s) {
  const ClosedResult full = bench.closedLoop(w.window, seconds, w.sample_every, w.rss_at);
  const perfbench::Summary rate = perfbench::summarize(full.window_rps);
  std::printf("%llu in flight: %llu requests; per %.2f s window %.0f req/s median, "
              "p%g %.0f\n",
              static_cast<unsigned long long>(w.window),
              static_cast<unsigned long long>(full.sent), kRateWindowNs / 1e9, rate.p50,
              rate.tail_p, rate.tail);

  auto geomeanOfMedians = [](const std::vector<std::vector<double>>& by_kind) {
    std::vector<double> medians;
    for (const auto& kind : by_kind) {
      if (!kind.empty()) medians.push_back(median(kind));
    }
    return perfbench::geomean(medians);
  };
  size_t sampled = 0;
  for (const auto& kind : full.service_us) sampled += kind.size();
  // The bounded metrics are CPU times and memory: on a shared host the
  // wall-clock ones move with the time the host takes from the vCPUs (see
  // README.md), so they are printed but left out of the result line.
  std::vector<Metric> ms;
  ms.push_back(timing("setup_s", "s", setup_cpu_s));
  ms.push_back(Metric{"cpu_per_req_us",
                      full.process_cpu_s * 1e6 / static_cast<double>(std::max<u64>(full.sent, 1)),
                      "us", full.sent});
  ms.push_back(Metric{"service_cpu_us", geomeanOfMedians(full.service_cpu_us), "us", sampled});
  ms.push_back(Metric{"peak_rss_mb", full.peak_rss_mb, "MiB"});
  auto unbounded = [](Metric m) {
    m.in_result = false;
    return m;
  };
  ms.push_back(unbounded(timing("setup_wall_s", "s", setup_s)));
  ms.push_back(unbounded(Metric{"throughput_rps", rate.p50, "1/s", rate.n, rate.tail_p,
                                rate.tail}));
  ms.push_back(unbounded(Metric{"service_geomean_us", geomeanOfMedians(full.service_us), "us",
                                sampled}));
  return ms;
}

std::vector<Metric> perLayer(Bench& bench, Tracer& tracer, const Workload& w,
                             double seconds, const std::vector<double>& install_ms,
                             const std::vector<double>& define_ms,
                             const std::string& spans_path) {
  const PhaseResult plain = bench.phase(w.fixed_rate, seconds / 2, false);
  tracer.clear();
  const PhaseResult traced = bench.phase(w.fixed_rate, seconds / 2, true);
  const std::vector<Span> spans = tracer.merged();
  const std::vector<i64> self = perfbench::selfTimes(spans);

  std::map<std::string, std::vector<double>> dur;  // by span name, ns
  std::map<std::string, double> self_ns;           // by layer
  // Per request: latency (root span) and the part of it the server-side
  // spans -- pool wait, comm, stdlib, invoke/exec -- account for.
  std::map<u64, std::pair<double, double>> per_req;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = static_cast<double>(s.end - s.start);
    dur[s.name].push_back(d);
    const std::string layer = perfbench::layerOf(s.name);
    self_ns[layer] += static_cast<double>(self[i]);
    if (s.parent == 0) {
      per_req[s.req].first = d;
    } else if (s.parent == perfbench::rootSpanId(s.req) &&
               (layer == "runtime" || layer == "comm" || layer == "stdlib" ||
                layer == "exec")) {
      per_req[s.req].second += d;
    }
  }
  std::vector<double> coverage;
  double lat_sum = 0, covered_sum = 0;
  for (const auto& [req, lc] : per_req) {
    if (lc.first <= 0) continue;
    coverage.push_back(lc.second / lc.first);
    lat_sum += lc.first;
    covered_sum += lc.second;
  }
  auto ns = [&](const char* name) -> const std::vector<double>& { return dur[name]; };
  auto scaled = [](std::vector<double> v, double div) {
    for (double& x : v) x /= div;
    return v;
  };

  Platform& p = bench.platform();
  u64 jit_compiled = 0, jit_demoted = 0;
  for (const IsolateReport& rep : p.vm->reportAll()) {
    jit_compiled += rep.jit_methods_compiled;
    jit_demoted += rep.jit_methods_demoted;
  }
  const GcStats gc = p.vm->collectGarbage(p.vm->mainThread(), nullptr);
  const double kreq = static_cast<double>(traced.sent) / 1000.0;
  const u64 moved = traced.objects_donated + traced.objects_copied;
  const double per_req_n = traced.sent > 0 ? static_cast<double>(traced.sent) : 1;

  std::vector<Metric> ms;
  // Open-loop request latency, from each request's due time, is reported
  // here, from the untraced half, rather than as a bounded end-to-end
  // metric: on a host that steals milliseconds from its vCPUs a stall
  // builds a backlog, and both percentiles moved 10x between identical runs.
  ms.push_back(Metric{"loadgen.req_p50_us", plain.block_p50_us, "us", plain.lat.n,
                      plain.lat.tail_p, plain.lat.tail});
  ms.push_back(Metric{"loadgen.req_p99_us", plain.block_p99_us, "us", plain.lat.n,
                      plain.lat.tail_p, plain.lat.tail});
  ms.push_back(timing("loadgen.late_p99_us", "us", traced.late_us, true));
  ms.push_back(timing("heap.alloc_ns.p50", "ns", ns("heap.alloc")));
  ms.push_back(timing("heap.alloc_ns.p99", "ns", ns("heap.alloc"), true));
  ms.push_back(Metric{"heap.gc_per_kreq", kreq > 0 ? traced.gc / kreq : 0, "1/kreq"});
  ms.push_back(Metric{"heap.live_mb", gc.live_bytes / 1048576.0, "MiB"});
  ms.push_back(timing("comm.transfer_ns.p50", "ns", ns("comm.transfer")));
  ms.push_back(timing("comm.transfer_ns.p99", "ns", ns("comm.transfer"), true));
  ms.push_back(Metric{"comm.donated_share",
                      moved > 0 ? static_cast<double>(traced.objects_donated) / moved : 0,
                      "share", moved});
  ms.push_back(Metric{"comm.copied_bytes_per_req",
                      traced.transfers > 0 ? static_cast<double>(traced.bytes_copied) /
                                                 traced.transfers
                                           : 0,
                      "B", traced.transfers});
  ms.push_back(timing("comm.serialize_ns", "ns", ns("comm.serialize")));
  ms.push_back(timing("comm.deserialize_ns", "ns", ns("comm.deserialize")));
  ms.push_back(timing("stdlib.channel_write_ns", "ns", ns("stdlib.channel_write")));
  ms.push_back(timing("stdlib.channel_read_ns", "ns", ns("stdlib.channel_read")));
  ms.push_back(timing("runtime.pool_wait_us.p50", "us", scaled(ns("runtime.pool_wait"), 1e3)));
  ms.push_back(timing("runtime.pool_wait_us.p99", "us", scaled(ns("runtime.pool_wait"), 1e3), true));
  ms.push_back(timing("runtime.invoke_ns.p50", "ns", ns("runtime.invoke")));
  ms.push_back(timing("runtime.invoke_ns.p99", "ns", ns("runtime.invoke"), true));
  ms.push_back(Metric{"runtime.steal_ratio",
                      traced.tasks > 0 ? static_cast<double>(traced.steals) / traced.tasks : 0,
                      "share", traced.tasks});
  for (const SpecWorkload& wl : specWorkloads()) {
    std::vector<double> runs;
    for (size_t k = 0; k < p.programs.size(); ++k) {
      if (p.programs[k].name == wl.name) runs = scaled(traced.service_us[k], 1e3);
    }
    ms.push_back(timing("exec." + wl.name + "_ms", "ms", runs));
  }
  ms.push_back(Metric{"exec.jit_compiled", static_cast<double>(jit_compiled), "count"});
  ms.push_back(Metric{"exec.jit_demoted", static_cast<double>(jit_demoted), "count"});
  ms.push_back(timing("osgi.install_start_ms", "ms", install_ms));
  ms.push_back(timing("classes.define_ms", "ms", define_ms));
  ms.push_back(Metric{"trace.span_coverage", median(coverage), "share",
                      coverage.size()});
  ms.push_back(Metric{"trace.span_coverage_sum",
                      lat_sum > 0 ? covered_sum / lat_sum : 0, "share", coverage.size()});
  ms.push_back(Metric{"trace.overhead_p50_us", traced.lat.p50 - plain.lat.p50, "us"});
  for (const char* layer :
       {"request", "loadgen", "heap", "comm", "stdlib", "runtime", "exec"}) {
    ms.push_back(Metric{std::string("selftime.") + layer + "_us",
                        self_ns[layer] / per_req_n / 1e3, "us"});
  }

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << "name\tid\tparent\treq\tstart_ns\tend_ns\tself_ns\n";
    const u64 first_req = spans.empty() ? 0 : std::min_element(spans.begin(), spans.end(),
        [](const Span& a, const Span& b) { return a.req < b.req; })->req;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.req - first_req >= kSpansWritten) continue;
      out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.req << '\t'
          << s.start << '\t' << s.end << '\t' << self[i] << '\n';
    }
  }
  return ms;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-donate|serve-graph|spec-compute "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::stoull(val);
    else if (key == "--seconds") seconds = std::stod(val);
    else if (key == "--trace") trace = std::stoi(val);
    else if (key == "--spans") spans_path = val;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) return usage();

  Tracer tracer;
  Bench bench(*w, seed, tracer);
  std::vector<double> setup_s, setup_cpu_s, install_ms, define_ms;
  for (int i = 0; i < kSetups; ++i) {
    const SetupTimes t = bench.setUp();
    setup_s.push_back(t.total_s);
    setup_cpu_s.push_back(t.cpu_s);
    install_ms.push_back(t.install_start_ms);
    define_ms.push_back(t.define_ms);
  }
  std::printf("perfbench %s seed %llu: %d set-ups, median %.3f s wall, %.3f s CPU\n",
              w->name, static_cast<unsigned long long>(seed), kSetups, median(setup_s),
              median(setup_cpu_s));
  const std::vector<Metric> ms =
      trace == 0 ? endToEnd(bench, *w, seconds, setup_s, setup_cpu_s)
                 : perLayer(bench, tracer, *w, seconds, install_ms, define_ms, spans_path);
  report(*w, seed, trace == 1, ms, bench.attempted(), bench.failed());
  return bench.failed() == 0 ? 0 : 1;
}
