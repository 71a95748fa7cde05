// Safepoint-aware sampling profiler (src/obs/profiler.h) and the metrics
// endpoint (src/obs/metrics.h). Covered here:
//   * deterministic CPU attribution: manual ticks driven from guest
//     natives at a 3:1 ratio across two isolates land within 10% of a
//     75/25 split, in the cumulative counters, the windowed share, the
//     per-isolate ResourceStats counter and the platform report;
//   * folded-stack export: exact flamegraph.pl lines for a known call
//     chain under the classic interpreter (deterministic @classic tags);
//   * Prometheus exposition: well-formed HELP/TYPE framing, the standard
//     VM families (donation counters included) and label escaping;
//   * the admin socket: ping/metrics/profile verbs with the "."-line
//     response terminator, on an ephemeral localhost port;
//   * ring wrap keeps the newest samples; reset() forgets them;
//   * host-activity slots (the GC/compiler bracket) attribute samples
//     without guest frames;
//   * the paper's section-3.2 CPU charge rides the same tick: exactly one
//     cpu_samples per tick for a Running thread's current isolate, none
//     for a Blocked thread, none with accounting off.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/builder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"

namespace ijvm {
namespace {

// Deterministic profiler options: no sampler thread (ticks are driven
// manually from guest natives).
VmOptions profOptions() {
  VmOptions opts = VmOptions::isolated();
  opts.profile_hz = 0;
  return opts;
}

// Two-isolate fixture: each isolate gets its own copy of a class whose
// "work" method spins a guest loop that calls the `tick` native once per
// iteration. Every tick requests a self-sample that the spinning thread
// honors at the loop's back-edge poll, so samples-per-isolate equals
// ticks-per-isolate exactly -- scheduling cannot skew the split.
struct ProfVm {
  explicit ProfVm(VmOptions opts = profOptions()) : vm(opts) {
    installSystemLibrary(vm);
  }

  ClassLoader* boot(const std::string& name) {
    ClassLoader* loader = vm.registry().newLoader(name);
    ClassBuilder cb("p/Work");
    cb.nativeMethod("tick", "()V", ACC_STATIC);
    auto& m = cb.method("work", "(I)V", ACC_PUBLIC | ACC_STATIC);
    Label head = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1);
    m.bind(head).iload(1).iload(0).ifIcmpGe(done);
    m.invokestatic("p/Work", "tick", "()V");
    m.iinc(1, 1).gotoLabel(head);
    m.bind(done).ret();
    loader->define(cb.build());
    vm.createIsolate(loader, name);
    JMethod* tick = vm.registry().resolve(loader, "p/Work")
                        ->findMethod("tick", "()V");
    tick->native = [](NativeCtx& ctx) -> Value {
      ctx.vm.profiler()->tickOnce();
      return {};
    };
    return loader;
  }

  void work(ClassLoader* loader, i32 n) {
    vm.callStaticIn(vm.mainThread(), loader, "p/Work", "work", "(I)V",
                    {Value::ofInt(n)});
    ASSERT_EQ(vm.mainThread()->pending_exception, nullptr)
        << vm.pendingMessage(vm.mainThread());
  }

  VM vm;
};

TEST(Profiler, DeterministicThreeToOneAttribution) {
  ProfVm f;
  ClassLoader* a = f.boot("appA");
  ClassLoader* b = f.boot("appB");

  // Interleave 3:1 so every kWindowTicks-aligned window holds the same
  // mix: 25 rounds of (3 ticks in A, 1 tick in B) = 100 ticks total,
  // 128 = 4 * kWindowTicks would also work but 100 leaves the last
  // window open, exercising the closed-window readback path.
  for (int round = 0; round < 25; ++round) {
    f.work(a, 3);
    f.work(b, 1);
  }

  obs::Profiler* prof = f.vm.profiler();
  ASSERT_NE(prof, nullptr);
  const u64 total = prof->totalSamples();
  EXPECT_GE(total, 95u);
  EXPECT_LE(total, 100u);

  Isolate* ia = f.vm.isolateById(0);
  Isolate* ib = f.vm.isolateById(1);
  ASSERT_NE(ia, nullptr);
  ASSERT_NE(ib, nullptr);

  // Cumulative split within 10% of 75/25.
  const double share_a =
      static_cast<double>(prof->isolateSamples(ia->id)) /
      static_cast<double>(total);
  const double share_b =
      static_cast<double>(prof->isolateSamples(ib->id)) /
      static_cast<double>(total);
  EXPECT_NEAR(share_a, 0.75, 0.10);
  EXPECT_NEAR(share_b, 0.25, 0.10);

  // Windowed share (the governor's series): the 3:1 pattern repeats
  // every 4 ticks, so every closed 32-tick window holds the same mix.
  EXPECT_NEAR(prof->cpuShare(ia->id), 0.75, 0.10);
  EXPECT_NEAR(prof->cpuShare(ib->id), 0.25, 0.10);

  // Per-isolate ResourceStats counter and the IsolateReport plumbing.
  EXPECT_EQ(ia->stats.cpu_profile_samples.load(), prof->isolateSamples(0));
  EXPECT_EQ(f.vm.reportFor(ia).cpu_profile_samples,
            ia->stats.cpu_profile_samples.load());

  // The attribution section names both isolates and their samples.
  const std::string report = obs::platformReport(f.vm);
  EXPECT_NE(report.find("cpu attribution"), std::string::npos) << report;
  EXPECT_NE(report.find("appA"), std::string::npos) << report;
  EXPECT_NE(report.find("appB"), std::string::npos) << report;
  EXPECT_NE(report.find("p/Work.work(I)V"), std::string::npos) << report;
}

// The section-3.2 fold: the tick that requests stack samples also charges
// one cpu_samples to each Running thread's current isolate -- synchronously,
// so the count is exact per tick, unlike the poll-site stack samples.
TEST(Profiler, TickChargesOneCpuSamplePerRunningThread) {
  ProfVm f;
  ClassLoader* a = f.boot("appA");
  ClassLoader* b = f.boot("appB");
  Isolate* ia = f.vm.isolateById(0);
  Isolate* ib = f.vm.isolateById(1);
  // An attached thread outside guest code is Blocked: though its current
  // isolate is appB, no tick may charge it.
  JThread* idle = f.vm.attachThread("idle", ib);
  ASSERT_EQ(idle->state.load(), ThreadState::Blocked);
  for (int round = 0; round < 5; ++round) {
    f.work(a, 3);
    f.work(b, 1);
  }
  f.vm.profiler()->tickOnce();  // every thread Blocked: charges nothing
  EXPECT_EQ(ia->stats.cpu_samples.load(), 15u);
  EXPECT_EQ(ib->stats.cpu_samples.load(), 5u);
  EXPECT_EQ(f.vm.reportFor(ia).cpu_samples, 15u);
  f.vm.detachThread(idle);
}

TEST(Profiler, TickChargesNoCpuSamplesWithoutAccounting) {
  VmOptions opts = profOptions();
  opts.accounting = false;
  ProfVm f(opts);
  ClassLoader* a = f.boot("appA");
  f.work(a, 6);
  EXPECT_EQ(f.vm.isolateById(0)->stats.cpu_samples.load(), 0u);
  // The stack samples themselves are not accounting.
  EXPECT_GT(f.vm.profiler()->totalSamples(), 0u);
}

TEST(Profiler, FoldedStacksGoldenUnderClassicInterpreter) {
  VmOptions opts = profOptions();
  opts.exec_engine = ExecEngine::Classic;  // deterministic @classic tags
  ProfVm f(opts);
  f.vm.profiler()->setEnabled(true);

  ClassLoader* loader = f.vm.registry().newLoader("gold");
  ClassBuilder cb("g/T");
  cb.nativeMethod("tick", "()V", ACC_STATIC);
  auto& inner = cb.method("inner", "(I)V", ACC_PUBLIC | ACC_STATIC);
  Label head = inner.newLabel(), done = inner.newLabel();
  inner.iconst(0).istore(1);
  inner.bind(head).iload(1).iload(0).ifIcmpGe(done);
  inner.invokestatic("g/T", "tick", "()V");
  inner.iinc(1, 1).gotoLabel(head);
  inner.bind(done).ret();
  auto& outer = cb.method("outer", "(I)V", ACC_PUBLIC | ACC_STATIC);
  outer.iload(0).invokestatic("g/T", "inner", "(I)V").ret();
  loader->define(cb.build());
  f.vm.createIsolate(loader, "gold");
  f.vm.registry().resolve(loader, "g/T")->findMethod("tick", "()V")->native =
      [](NativeCtx& ctx) -> Value {
        ctx.vm.profiler()->tickOnce();
        return {};
      };

  f.vm.callStaticIn(f.vm.mainThread(), loader, "g/T", "outer", "(I)V",
                    {Value::ofInt(7)});
  ASSERT_EQ(f.vm.mainThread()->pending_exception, nullptr)
      << f.vm.pendingMessage(f.vm.mainThread());

  // Every sample has the same two-frame stack, so the export is exactly
  // one line, lexicographically stable, flamegraph.pl-ready.
  const std::string folded = f.vm.profiler()->dumpFoldedStacks();
  EXPECT_EQ(folded,
            "gold;mutator;g/T.outer(I)V@classic;g/T.inner(I)V@classic 7\n");
}

TEST(Profiler, RingWrapKeepsNewestAndResetForgets) {
  ProfVm f;
  obs::Profiler* prof = f.vm.profiler();
  prof->setRingCapacity(4);  // rings are created lazily at first publish
  ClassLoader* loader = f.boot("wrap");
  f.work(loader, 10);

  EXPECT_EQ(prof->totalSamples(), 10u);
  std::vector<obs::ProfileSample> samples = prof->snapshot();
  ASSERT_EQ(samples.size(), 4u);  // wrap kept only the newest slots
  // Newest-kept, oldest-dropped: timestamps are monotonic per ring.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].ts_ns, samples[i - 1].ts_ns);
  }
  for (const obs::ProfileSample& p : samples) {
    EXPECT_EQ(p.kind, obs::SampleThreadKind::Mutator);
    ASSERT_FALSE(p.name_ids.empty());
    EXPECT_EQ(obs::profileNameOf(p.name_ids.back()), "p/Work.work(I)V");
  }

  prof->reset();
  EXPECT_EQ(prof->totalSamples(), 0u);
  EXPECT_TRUE(prof->snapshot().empty());
  EXPECT_EQ(prof->dumpFoldedStacks(), "");
  // The thread re-acquires a fresh ring after reset and sampling resumes.
  f.work(loader, 3);
  EXPECT_EQ(prof->totalSamples(), 3u);
}

TEST(Profiler, ActivitySlotsAttributeHostThreads) {
  ProfVm f;
  obs::Profiler* prof = f.vm.profiler();
  {
    obs::ProfileActivityScope gc(f.vm, obs::SampleThreadKind::Gc, -1,
                                 "gc.collect");
    prof->tickOnce();
    prof->tickOnce();
  }
  prof->tickOnce();  // scope closed: no further gc samples

  u64 gc_samples = 0;
  for (const obs::ProfileSample& p : prof->snapshot()) {
    if (p.kind != obs::SampleThreadKind::Gc) continue;
    ++gc_samples;
    EXPECT_EQ(p.isolate, -1);
    ASSERT_EQ(p.name_ids.size(), 1u);
    EXPECT_EQ(obs::profileNameOf(p.name_ids[0]), "gc.collect");
  }
  EXPECT_EQ(gc_samples, 2u);
  const std::string folded = prof->dumpFoldedStacks();
  EXPECT_NE(folded.find("platform;gc;gc.collect 2"), std::string::npos)
      << folded;
}

TEST(Profiler, DisabledGateDropsSamplesButAcksRequests) {
  ProfVm f;
  obs::Profiler* prof = f.vm.profiler();
  prof->setEnabled(false);
  ClassLoader* loader = f.boot("off");
  f.work(loader, 5);  // natives still call tickOnce; the gate drops it all
  EXPECT_EQ(prof->totalSamples(), 0u);
  // The guest thread is not stuck with a dangling request either.
  JThread* t = f.vm.mainThread();
  EXPECT_EQ(t->profile_requests.load(), t->profile_taken.load());

  prof->setEnabled(true);
  f.work(loader, 5);
  EXPECT_EQ(prof->totalSamples(), 5u);
}

TEST(Profiler, WindowRollEmitsChromeCounterTracks) {
#ifdef IJVM_DISABLE_TRACE
  GTEST_SKIP() << "built with IJVM_DISABLE_TRACE";
#else
  ProfVm f;
  ClassLoader* loader = f.boot("tracks");
  obs::resetTrace();
  obs::setTraceEnabled(true);
  // kWindowTicks ticks close exactly one CPU-share window, whose roll
  // emits one counter event per sampled isolate plus the queue-depth and
  // cumulative-sample tracks (rendered "ph":"C" in the Chrome trace).
  f.work(loader, static_cast<i32>(obs::Profiler::kWindowTicks));
  obs::setTraceEnabled(false);

  const std::string path = "/tmp/ijvm_profiler_counters.json";
  ASSERT_TRUE(obs::dumpChromeTrace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("cpu.share.tracks"), std::string::npos) << json;
  EXPECT_NE(json.find("compile.queue.depth"), std::string::npos) << json;
  EXPECT_NE(json.find("profiler.samples"), std::string::npos) << json;
  obs::resetTrace();
#endif
}

TEST(Metrics, PrometheusExpositionCarriesVmFamilies) {
  ProfVm f;
  ClassLoader* loader = nullptr;
  loader = f.boot("metr\"ics");  // exercises label escaping
  f.work(loader, 8);

  obs::MetricsRegistry reg;
  obs::registerVmMetrics(&reg, f.vm);
  const std::string text = reg.renderPrometheus();

  // HELP/TYPE framing for every family, counters suffixed _total.
  EXPECT_NE(text.find("# HELP ijvm_isolate_bytes_charged "),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ijvm_isolate_bytes_charged gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE ijvm_isolate_cpu_profile_samples_total counter"),
      std::string::npos);
  // PR-8 donation counters are scrapeable.
  EXPECT_NE(text.find("ijvm_isolate_donated_bytes_in_total"),
            std::string::npos);
  EXPECT_NE(text.find("ijvm_isolate_donated_bytes_out_total"),
            std::string::npos);
  EXPECT_NE(text.find("ijvm_isolate_donated_bytes_delta"), std::string::npos);
  EXPECT_NE(text.find("ijvm_profiler_samples_total"), std::string::npos);
  EXPECT_NE(text.find("ijvm_compile_queue_depth"), std::string::npos);

  // The quoted isolate name is escaped, and its profile samples surface.
  EXPECT_NE(text.find("isolate=\"metr\\\"ics\""), std::string::npos) << text;
  EXPECT_NE(text.find("ijvm_profiler_samples_total 8"), std::string::npos)
      << text;
}

TEST(Metrics, CustomFamilyRendersInRegistrationOrder) {
  obs::MetricsRegistry reg;
  reg.add("ijvm_test_alpha", "first family", obs::MetricType::Counter,
          [](std::vector<obs::MetricSample>* out) {
            out->push_back(obs::MetricSample{"", 3.0});
          });
  reg.add("ijvm_test_beta", "second family", obs::MetricType::Gauge,
          [](std::vector<obs::MetricSample>* out) {
            out->push_back(obs::MetricSample{"shard=\"a\"", 0.5});
            out->push_back(obs::MetricSample{"shard=\"b\"", 0.25});
          });
  EXPECT_EQ(reg.renderPrometheus(),
            "# HELP ijvm_test_alpha first family\n"
            "# TYPE ijvm_test_alpha counter\n"
            "ijvm_test_alpha 3\n"
            "# HELP ijvm_test_beta second family\n"
            "# TYPE ijvm_test_beta gauge\n"
            "ijvm_test_beta{shard=\"a\"} 0.5\n"
            "ijvm_test_beta{shard=\"b\"} 0.25\n");
}

// Minimal in-test client for the admin socket: send one verb, collect
// lines until the "." terminator (the ijvm_admin tool speaks the same
// protocol).
std::string adminRequest(u16 port, const std::string& verb, bool* ok) {
  *ok = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = verb + "\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return {};
  }
  std::string buf;
  char chunk[4096];
  for (;;) {
    const size_t end = buf.find("\n.\n");
    if (end != std::string::npos || buf.rfind(".\n", 0) == 0) {
      *ok = true;
      buf.erase(end == std::string::npos ? 0 : end + 1);
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return buf;
}

TEST(Metrics, AdminSocketServesPingMetricsAndProfile) {
  ProfVm f;
  ClassLoader* loader = f.boot("admin");
  f.work(loader, 4);

  obs::AdminServer server(f.vm, 0);  // ephemeral localhost port
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  bool ok = false;
  EXPECT_EQ(adminRequest(server.port(), "ping", &ok), "pong\n");
  EXPECT_TRUE(ok);

  const std::string metrics = adminRequest(server.port(), "metrics", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(metrics.find("# HELP ijvm_isolate_bytes_charged"),
            std::string::npos);

  const std::string profile = adminRequest(server.port(), "profile", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(profile.find("admin;mutator;p/Work.work(I)V"), std::string::npos)
      << profile;

  const std::string report = adminRequest(server.port(), "report", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(report.find("I-JVM platform report"), std::string::npos);

  const std::string err = adminRequest(server.port(), "bogus", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(err.find("unknown verb"), std::string::npos);
}

}  // namespace
}  // namespace ijvm
