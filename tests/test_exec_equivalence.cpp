// Differential test: the quickening engine (src/exec) must be observably
// equivalent to the classic interpreter -- identical results, identical
// thrown exceptions (at both the first, quickening, execution and the
// subsequent fast-path executions), identical per-isolate accounting
// charges, and identical attack outcomes. The fusion, JIT and OSR tiers
// are part of the contract: every workload runs with fusion forced off,
// fusion forced on, and the full ladder up to the call-threaded JIT
// forced on (all thresholds 0), and every variant must match the classic
// engine. On top of the fixed matrix, a randomized harness (seeded,
// reproducible) sweeps the 5-way tier space -- fusion on/off x jit on/off
// x osr on/off x thresholds in {1, default, huge} -- across the SPEC
// analogs and all eight attacks; the seed is printed on failure. The
// harness also sweeps a thread-count axis (mutator x compiler workers in
// {1, 2, 4}): with more than one mutator worker the workload runs as N
// concurrent bundle copies on the mutator pool, and every copy must still
// be observably identical, per isolate, to a serial classic run of the
// same shape. Build with -DIJVM_TEST_MUTATOR_THREADS=4 to pin the mutator
// axis for a CI matrix leg. Finally the harness sweeps the communication
// axes (comm_zero_copy on/off x channel_batch in {1, 8, 64}): every seeded
// config runs a two-isolate message workload through transferGraph and a
// writev-batched serialize/deserialize channel, and must be observably
// identical -- checksums and post-GC charges -- to the classic copy-only
// oracle (docs/comm.md).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "exec/engine.h"
#include "exec/quickened.h"
#include "heap/object.h"
#include "runtime/mutator_pool.h"
#include "runtime/vm.h"
#include "stdlib/channels.h"
#include "stdlib/system_library.h"
#include "support/rng.h"
#include "support/strf.h"
#include "workloads/attacks.h"
#include "workloads/spec.h"

namespace ijvm {
namespace {

constexpr ExecEngine kEngines[] = {ExecEngine::Classic, ExecEngine::Quickened,
                                   ExecEngine::Jit};

const char* engineName(ExecEngine e) {
  switch (e) {
    case ExecEngine::Classic: return "classic";
    case ExecEngine::Quickened: return "quickened";
    case ExecEngine::Jit: return "jit";
  }
  return "?";
}

// Tier variants of the quickening engine under differential test: fusion
// forced off, fusion forced on, and the full ladder with the
// call-threaded JIT forced on (every threshold 0, so a method compiles at
// its second entry).
enum class Tier { FusionOff, FusionOn, JitOn };
constexpr Tier kTiers[] = {Tier::FusionOff, Tier::FusionOn, Tier::JitOn};

const char* tierName(Tier t) {
  switch (t) {
    case Tier::FusionOff: return "fusion-off";
    case Tier::FusionOn: return "fusion-on";
    case Tier::JitOn: return "jit-on";
  }
  return "?";
}

void applyTier(VmOptions& opts, Tier t) {
  opts.exec_engine =
      t == Tier::JitOn ? ExecEngine::Jit : ExecEngine::Quickened;
  opts.fusion = t != Tier::FusionOff;
  opts.fusion_threshold = 0;
  opts.jit_threshold = 0;
  // The fixed matrix pins deterministic tier transitions (compile at the
  // second entry); the randomized harness below sweeps the background
  // compiler and the code-cache budget on top.
  opts.background_compile = false;
}

// ---- spec workloads: checksums + per-isolate charges ----

struct SpecRun {
  i32 checksum = 0;
  u64 bytes_charged = 0;
  u64 objects_charged = 0;
  u64 objects_allocated = 0;
  u64 calls_in = 0;
};

SpecRun runSpecOpts(const SpecWorkload& wl, i32 size, const VmOptions& opts) {
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("spec");
  Isolate* iso = vm.createIsolate(app, "spec");
  SpecRun r;
  r.checksum = runSpecWorkload(vm, vm.mainThread(), app, wl, size);
  // Charges are reachability-based; compare them after a full collection.
  vm.collectGarbage(vm.mainThread(), nullptr);
  r.bytes_charged = iso->stats.bytes_charged.load();
  r.objects_charged = iso->stats.objects_charged.load();
  r.objects_allocated = iso->stats.objects_allocated.load();
  r.calls_in = iso->stats.calls_in.load();
  return r;
}

SpecRun runSpec(const SpecWorkload& wl, ExecEngine engine, i32 size,
                Tier tier = Tier::FusionOff) {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = engine;
  if (engine != ExecEngine::Classic) applyTier(opts, tier);
  return runSpecOpts(wl, size, opts);
}

class SpecEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SpecEquivalence, EnginesAgreeOnChecksumAndCharges) {
  SpecWorkload wl = specWorkloads()[static_cast<size_t>(GetParam())];
  const i32 size = std::max(1, wl.default_size / 8);
  SpecRun classic = runSpec(wl, ExecEngine::Classic, size);
  // The quickening engine must match with fusion forced off, fusion
  // forced on, and the JIT forced on (thresholds 0: every method fuses as
  // soon as it quickens and compiles at its second entry).
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tierName(tier));
    SpecRun quick = runSpec(wl, ExecEngine::Quickened, size, tier);
    EXPECT_EQ(classic.checksum, quick.checksum) << wl.name;
    EXPECT_EQ(classic.calls_in, quick.calls_in) << wl.name;
    // mtrt is two-threaded: totals identical, but thread interleaving makes
    // this the one workload where we do not pin allocation-order-dependent
    // counters; the reachability-based charges must still match.
    EXPECT_EQ(classic.bytes_charged, quick.bytes_charged) << wl.name;
    EXPECT_EQ(classic.objects_charged, quick.objects_charged) << wl.name;
    if (wl.name != "mtrt") {
      EXPECT_EQ(classic.objects_allocated, quick.objects_allocated) << wl.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SpecEquivalence, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return specWorkloads()[static_cast<size_t>(info.param)]
                               .name;
                         });

// ---- exception behaviour, first (quickening) and repeat executions ----

struct EvalResult {
  i32 value = 0;
  std::string error;  // "" when no guest exception
};

// Runs `body` twice in one VM -- the first execution quickens, the second
// takes the rewritten fast path -- and asserts both report the same thing.
EvalResult evalTwice(ExecEngine engine,
                     const std::function<void(ClassBuilder&)>& define,
                     Tier tier = Tier::FusionOff, bool verify = true) {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = engine;
  opts.verify = verify;
  if (engine != ExecEngine::Classic) applyTier(opts, tier);
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  vm.createIsolate(app, "app");
  ClassBuilder cb("app/T");
  define(cb);
  app->define(cb.build());
  JThread* t = vm.mainThread();
  EvalResult first;
  Value v = vm.callStaticIn(t, app, "app/T", "f", "()I", {});
  first.value = v.asInt();
  if (t->pending_exception != nullptr) first.error = vm.pendingMessage(t);
  vm.clearPending(t);
  EvalResult second;
  v = vm.callStaticIn(t, app, "app/T", "f", "()I", {});
  second.value = v.asInt();
  if (t->pending_exception != nullptr) second.error = vm.pendingMessage(t);
  vm.clearPending(t);
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(first.error, second.error);
  return first;
}

void expectEnginesAgree(const std::function<void(ClassBuilder&)>& define) {
  EvalResult classic = evalTwice(ExecEngine::Classic, define);
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tierName(tier));
    // With the tier thresholds at 0, the second execution inside
    // evalTwice runs the fused stream (fusion-on) or the compiled code
    // (jit-on) -- including its deopt path for sites whose resolution
    // fails and therefore never quicken.
    EvalResult quick = evalTwice(ExecEngine::Quickened, define, tier);
    EXPECT_EQ(classic.value, quick.value);
    EXPECT_EQ(classic.error, quick.error);
  }
}

TEST(ExceptionEquivalence, DivisionByZeroCaught) {
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    m.bind(from).iconst(1).iconst(0).idiv().ireturn();
    m.bind(to);
    m.bind(handler).pop().iconst(-7).ireturn();
    m.handler(from, to, handler, "java/lang/ArithmeticException");
  });
}

TEST(ExceptionEquivalence, DivisionByZeroUncaught) {
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    m.iconst(1).iconst(0).irem().ireturn();
  });
}

TEST(ExceptionEquivalence, NullFieldAccess) {
  expectEnginesAgree([](ClassBuilder& cb) {
    cb.field("x", "I", ACC_PUBLIC);
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    m.aconstNull().getfield("app/T", "x", "I").ireturn();
  });
}

TEST(ExceptionEquivalence, UnresolvableFieldThrowsLazilyEveryTime) {
  // Resolution failure must surface at the executing instruction on the
  // first *and* every later execution (the quickener must not rewrite an
  // instruction whose resolution failed).
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    m.getstatic("app/Missing", "nope", "I").ireturn();
  });
}

TEST(ExceptionEquivalence, UnresolvableMethodThrowsLazilyEveryTime) {
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    m.invokestatic("app/T", "missing", "()I").ireturn();
  });
}

TEST(ExceptionEquivalence, CheckcastFailure) {
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    m.newDefault("java/lang/Object");
    m.checkcast("java/lang/String");
    m.pop().iconst(0).ireturn();
  });
}

TEST(ExceptionEquivalence, ArrayBoundsCaught) {
  expectEnginesAgree([](ClassBuilder& cb) {
    auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
    Label from = m.newLabel(), to = m.newLabel(), handler = m.newLabel();
    m.bind(from).iconst(3).newarray(Kind::Int).iconst(5).iaload().ireturn();
    m.bind(to);
    m.bind(handler).pop().iconst(-1).ireturn();
    m.handler(from, to, handler, "");
  });
}

// ---- isolate-aware statics: the cache must key on the executing isolate ----

// A framework-style shared class whose <clinit> and accessors run in the
// *accessing* isolate (MVM semantics): each bundle must observe its own
// copy of the static under both engines, even though the same rewritten
// instruction executes under several isolates.
TEST(IsolateStatics, PerIsolateCopiesSurviveQuickening) {
  for (ExecEngine engine : kEngines) {
    SCOPED_TRACE(engineName(engine));
    VmOptions opts = VmOptions::isolated();
    opts.exec_engine = engine;
    VM vm(opts);
    installSystemLibrary(vm);

    ClassLoader* shared = vm.registry().newLoader("shared");
    {
      ClassBuilder cb("lib/Counter");
      cb.field("count", "I", ACC_PUBLIC | ACC_STATIC);
      auto& clinit = cb.method("<clinit>", "()V", ACC_STATIC);
      clinit.iconst(100).putstatic("lib/Counter", "count", "I").ret();
      shared->define(cb.build());
    }
    Isolate* iso0 = vm.createIsolate(shared, "platform");
    (void)iso0;

    auto makeBundle = [&](const std::string& pkg) {
      ClassLoader* l = vm.registry().newLoader(pkg, shared);
      ClassBuilder cb(pkg + "/Main");
      auto& bump = cb.method("bump", "(I)I", ACC_PUBLIC | ACC_STATIC);
      // lib/Counter.count += n; return lib/Counter.count
      bump.getstatic("lib/Counter", "count", "I").iload(0).iadd();
      bump.putstatic("lib/Counter", "count", "I");
      bump.getstatic("lib/Counter", "count", "I").ireturn();
      l->define(cb.build());
      vm.createIsolate(l, pkg);
      return l;
    };
    ClassLoader* a = makeBundle("ba");
    ClassLoader* b = makeBundle("bb");

    JThread* t = vm.mainThread();
    auto bump = [&](ClassLoader* l, const std::string& pkg, i32 n) {
      Value r = vm.callStaticIn(t, l, pkg + "/Main", "bump", "(I)I",
                                {Value::ofInt(n)});
      EXPECT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
      return r.asInt();
    };

    // Interleave so each quickened site executes under both isolates:
    // every isolate starts from its own <clinit>-initialized copy (100).
    EXPECT_EQ(bump(a, "ba", 1), 101);
    EXPECT_EQ(bump(b, "bb", 5), 105);
    EXPECT_EQ(bump(a, "ba", 1), 102);
    EXPECT_EQ(bump(b, "bb", 5), 110);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(bump(a, "ba", 1), 103 + i);
    }
    EXPECT_EQ(bump(b, "bb", 5), 115);
  }
}

// ---- polymorphic + megamorphic virtual dispatch through the inline cache ----

TEST(InlineCaches, PolymorphicReceiversDispatchCorrectly) {
  for (ExecEngine engine : kEngines) {
    SCOPED_TRACE(engineName(engine));
    VmOptions opts = VmOptions::isolated();
    opts.exec_engine = engine;
    VM vm(opts);
    installSystemLibrary(vm);
    ClassLoader* app = vm.registry().newLoader("app");

    {
      ClassBuilder base("app/Base");
      auto& m = base.method("tag", "()I", ACC_PUBLIC);
      m.iconst(0).ireturn();
      app->define(base.build());
    }
    for (int k = 1; k <= 12; ++k) {
      ClassBuilder sub("app/Sub" + std::to_string(k), "app/Base");
      auto& m = sub.method("tag", "()I", ACC_PUBLIC);
      m.iconst(k).ireturn();
      app->define(sub.build());
    }
    {
      ClassBuilder cb("app/Drive");
      auto& m = cb.method("call", "(Lapp/Base;)I", ACC_PUBLIC | ACC_STATIC);
      m.aload(0).invokevirtual("app/Base", "tag", "()I").ireturn();
      app->define(cb.build());
    }
    vm.createIsolate(app, "app");
    JThread* t = vm.mainThread();

    // Cycle receivers through one call site: monomorphic hit, miss,
    // re-install, and finally the megamorphic pin -- dispatch must stay
    // exact throughout.
    for (int round = 0; round < 4; ++round) {
      for (int k = 1; k <= 12; ++k) {
        JClass* cls = vm.registry().resolve(app, "app/Sub" + std::to_string(k));
        ASSERT_NE(cls, nullptr);
        Object* obj = vm.allocObject(t, cls);
        ASSERT_NE(obj, nullptr);
        Value r = vm.callStaticIn(t, app, "app/Drive", "call", "(Lapp/Base;)I",
                                  {Value::ofRef(obj)});
        ASSERT_EQ(t->pending_exception, nullptr) << vm.pendingMessage(t);
        EXPECT_EQ(r.asInt(), k);
      }
    }

    // The megamorphic pin must bound cache allocation: 48 polymorphic
    // misses at one site may not allocate 48 entries.
    if (engine != ExecEngine::Classic) {
      auto st = std::static_pointer_cast<exec::ExecState>(
          vm.getExtension(exec::kStateKey));
      ASSERT_NE(st, nullptr);
      EXPECT_LE(st->vcall_ics.size(), exec::kMegamorphicMisses + 2);
    }
  }
}

// ---- attacks: the paper's robustness outcomes must be engine-independent ----

class AttackEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AttackEquivalence, OutcomeMatchesClassicEngine) {
  const AttackId id = static_cast<AttackId>(GetParam());
  AttackOutcome classic = runAttack(id, /*isolated=*/true, ExecEngine::Classic);
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tierName(tier));
    AttackOutcome quick =
        runAttack(id, /*isolated=*/true,
                  tier == Tier::JitOn ? ExecEngine::Jit : ExecEngine::Quickened,
                  [tier](VmOptions& o) { applyTier(o, tier); });
    EXPECT_EQ(classic.victim_unaffected, quick.victim_unaffected)
        << classic.detail << " vs " << quick.detail;
    EXPECT_EQ(classic.attacker_identified, quick.attacker_identified)
        << classic.detail << " vs " << quick.detail;
    EXPECT_EQ(classic.attacker_stopped, quick.attacker_stopped)
        << classic.detail << " vs " << quick.detail;
    EXPECT_TRUE(quick.protectedOutcome()) << quick.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, AttackEquivalence, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               attackName(static_cast<AttackId>(info.param)));
                         });

// ---- randomized cross-tier differential harness ----
// The fixed matrix above forces each tier on/off with thresholds at 0; the
// harness below sweeps the full configuration space the tier ladder
// actually ships -- fusion on/off x jit on/off x osr on/off x fusion/jit
// thresholds in {1, default, huge} x background compilation on/off x
// code-cache budget in {tiny, unlimited} -- under a seeded generator, so
// promotion can happen at entry, mid-invocation via OSR, asynchronously
// from the compiler thread, partially, or not at all, and compiled code
// can be demoted out from under a hot method at any install -- in
// randomized combinations. Every config must be observably identical to
// the classic interpreter. Reproduce a failure by feeding the printed
// seed to configFromSeed().

struct RandomTierConfig {
  bool fusion = true;
  bool jit = true;
  bool osr = true;
  u64 fusion_threshold = 0;
  u64 jit_threshold = 0;
  bool background = false;
  size_t cache_budget = 0;  // 0 = unlimited
  // Thread-count axis: >1 mutator workers runs the workload as that many
  // concurrent bundle copies on the mutator pool; compiler workers only
  // matter with background=1 (the manager spawns max(1, N) builders).
  u32 mutator_threads = 1;
  u32 compiler_threads = 1;
  // Communication axis (docs/comm.md): ownership donation on/off and the
  // vectored channel-send batch size. Exercised by the per-seed comm leg.
  bool comm_zero_copy = true;
  u32 channel_batch = 1;
  // Payoff axis (ISSUE 9, docs/jit.md "Payoff"): with the model on and
  // the sample cap tiny, windows settle (and demotions can fire) inside
  // the short sweep workloads -- compiled code may be yanked by its own
  // measurement at any point, and the run must stay observably classic.
  bool jit_payoff = false;
  u32 jit_payoff_samples = 32;

  std::string describe() const {
    auto th = [](u64 v) {
      return v == ~0ull ? std::string("huge") : strf("%llu", (unsigned long long)v);
    };
    return strf(
        "fusion=%d jit=%d osr=%d fusion_threshold=%s jit_threshold=%s "
        "background=%d cache_budget=%s mutators=%u compilers=%u "
        "zero_copy=%d batch=%u payoff=%d payoff_samples=%u",
        fusion ? 1 : 0, jit ? 1 : 0, osr ? 1 : 0, th(fusion_threshold).c_str(),
        th(jit_threshold).c_str(), background ? 1 : 0,
        cache_budget == 0 ? "unlimited" : strf("%zu", cache_budget).c_str(),
        mutator_threads, compiler_threads, comm_zero_copy ? 1 : 0,
        channel_batch, jit_payoff ? 1 : 0, jit_payoff_samples);
  }
};

RandomTierConfig configFromSeed(u64 seed) {
  Rng rng(seed);
  constexpr u64 kFusionThresholds[] = {1, 256, ~0ull};   // {1, default, huge}
  constexpr u64 kJitThresholds[] = {1, 2048, ~0ull};
  // Tiny = smaller than a single compiled method, so every install
  // overflows and demotes (maximum compile/demote churn); unlimited
  // exercises the steady state.
  constexpr size_t kCacheBudgets[] = {1024, 0};
  RandomTierConfig c;
  c.fusion = rng.nextBounded(2) == 1;
  c.jit = rng.nextBounded(2) == 1;
  c.osr = rng.nextBounded(2) == 1;
  c.fusion_threshold = kFusionThresholds[rng.nextBounded(3)];
  c.jit_threshold = kJitThresholds[rng.nextBounded(3)];
  c.background = rng.nextBounded(2) == 1;
  c.cache_budget = kCacheBudgets[rng.nextBounded(2)];
  // Drawn last so seeds reproduce the same tier config they did before the
  // thread axis existed.
  constexpr u32 kThreadCounts[] = {1, 2, 4};
  c.mutator_threads = kThreadCounts[rng.nextBounded(3)];
  c.compiler_threads = kThreadCounts[rng.nextBounded(3)];
  // Comm axes drawn after the thread axes, same reproducibility rule.
  constexpr u32 kBatches[] = {1, 8, 64};
  c.comm_zero_copy = rng.nextBounded(2) == 1;
  c.channel_batch = kBatches[rng.nextBounded(3)];
  // Payoff axis drawn after the comm axes (reproducibility rule: new
  // axes always append). A cap of 2 settles verdicts almost immediately;
  // 32 is the shipping default.
  constexpr u32 kPayoffSamples[] = {2, 32};
  c.jit_payoff = rng.nextBounded(2) == 1;
  c.jit_payoff_samples = kPayoffSamples[rng.nextBounded(2)];
#ifdef IJVM_TEST_MUTATOR_THREADS
  // CI matrix leg: pin the mutator axis so the whole 200-seed sweep runs
  // through the pool at a fixed worker count.
  c.mutator_threads = IJVM_TEST_MUTATOR_THREADS;
#endif
  return c;
}

void applyConfig(VmOptions& opts, const RandomTierConfig& c) {
  opts.exec_engine = c.jit ? ExecEngine::Jit : ExecEngine::Quickened;
  opts.fusion = c.fusion;
  opts.osr = c.osr;
  opts.fusion_threshold = c.fusion_threshold;
  opts.jit_threshold = c.jit_threshold;
  opts.background_compile = c.background;
  opts.code_cache_budget = c.cache_budget;
  opts.mutator_threads = c.mutator_threads;
  opts.compiler_threads = c.compiler_threads;
  opts.comm_zero_copy = c.comm_zero_copy;
  opts.channel_batch = c.channel_batch;
  opts.jit_payoff = c.jit_payoff;
  opts.jit_payoff_samples = c.jit_payoff_samples;
}

// Multi-threaded variant of runSpecOpts: `copies` identical bundles, one
// pool task each, executed by the VM's mutator pool
// (opts.mutator_threads workers). Returns one SpecRun per bundle. The
// pool may interleave and steal bundles across workers however it likes,
// but it must not change what any single bundle computes or is charged:
// every copy's per-isolate report must match the same-shaped serial
// classic run, element for element.
std::vector<SpecRun> runSpecPooled(const SpecWorkload& wl, i32 size,
                                   const VmOptions& opts, u32 copies) {
  VM vm(opts);
  installSystemLibrary(vm);
  // A separate platform isolate0 keeps every copy a plain bundle: pool
  // workers attach to isolate0 and *migrate* into the bundle they run, so
  // calls-in counts the pool entry like any other inter-isolate call.
  ClassLoader* platform = vm.registry().newLoader("platform");
  vm.createIsolate(platform, "platform");
  struct Copy {
    ClassLoader* loader = nullptr;
    Isolate* iso = nullptr;
    std::atomic<i32> checksum{0};
  };
  std::vector<std::unique_ptr<Copy>> bundles;
  for (u32 k = 0; k < copies; ++k) {
    auto c = std::make_unique<Copy>();
    const std::string name = strf("spec-%u", k);
    c->loader = vm.registry().newLoader(name);
    c->iso = vm.createIsolate(c->loader, name);
    bundles.push_back(std::move(c));
  }
  MutatorPool& pool = vm.mutatorPool();
  for (auto& b : bundles) {
    Copy* copy = b.get();
    pool.submit(
        [&vm, &wl, copy, size](JThread* t) {
          copy->checksum.store(runSpecWorkload(vm, t, copy->loader, wl, size),
                               std::memory_order_release);
        },
        copy->iso);
  }
  pool.drain();
  // Charges are reachability-based; compare them after a full collection.
  vm.collectGarbage(vm.mainThread(), nullptr);
  std::vector<SpecRun> out;
  for (auto& b : bundles) {
    SpecRun r;
    r.checksum = b->checksum.load(std::memory_order_acquire);
    r.bytes_charged = b->iso->stats.bytes_charged.load();
    r.objects_charged = b->iso->stats.objects_charged.load();
    r.objects_allocated = b->iso->stats.objects_allocated.load();
    r.calls_in = b->iso->stats.calls_in.load();
    out.push_back(r);
  }
  return out;
}

// CI requirement: at least 200 seeded configurations pass.
constexpr int kRandomConfigs = 200;
constexpr u64 kSeedBase = 0xD1FFC0DE0000ull;

// Classic-engine baselines, computed once per workload and shared by all
// random configs (the classic interpreter has no tiers to randomize).
const SpecRun& classicSpecBaseline(int wl_index, i32 size) {
  static std::map<int, SpecRun> cache;
  auto it = cache.find(wl_index);
  if (it == cache.end()) {
    const SpecWorkload wl = specWorkloads()[static_cast<size_t>(wl_index)];
    it = cache.emplace(wl_index, runSpec(wl, ExecEngine::Classic, size)).first;
  }
  return it->second;
}

// Serial classic oracle for the pooled shape: the same platform + N-copy
// bundle layout, run by a ONE-worker pool under the classic interpreter.
// Per-isolate observables cannot legally depend on the worker count, so
// every multi-threaded tiered run is compared copy-by-copy against this.
const std::vector<SpecRun>& classicPooledBaseline(int wl_index, i32 size,
                                                  u32 copies) {
  static std::map<std::pair<int, u32>, std::vector<SpecRun>> cache;
  const auto key = std::make_pair(wl_index, copies);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const SpecWorkload wl = specWorkloads()[static_cast<size_t>(wl_index)];
    VmOptions opts = VmOptions::isolated();
    opts.exec_engine = ExecEngine::Classic;
    opts.mutator_threads = 1;
    it = cache.emplace(key, runSpecPooled(wl, size, opts, copies)).first;
  }
  return it->second;
}

const AttackOutcome& classicAttackBaseline(int attack_index) {
  static std::map<int, AttackOutcome> cache;
  auto it = cache.find(attack_index);
  if (it == cache.end()) {
    it = cache
             .emplace(attack_index,
                      runAttack(static_cast<AttackId>(attack_index),
                                /*isolated=*/true, ExecEngine::Classic))
             .first;
  }
  return it->second;
}

// ---- inter-isolate communication leg (docs/comm.md) ----
//
// Every seeded config also runs a deterministic two-isolate message
// workload: 12 seeded graphs (shared payload arrays, a cycle, SSO-sized
// labels, some interned) are sent through transferGraph AND through a
// writev-batched serialize/deserialize loopback channel honoring
// opts.channel_batch; the receiver runs a guest sum() over every payload
// (exercising whatever tier ladder the config enables). The checksum and
// the post-GC per-isolate charges must match the classic copy-only
// oracle exactly -- donation and batching have to be observably free.
struct CommRun {
  i64 checksum = 0;
  u64 sender_bytes = 0, receiver_bytes = 0;
  u64 sender_objects = 0, receiver_objects = 0;
  u64 donated_out = 0;  // sanity only, never compared cross-mode
};

CommRun runCommRun(const VmOptions& opts) {
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* platform = vm.registry().newLoader("platform");
  vm.createIsolate(platform, "platform");
  ClassLoader* sl = vm.registry().newLoader("comm-send");
  Isolate* iso_s = vm.createIsolate(sl, "comm-send");
  ClassLoader* rl = vm.registry().newLoader("comm-recv");
  Isolate* iso_r = vm.createIsolate(rl, "comm-recv");
  JThread* st = vm.attachThread("comm-send", iso_s);
  JThread* rt = vm.attachThread("comm-recv", iso_r);

  // Message class lives in the receiver's loader so deserializeGraph can
  // resolve it; the sender allocates instances directly from the JClass*.
  {
    ClassBuilder cb("c/Msg");
    cb.field("value", "I");
    cb.field("label", "Ljava/lang/String;");
    cb.field("payload", "[I");
    cb.field("next", "Lc/Msg;");
    rl->define(cb.build());
  }
  {
    ClassBuilder cb("c/Lib");
    auto& m = cb.method("sum", "([I)I", ACC_PUBLIC | ACC_STATIC);
    Label loop = m.newLabel(), done = m.newLabel();
    m.iconst(0).istore(1).iconst(0).istore(2);
    m.bind(loop).iload(1).aload(0).arraylength().ifIcmpGe(done);
    m.aload(0).iload(1).iaload().iload(2).iadd().istore(2);
    m.iinc(1, 1).gotoLabel(loop);
    m.bind(done).iload(2).ireturn();
    rl->define(cb.build());
  }
  JClass* msg_cls = rl->find("c/Msg");
  JField* value_f = msg_cls->findField("value");
  JField* label_f = msg_cls->findField("label");
  JField* payload_f = msg_cls->findField("payload");
  JField* next_f = msg_cls->findField("next");

  i64 h = 1469598103934665603LL;
  auto mix = [&h](i64 v) { h = static_cast<i64>((static_cast<u64>(h) ^
                                                 static_cast<u64>(v)) *
                                                1099511628211ull); };
  // Receiver-side view of one message pair a -> b -> a: field values,
  // payload sums via the guest method, and the aliasing structure.
  auto digest = [&](Object* a) {
    if (a == nullptr) {
      mix(-1);
      return;
    }
    auto guestSum = [&](Object* arr) -> i64 {
      Value r = vm.callStaticIn(rt, rl, "c/Lib", "sum", "([I)I",
                                {Value::ofRef(arr)});
      if (rt->pending_exception != nullptr) {
        vm.clearPending(rt);
        return -0x5EED;
      }
      return r.asInt();
    };
    mix(a->fields()[value_f->slot].asInt());
    Object* la = a->fields()[label_f->slot].asRef();
    mix(la != nullptr ? static_cast<i64>(la->str().size()) : -1);
    if (la != nullptr) {
      for (char ch : la->str()) mix(ch);
    }
    mix(guestSum(a->fields()[payload_f->slot].asRef()));
    Object* b = a->fields()[next_f->slot].asRef();
    if (b != nullptr) {
      mix(b->fields()[value_f->slot].asInt());
      mix(guestSum(b->fields()[payload_f->slot].asRef()));
      mix(b->fields()[next_f->slot].asRef() == a ? 1 : 0);  // cycle kept
      mix(a->fields()[payload_f->slot].asRef() ==
                  b->fields()[payload_f->slot].asRef()
              ? 1
              : 0);  // sharing kept
    }
  };

  auto channel = ByteChannel::loopback();
  const u32 batch = opts.channel_batch == 0 ? 1 : opts.channel_batch;
  std::vector<std::string> frames;  // header,body per queued message
  std::vector<GlobalRef*> kept;
  constexpr int kMessages = 12;

  Rng rng(0xC0DE5EEDull);
  for (int i = 0; i < kMessages; ++i) {
    LocalRootScope roots(st);
    Object* a = roots.add(vm.allocObject(st, msg_cls));
    Object* b = roots.add(vm.allocObject(st, msg_cls));
    const i32 len =
        i % 4 == 3 ? 1024 : 32 + static_cast<i32>(rng.nextBounded(64));
    Object* arr =
        roots.add(vm.allocArrayObject(st, vm.registry().arrayClass("[I"), len));
    if (a == nullptr || b == nullptr || arr == nullptr) {
      mix(-2);
      continue;
    }
    for (i32 k = 0; k < len; ++k) arr->intElems()[k] = rng.nextInt();
    // SSO-sized labels keep string charges byte-identical across the
    // donate-vs-copy modes; every fifth is interned (donation-ineligible).
    std::string label =
        strf("m%x", static_cast<unsigned>(rng.nextBounded(1u << 16)));
    Object* s = i % 5 == 0 ? vm.internString(st, label)
                           : vm.newStringObject(st, label);
    if (s != nullptr) roots.add(s);
    a->fields()[value_f->slot] = Value::ofInt(rng.nextInt());
    a->fields()[label_f->slot] = Value::ofRef(s);
    a->fields()[payload_f->slot] = Value::ofRef(arr);
    a->fields()[next_f->slot] = Value::ofRef(b);
    b->fields()[value_f->slot] = Value::ofInt(rng.nextInt());
    b->fields()[payload_f->slot] = Value::ofRef(arr);  // shared subobject
    b->fields()[next_f->slot] = Value::ofRef(a);       // cycle

    // Channel leg first: encoding walks the graph read-only, so it must
    // happen before transferGraph donates the payload away. Frames are
    // flushed in channel_batch-sized vectored sends and decoded after the
    // loop, so the observable order is batch-independent.
    std::string enc = serializeGraph(vm, a);
    frames.push_back(strf("%09zu\n", enc.size()));
    frames.push_back(std::move(enc));
    if (frames.size() >= 2 * static_cast<size_t>(batch)) {
      channel->writev(frames.data(), frames.size());
      frames.clear();
    }

    LocalRootScope got_scope(rt);
    Object* got = transferGraph(vm, rt, iso_s, a);
    if (got != nullptr) got_scope.add(got);
    if (rt->pending_exception != nullptr) vm.clearPending(rt);
    digest(got);
    if (got != nullptr && i % 3 == 0) {
      kept.push_back(vm.addGlobalRef(got, iso_r));
    }
  }
  if (!frames.empty()) channel->writev(frames.data(), frames.size());

  for (int i = 0; i < kMessages; ++i) {
    std::string hdr, body;
    if (!channel->readFully(&hdr, 10)) {
      mix(-3);
      break;
    }
    const size_t len = static_cast<size_t>(std::stoll(hdr));
    if (!channel->readFully(&body, len)) {
      mix(-3);
      break;
    }
    LocalRootScope back_scope(rt);
    Object* back = deserializeGraph(vm, rt, body);
    if (back != nullptr) back_scope.add(back);
    if (rt->pending_exception != nullptr) vm.clearPending(rt);
    digest(back);
    if (back != nullptr && i % 4 == 0) {
      kept.push_back(vm.addGlobalRef(back, iso_r));
    }
  }

  // Charges are reachability-based; compare them after a full collection.
  vm.collectGarbage(vm.mainThread(), nullptr);
  CommRun out;
  out.checksum = h;
  out.sender_bytes = iso_s->stats.bytes_charged.load();
  out.receiver_bytes = iso_r->stats.bytes_charged.load();
  out.sender_objects = iso_s->stats.objects_charged.load();
  out.receiver_objects = iso_r->stats.objects_charged.load();
  out.donated_out = iso_s->stats.objects_donated_out.load();
  for (GlobalRef* ref : kept) vm.removeGlobalRef(ref);
  vm.detachThread(st);
  vm.detachThread(rt);
  return out;
}

const CommRun& classicCommBaseline() {
  static const CommRun baseline = [] {
    VmOptions opts = VmOptions::isolated();
    opts.exec_engine = ExecEngine::Classic;
    opts.comm_zero_copy = false;
    opts.channel_batch = 1;
    return runCommRun(opts);
  }();
  return baseline;
}

class RandomTierDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomTierDifferential, MatchesClassicUnderRandomTierConfig) {
  const int index = GetParam();
  const u64 seed = kSeedBase + static_cast<u64>(index);
  const RandomTierConfig cfg = configFromSeed(seed);
  SCOPED_TRACE(strf("seed=0x%llx (%s)", (unsigned long long)seed,
                    cfg.describe().c_str()));

  {
    // Communication leg: identical messages, sums and post-GC charges
    // regardless of donation mode, batch size, or tier config.
    VmOptions opts = VmOptions::isolated();
    applyConfig(opts, cfg);
    const CommRun& classic = classicCommBaseline();
    const CommRun run = runCommRun(opts);
    EXPECT_EQ(classic.checksum, run.checksum);
    EXPECT_EQ(classic.sender_bytes, run.sender_bytes);
    EXPECT_EQ(classic.receiver_bytes, run.receiver_bytes);
    EXPECT_EQ(classic.sender_objects, run.sender_objects);
    EXPECT_EQ(classic.receiver_objects, run.receiver_objects);
    EXPECT_EQ(classic.donated_out, 0u);
    if (cfg.comm_zero_copy) {
      EXPECT_GT(run.donated_out, 0u);
    } else {
      EXPECT_EQ(run.donated_out, 0u);
    }
  }

  // Workloads cycle deterministically so the 200 configs spread across all
  // seven SPEC analogs and all eight attacks.
  const int kSpecCount = 7, kAttackCount = 8;
  const int pick = index % (kSpecCount + kAttackCount);
  if (pick < kSpecCount) {
    const SpecWorkload wl = specWorkloads()[static_cast<size_t>(pick)];
    SCOPED_TRACE(strf("workload=%s", wl.name.c_str()));
    const i32 size = std::max(1, wl.default_size / 8);
    VmOptions opts = VmOptions::isolated();
    applyConfig(opts, cfg);
    if (cfg.mutator_threads > 1) {
      // Thread-count leg: one bundle copy per pool worker, each compared
      // against the serial classic run of the identical shape.
      const u32 copies = cfg.mutator_threads;
      const std::vector<SpecRun>& classic =
          classicPooledBaseline(pick, size, copies);
      const std::vector<SpecRun> runs = runSpecPooled(wl, size, opts, copies);
      ASSERT_EQ(classic.size(), runs.size());
      for (size_t k = 0; k < runs.size(); ++k) {
        SCOPED_TRACE(strf("bundle=%zu", k));
        EXPECT_EQ(classic[k].checksum, runs[k].checksum);
        EXPECT_EQ(classic[k].calls_in, runs[k].calls_in);
        EXPECT_EQ(classic[k].bytes_charged, runs[k].bytes_charged);
        EXPECT_EQ(classic[k].objects_charged, runs[k].objects_charged);
        if (wl.name != "mtrt") {  // thread interleaving (see SpecEquivalence)
          EXPECT_EQ(classic[k].objects_allocated, runs[k].objects_allocated);
        }
        EXPECT_LE(runs[k].objects_charged, runs[k].objects_allocated);
      }
      return;
    }
    const SpecRun& classic = classicSpecBaseline(pick, size);
    SpecRun run = runSpecOpts(wl, size, opts);
    // Identical results and identical reachability-based charges.
    EXPECT_EQ(classic.checksum, run.checksum);
    EXPECT_EQ(classic.calls_in, run.calls_in);
    EXPECT_EQ(classic.bytes_charged, run.bytes_charged);
    EXPECT_EQ(classic.objects_charged, run.objects_charged);
    if (wl.name != "mtrt") {  // thread interleaving (see SpecEquivalence)
      EXPECT_EQ(classic.objects_allocated, run.objects_allocated);
    }
    // ResourceStats invariants that must hold under every tier config.
    EXPECT_LE(run.objects_charged, run.objects_allocated);
    if (run.bytes_charged == 0) {
      EXPECT_EQ(run.objects_charged, 0u);
    }
  } else {
    const int attack = pick - kSpecCount;
    SCOPED_TRACE(strf("attack=%s", attackName(static_cast<AttackId>(attack))));
    const AttackOutcome& classic = classicAttackBaseline(attack);
    AttackOutcome run =
        runAttack(static_cast<AttackId>(attack), /*isolated=*/true,
                  cfg.jit ? ExecEngine::Jit : ExecEngine::Quickened,
                  [&cfg](VmOptions& o) { applyConfig(o, cfg); });
    EXPECT_EQ(classic.victim_unaffected, run.victim_unaffected)
        << classic.detail << " vs " << run.detail;
    EXPECT_EQ(classic.attacker_identified, run.attacker_identified)
        << classic.detail << " vs " << run.detail;
    EXPECT_EQ(classic.attacker_stopped, run.attacker_stopped)
        << classic.detail << " vs " << run.detail;
    EXPECT_TRUE(run.protectedOutcome()) << run.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(SeededConfigs, RandomTierDifferential,
                         ::testing::Range(0, kRandomConfigs));

// The runtime switches are the only way to turn fusion, OSR, background
// compilation and zero-copy donation off, so the fixed sweep above must
// reach each off-state often enough to stand in for a dedicated build
// (the tier axes only matter with tier 3 on).
TEST(RandomTierDifferentialCoverage, SweepReachesEveryOffSwitch) {
  int no_fusion = 0, no_osr = 0, no_background = 0, no_zero_copy = 0;
  for (int index = 0; index < kRandomConfigs; ++index) {
    const RandomTierConfig c =
        configFromSeed(kSeedBase + static_cast<u64>(index));
    no_fusion += c.jit && !c.fusion;
    no_osr += c.jit && !c.osr;
    no_background += c.jit && !c.background;
    no_zero_copy += !c.comm_zero_copy;
  }
  constexpr int kMinPerAxis = 20;
  EXPECT_GE(no_fusion, kMinPerAxis) << "jit && !fusion";
  EXPECT_GE(no_osr, kMinPerAxis) << "jit && !osr";
  EXPECT_GE(no_background, kMinPerAxis) << "jit && !background";
  EXPECT_GE(no_zero_copy, kMinPerAxis) << "!comm_zero_copy";
}

// ---- the quickened stream itself: rewrites + disassembly ----

TEST(Quickening, DisassemblyShowsQuickenedForms) {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Quickened;
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  ClassBuilder cb("app/T");
  cb.field("s", "I", ACC_PUBLIC | ACC_STATIC);
  auto& m = cb.method("f", "()I", ACC_PUBLIC | ACC_STATIC);
  m.getstatic("app/T", "s", "I").iconst(1).iadd();
  m.putstatic("app/T", "s", "I");
  m.getstatic("app/T", "s", "I").ireturn();
  app->define(cb.build());
  vm.createIsolate(app, "app");

  JClass* cls = vm.registry().resolve(app, "app/T");
  ASSERT_NE(cls, nullptr);
  JMethod* method = cls->findMethod("f", "()I");
  ASSERT_NE(method, nullptr);
  EXPECT_EQ(exec::disasmQuickened(vm, method), "");  // not yet executed

  Value r = vm.callStaticIn(vm.mainThread(), app, "app/T", "f", "()I", {});
  ASSERT_EQ(vm.mainThread()->pending_exception, nullptr);
  EXPECT_EQ(r.asInt(), 1);

  std::string dis = exec::disasmQuickened(vm, method);
  EXPECT_NE(dis.find("GETSTATIC_Q"), std::string::npos) << dis;
  EXPECT_NE(dis.find("PUTSTATIC_Q"), std::string::npos) << dis;
  EXPECT_NE(dis.find("app/T.s:I"), std::string::npos) << dis;

  // Profile counters moved (engine seam for the governor / future tiers).
  EXPECT_EQ(method->profile_invocations.load(), 1u);
  Isolate* iso = vm.isolateById(0);
  ASSERT_NE(iso, nullptr);
  EXPECT_GE(iso->stats.method_invocations.load(), 1u);
}

TEST(Quickening, LoopEdgeCountersAccumulate) {
  VmOptions opts = VmOptions::isolated();
  opts.exec_engine = ExecEngine::Quickened;
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  ClassBuilder cb("app/Loop");
  auto& m = cb.method("f", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label head = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(1);
  m.bind(head).iload(1).iload(0).ifIcmpGe(done);
  m.iinc(1, 1).gotoLabel(head);
  m.bind(done).iload(1).ireturn();
  app->define(cb.build());
  vm.createIsolate(app, "app");

  Value r = vm.callStaticIn(vm.mainThread(), app, "app/Loop", "f", "(I)I",
                            {Value::ofInt(1000)});
  ASSERT_EQ(vm.mainThread()->pending_exception, nullptr);
  EXPECT_EQ(r.asInt(), 1000);

  JMethod* method =
      vm.registry().resolve(app, "app/Loop")->findMethod("f", "(I)I");
  ASSERT_NE(method, nullptr);
  EXPECT_GE(method->profile_loop_edges.load(), 1000u);
  Isolate* iso = vm.isolateById(0);
  EXPECT_GE(iso->stats.loop_back_edges.load(), 1000u);
}

}  // namespace
}  // namespace ijvm
