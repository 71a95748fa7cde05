// Safepoint protocol under concurrent stop-the-world pressure.
//
// Regression suite for a real deadlock: a guest thread requesting a
// stop-the-world (e.g. an allocation-triggered GC) while another stopper
// holds the operation lock used to block on that lock while still counted
// as Running, so the current stopper waited for it forever. The fix parks
// guest requesters before they contend for the lock
// (SafepointController::stopTheWorld). These tests drive many concurrent
// stoppers of both kinds (guest allocation GCs, admin GCs, terminations)
// and must simply complete.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bytecode/builder.h"
#include "runtime/mutator_pool.h"
#include "runtime/vm.h"
#include "stdlib/system_library.h"
#include "support/strf.h"

namespace ijvm {
namespace {

using namespace std::chrono;

// Guest class whose churn(n) allocates n arrays without retaining them --
// with a tiny gc_threshold every call storms the GC from guest context.
void defineChurn(ClassLoader* loader) {
  ClassBuilder cb("sp/Churn");
  auto& m = cb.method("churn", "(I)I", ACC_PUBLIC | ACC_STATIC);
  Label loop = m.newLabel(), done = m.newLabel();
  m.iconst(0).istore(1);
  m.bind(loop).iload(1).iload(0).ifIcmpGe(done);
  m.iconst(256).newarray(Kind::Int).pop();
  m.iinc(1, 1).gotoLabel(loop);
  m.bind(done).iload(1).ireturn();
  loader->define(cb.build());
}

TEST(SafepointStressTest, ConcurrentGuestGcRequestersDoNotDeadlock) {
  VmOptions opts;
  opts.gc_threshold = 64u << 10;  // force frequent guest-triggered GCs
  opts.heap_limit = 64u << 20;
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  Isolate* iso = vm.createIsolate(app, "app");
  defineChurn(app);

  // Several guest threads storming the allocator: each one periodically
  // becomes a stop-the-world *requester* from guest context while the
  // others are Running.
  constexpr int kThreads = 6;
  std::atomic<int> finished{0};
  std::vector<std::thread> workers;
  for (int k = 0; k < kThreads; ++k) {
    JThread* t = vm.attachThread(strf("w%d", k), iso);
    workers.emplace_back([&vm, &finished, t, app] {
      for (int round = 0; round < 20; ++round) {
        vm.callStaticIn(t, app, "sp/Churn", "churn", "(I)I",
                        {Value::ofInt(400)});
      }
      finished.fetch_add(1, std::memory_order_release);
      vm.detachThread(t);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(finished.load(), kThreads);
  EXPECT_GT(vm.gcCount(), 5u);  // the storm really did trigger collections
}

TEST(SafepointStressTest, GuestGcRacesAdminGcAndTermination) {
  VmOptions opts;
  opts.gc_threshold = 64u << 10;
  opts.heap_limit = 64u << 20;
  VM vm(opts);
  installSystemLibrary(vm);
  ClassLoader* l0 = vm.registry().newLoader("main");
  vm.createIsolate(l0, "main");

  // Guest churners in short-lived victim isolates; an admin thread GCs and
  // terminates concurrently -- non-guest stop-the-worlds racing guest ones.
  std::atomic<bool> stop{false};
  std::thread admin([&] {
    while (!stop.load(std::memory_order_acquire)) {
      vm.collectGarbage(nullptr, nullptr);
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  for (int round = 0; round < 6; ++round) {
    ClassLoader* lv = vm.registry().newLoader(strf("v%d", round));
    Isolate* victim = vm.createIsolate(lv, strf("v%d", round));
    defineChurn(lv);

    std::atomic<bool> done{false};
    JThread* t = vm.attachThread("victim-worker", victim);
    std::thread worker([&vm, &done, t, lv] {
      // Big churn: will usually be cut short by the termination below.
      vm.callStaticIn(t, lv, "sp/Churn", "churn", "(I)I",
                      {Value::ofInt(2000000)});
      vm.clearPending(t);
      done.store(true, std::memory_order_release);
      vm.detachThread(t);
    });
    std::this_thread::sleep_for(milliseconds(10));
    ASSERT_TRUE(vm.terminateIsolate(vm.mainThread(), victim));
    auto deadline = steady_clock::now() + seconds(10);
    while (!done.load(std::memory_order_acquire) &&
           steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_TRUE(done.load()) << "victim worker stuck after termination";
    worker.join();
  }
  stop.store(true, std::memory_order_release);
  admin.join();
}

// ---- the mutator pool must not stretch stop-the-world entry ----
//
// Allocation churn submitted to the pool makes every worker a periodic
// stop-the-world requester while the others are Running; the time-to-stop
// (stop request -> every mutator parked) must stay within an absolute
// ceiling at every worker count. The ceiling is deliberately loose
// (scheduler noise on loaded CI), but it is flat: a protocol whose stop
// time grew with the thread count -- or a reclamation pass that still
// parked the world -- would blow through it at 4 workers. Read from the
// controller's always-on record, so builds without tracing check it too.
TEST(SafepointStressTest, TimeToStopStaysBoundedAsMutatorPoolScales) {
  constexpr u64 kCeilingNs = 250ull * 1000 * 1000;  // 250 ms
  for (u32 workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(strf("workers=%u", workers));
    VmOptions opts;
    opts.gc_threshold = 64u << 10;  // force frequent guest-triggered GCs
    opts.heap_limit = 64u << 20;
    opts.mutator_threads = workers;
    VM vm(opts);
    installSystemLibrary(vm);
    ClassLoader* app = vm.registry().newLoader("app");
    Isolate* iso = vm.createIsolate(app, "app");
    defineChurn(app);

    MutatorPool& pool = vm.mutatorPool();
    for (u32 k = 0; k < workers * 4; ++k) {
      pool.submit(
          [&vm, app](JThread* t) {
            for (int round = 0; round < 6; ++round) {
              vm.callStaticIn(t, app, "sp/Churn", "churn", "(I)I",
                              {Value::ofInt(300)});
              EXPECT_EQ(t->pending_exception, nullptr);
            }
          },
          iso);
    }
    pool.drain();
    EXPECT_GT(vm.gcCount(), 0u) << "churn never stormed the GC";

    const SafepointController& sp = vm.safepoints();
    ASSERT_GT(sp.stopCount(), 0u) << "no stop-the-world was ever timed";
    EXPECT_LE(sp.maxTimeToStopNs(), kCeilingNs)
        << "time-to-stop max " << sp.maxTimeToStopNs() << " ns at " << workers
        << " pool workers (" << sp.stopCount() << " stops)";
  }
}

TEST(SafepointStressTest, BlockedScopeRestoresRunningState) {
  VM vm;
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("app");
  Isolate* iso = vm.createIsolate(app, "app");

  // A guest method that sleeps: while parked the thread must read Blocked
  // (the CPU sampler skips it, paper 3.2), and it must be Running again
  // right after.
  ClassBuilder cb("sp/Sleeper");
  auto& m = cb.method("nap", "()V", ACC_PUBLIC | ACC_STATIC);
  m.lconst(150).invokestatic("java/lang/Thread", "sleep", "(J)V");
  m.ret();
  app->define(cb.build());

  JThread* t = vm.attachThread("sleeper", iso);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    vm.callStaticIn(t, app, "sp/Sleeper", "nap", "()V", {});
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(t->state.load(), ThreadState::Blocked)
      << "sleeping guest thread still counted Running (CPU sampler would "
         "bill it)";
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  worker.join();
  vm.detachThread(t);
}

// ---- pool wakeup and shutdown contracts ----
//
// Regression for a lost-wakeup race: a worker whose take() came up empty
// parked on the idle CV without rechecking the deques under the lock, so a
// submit() landing in that window could notify nobody and strand its task
// -- every later drain() then hung. Tiny tasks drained in small batches
// maximize park/unpark churn; with the unfixed code this hangs within a
// few hundred rounds.
TEST(SafepointStressTest, SubmitNeverStrandsTaskAcrossIdleParking) {
  VmOptions opts;
  opts.mutator_threads = 2;
  VM vm(opts);
  installSystemLibrary(vm);
  vm.createIsolate(vm.registry().newLoader("app"), "app");
  MutatorPool& pool = vm.mutatorPool();
  std::atomic<u64> ran{0};
  u64 expected = 0;
  for (int round = 0; round < 2000; ++round) {
    const int batch = 1 + (round % 3);
    for (int k = 0; k < batch; ++k) {
      pool.submit(
          [&ran](JThread*) { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    expected += batch;
    pool.drain();  // hangs forever if any task was stranded
    ASSERT_EQ(ran.load(std::memory_order_relaxed), expected);
  }
  EXPECT_EQ(pool.tasksCompleted(), expected);
}

// shutdown() promises that already-queued tasks still run: workers may
// only exit once the deques are verifiably empty, even when stop_ was set
// while they were between a failed take() and the idle wait.
TEST(SafepointStressTest, ShutdownRunsAlreadyQueuedTasks) {
  VmOptions opts;
  opts.mutator_threads = 4;
  VM vm(opts);
  installSystemLibrary(vm);
  vm.createIsolate(vm.registry().newLoader("app"), "app");
  MutatorPool& pool = vm.mutatorPool();
  std::atomic<u64> ran{0};
  constexpr u64 kTasks = 512;
  for (u64 k = 0; k < kTasks; ++k) {
    pool.submit(
        [&ran](JThread*) { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.shutdown();  // joins workers; every queued task must have run
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(pool.tasksCompleted(), kTasks);
}

// submit() after shutdown() is dropped: nothing could ever run it, and
// counting it as submitted would hang the next drain().
TEST(SafepointStressTest, SubmitAfterShutdownIsDroppedAndDrainReturns) {
  VmOptions opts;
  opts.mutator_threads = 2;
  VM vm(opts);
  installSystemLibrary(vm);
  vm.createIsolate(vm.registry().newLoader("app"), "app");
  MutatorPool& pool = vm.mutatorPool();
  std::atomic<u64> ran{0};
  pool.submit(
      [&ran](JThread*) { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1u);
  pool.submit([](JThread*) { ADD_FAILURE() << "task ran after shutdown"; });
  pool.drain();  // must return immediately: the late submit was dropped
  EXPECT_EQ(pool.tasksCompleted(), 1u);
}

}  // namespace
}  // namespace ijvm
