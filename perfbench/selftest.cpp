// Self-tests for the benchmark's own logic (run by run.py before every
// benchmark run; exits non-zero on the first failed check):
//  * the same seed gives identical inputs, another seed different ones;
//  * the percentile helper follows the >= 10-samples-beyond rule;
//  * the open-loop timer charges a stalled handler's delay to the requests
//    queued behind it (no coordinated omission);
//  * span self time is duration minus the union of direct children;
//  * the pinned SPEC checksums match the classic interpreter and the C++
//    reference implementations.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "openloop.h"
#include "spans.h"
#include "stats.h"
#include "stdlib/system_library.h"
#include "workloads/spec.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

bool sameGraph(const perfbench::GraphReq& a, const perfbench::GraphReq& b) {
  if (a.server != b.server || a.channel != b.channel || a.shared != b.shared ||
      a.expected != b.expected || a.recs.size() != b.recs.size()) {
    return false;
  }
  for (size_t k = 0; k < a.recs.size(); ++k) {
    const auto& x = a.recs[k];
    const auto& y = b.recs[k];
    if (x.name != y.name || x.vals != y.vals || x.left != y.left ||
        x.right != y.right || x.alias != y.alias) {
      return false;
    }
  }
  return true;
}

void testSeededInputs() {
  int differ_donate = 0, differ_graph = 0, differ_spec = 0, channel = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto d1 = perfbench::makeDonateReq(42, i, 4);
    const auto d2 = perfbench::makeDonateReq(42, i, 4);
    const auto d3 = perfbench::makeDonateReq(43, i, 4);
    check(d1.vals == d2.vals && d1.server == d2.server && d1.expected == d2.expected,
          "donate request repeats under the same seed");
    check(d1.vals.size() >= perfbench::kMinDonateInts &&
              d1.vals.size() <= perfbench::kMaxDonateInts,
          "donate payload length in range");
    differ_donate += d1.vals != d3.vals;

    const auto g1 = perfbench::makeGraphReq(42, i, 4);
    const auto g2 = perfbench::makeGraphReq(42, i, 4);
    const auto g3 = perfbench::makeGraphReq(43, i, 4);
    check(sameGraph(g1, g2), "graph request repeats under the same seed");
    differ_graph += !sameGraph(g1, g3);
    channel += g1.channel;
    const int recs = static_cast<int>(g1.recs.size());
    check(recs >= perfbench::kMinRecords && recs <= perfbench::kMaxRecords,
          "record count in range");
    // A tree: every record but the root has exactly one parent; the
    // shared record is reached a second time through one alias.
    std::vector<int> parents(g1.recs.size(), 0);
    int aliases = 0;
    for (const auto& r : g1.recs) {
      if (r.left >= 0) ++parents[static_cast<size_t>(r.left)];
      if (r.right >= 0) ++parents[static_cast<size_t>(r.right)];
      if (r.alias >= 0) {
        ++aliases;
        check(r.alias == g1.shared, "alias points at the shared record");
      }
    }
    check(parents[0] == 0, "root has no parent");
    for (size_t k = 1; k < parents.size(); ++k) check(parents[k] == 1, "tree shape");
    check(aliases == 1, "exactly one shared node");

    differ_spec += perfbench::specProgram(42, i, 7) != perfbench::specProgram(43, i, 7);
    check(perfbench::specProgram(42, i, 7) == perfbench::specProgram(42, i, 7),
          "spec order repeats under the same seed");
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<int> seen(7, 0);
    for (int k = 0; k < 7; ++k) ++seen[static_cast<size_t>(perfbench::specProgram(9, round * 7 + k, 7))];
    for (int c : seen) check(c == 1, "each spec round is a permutation");
  }
  check(differ_donate > n * 9 / 10, "another seed changes donate inputs");
  check(differ_graph > n * 9 / 10, "another seed changes graph inputs");
  check(differ_spec > n / 2, "another seed changes the spec order");
  const double share = static_cast<double>(channel) / n;
  check(share > 0.2 && share < 0.3, "about one graph request in four takes the channel");
}

void testPercentileRule() {
  using perfbench::highestSupported;
  check(highestSupported(19) == 0, "n=19 supports no percentile");
  check(highestSupported(20) == 50, "n=20 supports p50 only");
  check(highestSupported(99) == 50, "n=99: p90 has 9 beyond");
  check(highestSupported(100) == 90, "n=100 supports p90");
  check(highestSupported(999) == 90, "n=999: p99 has 9 beyond");
  check(highestSupported(1000) == 99, "n=1000 supports p99");
  check(highestSupported(10000) == 99.9, "n=10000 supports p99.9");
  check(perfbench::samplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  const perfbench::Summary s = perfbench::summarize(v);
  check(s.p50 == 50 && s.p99 == 99 && s.n == 100, "nearest-rank p50/p99");
  check(s.tail_p == 90 && s.tail == 90 && !s.p99_supported, "tail of 100 samples is p90");
}

// A handler that runs inline on the generator (the worst case: the
// generator itself is stalled) and stops for 40 ms at request 50. Every
// request due during the stall must show the wait it suffered.
void testNoCoordinatedOmission() {
  const double rate = 2000;  // one request every 500 us
  const uint64_t n = 300, stalled = 50;
  const int64_t stall_ns = 40'000'000;
  std::vector<int64_t> sent(n), done(n);
  const perfbench::Schedule s(perfbench::nowNs() + 1'000'000, rate);
  const int64_t end = s.due(n - 1) + 1;
  const auto run = perfbench::runOpenLoop(
      s, end, [](uint64_t) {},
      [&](uint64_t i, int64_t sent_ns) {
        sent[i] = sent_ns;
        if (i == stalled) std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        done[i] = perfbench::nowNs();
      },
      [] { return false; });
  check(run.sent == n, "the open loop sends every request, late or not");
  int over_10ms = 0;
  for (uint64_t i = stalled; i < n; ++i) {
    const int64_t lat = s.latencyNs(i, done[i]);
    // Due (i - stalled) periods after the stalled one, so it waited for
    // the rest of the stall.
    const int64_t owed = stall_ns - static_cast<int64_t>((i - stalled) * s.periodNs());
    if (owed > 1'000'000) check(lat >= owed - 1'000'000, "request queued behind the stall is charged for it");
    over_10ms += lat > 10'000'000;
  }
  check(over_10ms >= 55, "the stall shows in ~60 requests' latency");
  // The same requests timed from when they were actually sent look fast:
  // that is the omission the due-time clock prevents.
  check(done[stalled + 10] - sent[stalled + 10] < 5'000'000,
        "a send-time clock would have hidden the stall");
}

void testSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {perfbench::rootSpanId(7), 0, 7, "request", 0, 100},
      {101, perfbench::rootSpanId(7), 7, "runtime.pool_wait", 10, 40},
      {102, perfbench::rootSpanId(7), 7, "comm.transfer", 30, 60},  // overlaps
      {103, perfbench::rootSpanId(7), 7, "runtime.invoke", 90, 120},  // sticks out
      {104, 101, 7, "heap.alloc", 15, 20},                           // grandchild
      {perfbench::rootSpanId(8), 0, 8, "request", 0, 50},             // no children
  };
  const std::vector<int64_t> self = perfbench::selfTimes(spans);
  check(self[0] == 40, "root self = 100 - |[10,60] u [90,100]|");
  check(self[1] == 25, "child self = 30 - its own child");
  check(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaf self = duration");
  check(self[5] == 50, "a childless root is all self time");
  check(perfbench::layerOf("comm.transfer") == "comm" && perfbench::layerOf("request") == "request",
        "layer is the span name's prefix");
}

void testSpecPins() {
  ijvm::VmOptions opts = ijvm::VmOptions::shared();
  opts.exec_engine = ijvm::ExecEngine::Classic;
  ijvm::VM vm(opts);
  ijvm::installSystemLibrary(vm);
  ijvm::ClassLoader* app = vm.registry().newLoader("spec");
  vm.createIsolate(app, "spec");
  for (const ijvm::SpecWorkload& wl : ijvm::specWorkloads()) {
    const int32_t got = ijvm::runSpecWorkload(vm, vm.mainThread(), app, wl, wl.default_size);
    check(got == perfbench::kSpecChecksums.at(wl.name), "pinned checksum of " + wl.name);
    if (wl.name == "compress") check(got == ijvm::referenceCompress(wl.default_size), "compress reference");
    if (wl.name == "db") check(got == ijvm::referenceDb(wl.default_size), "db reference");
  }
}

}  // namespace

int main() {
  testSeededInputs();
  testPercentileRule();
  testNoCoordinatedOmission();
  testSelfTime();
  testSpecPins();
  std::printf("selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
