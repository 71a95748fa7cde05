// Open-loop load generation with no coordinated omission.
//
// Request i is due at start + i * period, whatever happened to requests
// before it. The generator never waits for a response and never skips a
// request: one whose due time has already passed is sent at once. Every
// latency is measured from the due time (Schedule::latencyNs), so a stall
// anywhere -- in a handler, in a GC pause, or in the generator itself --
// is charged to each request queued behind it, not hidden by sending
// those requests late.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>

namespace perfbench {

// CPU time of `clock` (CLOCK_THREAD_CPUTIME_ID or CLOCK_PROCESS_CPUTIME_ID).
inline int64_t cpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Schedule {
 public:
  Schedule(int64_t start_ns, double rate_per_s)
      : start_(start_ns), period_ns_(1e9 / rate_per_s) {}

  int64_t due(uint64_t i) const {
    return start_ + static_cast<int64_t>(std::llround(
                        static_cast<double>(i) * period_ns_));
  }
  // The one latency formula the benchmark uses: completion minus due time.
  int64_t latencyNs(uint64_t i, int64_t done_ns) const {
    return done_ns - due(i);
  }
  double periodNs() const { return period_ns_; }

 private:
  int64_t start_;
  double period_ns_;
};

// Spins until `t` has passed. The generator never sleeps: on a virtualized
// host a sleeping vCPU can take milliseconds to wake, and that delay would
// be charged to the requests as if the platform had caused it.
inline int64_t waitUntil(int64_t t) {
  for (;;) {
    const int64_t now = nowNs();
    if (now >= t) return now;
  }
}

struct OpenLoopRun {
  uint64_t sent = 0;     // requests handed to `send`
  bool aborted = false;  // `abort` stopped the loop early
};

// Drives requests 0, 1, ... while their due time is before `end_ns`.
// prepare(i) builds request i ahead of its due time (client-side work,
// outside the measured latency); send(i, sent_ns) hands it to the system
// and must not wait for the response; abort() is polled after each send
// (the benchmark uses it to stop a generator that fell too far behind).
template <class Prepare, class Send, class Abort>
OpenLoopRun runOpenLoop(const Schedule& s, int64_t end_ns, Prepare&& prepare,
                        Send&& send, Abort&& abort) {
  OpenLoopRun run;
  if (s.due(0) >= end_ns) return run;
  prepare(uint64_t{0});
  for (uint64_t i = 0;; ++i) {
    const int64_t sent_ns = waitUntil(s.due(i));
    send(i, sent_ns);
    run.sent = i + 1;
    if (abort()) {
      run.aborted = true;
      break;
    }
    if (s.due(i + 1) >= end_ns) break;
    prepare(i + 1);
  }
  return run;
}

}  // namespace perfbench
