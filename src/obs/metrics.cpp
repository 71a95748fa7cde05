// Metrics registry, Prometheus text exposition and the admin socket.
// Contract in metrics.h / docs/observability.md ("Metrics endpoint").
#include "obs/metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "exec/compile_manager.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runtime/vm.h"
#include "support/strf.h"

namespace ijvm::obs {

// ---- registry ----------------------------------------------------------

void MetricsRegistry::add(const std::string& name, const std::string& help,
                          MetricType type, Collect collect) {
  families_.push_back(Family{name, help, type, std::move(collect)});
}

std::string promEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string MetricsRegistry::renderPrometheus() const {
  std::string out;
  std::vector<MetricSample> samples;
  for (const Family& f : families_) {
    samples.clear();
    f.collect(&samples);
    out += strf("# HELP %s %s\n", f.name.c_str(), f.help.c_str());
    out += strf("# TYPE %s %s\n", f.name.c_str(),
                f.type == MetricType::Counter ? "counter" : "gauge");
    for (const MetricSample& s : samples) {
      if (s.labels.empty()) {
        out += strf("%s %.10g\n", f.name.c_str(), s.value);
      } else {
        out += strf("%s{%s} %.10g\n", f.name.c_str(), s.labels.c_str(),
                    s.value);
      }
    }
  }
  return out;
}

// ---- standard VM families ----------------------------------------------

namespace {

std::string isoLabel(const Isolate* iso) {
  return strf("isolate=\"%s\"", promEscape(iso->name).c_str());
}

// One sample per isolate, value read from a ResourceStats atomic.
void perIsolate(MetricsRegistry* reg, VM& vm, const std::string& name,
                const std::string& help, MetricType type,
                std::function<double(const Isolate&)> read) {
  reg->add(name, help, type,
           [&vm, read = std::move(read)](std::vector<MetricSample>* out) {
             for (Isolate* iso : vm.isolates()) {
               out->push_back(MetricSample{isoLabel(iso), read(*iso)});
             }
           });
}

double rl(const std::atomic<u64>& v) {
  return static_cast<double>(v.load(std::memory_order_relaxed));
}
double rl(const std::atomic<i64>& v) {
  return static_cast<double>(v.load(std::memory_order_relaxed));
}

}  // namespace

void registerVmMetrics(MetricsRegistry* reg, VM& vm) {
  perIsolate(reg, vm, "ijvm_isolate_bytes_charged",
             "Reachability-charged heap bytes (recomputed each GC)",
             MetricType::Gauge,
             [](const Isolate& i) { return rl(i.stats.bytes_charged); });
  perIsolate(reg, vm, "ijvm_isolate_bytes_allocated_total",
             "Bytes allocated by the isolate", MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.bytes_allocated); });
  perIsolate(reg, vm, "ijvm_isolate_live_threads",
             "Live guest threads created by the isolate", MetricType::Gauge,
             [](const Isolate& i) { return rl(i.stats.live_threads); });
  perIsolate(reg, vm, "ijvm_isolate_cpu_samples_total",
             "Profiler ticks that found a thread running in the isolate",
             MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.cpu_samples); });
  perIsolate(reg, vm, "ijvm_isolate_cpu_profile_samples_total",
             "Stack samples the sampling profiler attributed to the isolate",
             MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.cpu_profile_samples); });
  reg->add("ijvm_isolate_cpu_share",
           "CPU share over the last profiler window (0..1)", MetricType::Gauge,
           [&vm](std::vector<MetricSample>* out) {
             Profiler* p = vm.profiler();
             if (p == nullptr) return;
             for (Isolate* iso : vm.isolates()) {
               out->push_back(MetricSample{isoLabel(iso), p->cpuShare(iso->id)});
             }
           });

  // Zero-copy donation traffic (docs/comm.md): the counters PR 8 added,
  // now scrapeable next to the memory charges they correct.
  perIsolate(reg, vm, "ijvm_isolate_donated_bytes_in_total",
             "Bytes whose ownership was received via transferGraph donation",
             MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.bytes_donated_in); });
  perIsolate(reg, vm, "ijvm_isolate_donated_bytes_out_total",
             "Bytes whose ownership was given away via transferGraph donation",
             MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.bytes_donated_out); });
  perIsolate(reg, vm, "ijvm_isolate_donated_objects_in_total",
             "Objects received via transferGraph donation", MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.objects_donated_in); });
  perIsolate(reg, vm, "ijvm_isolate_donated_objects_out_total",
             "Objects given away via transferGraph donation",
             MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.objects_donated_out); });
  perIsolate(reg, vm, "ijvm_isolate_donated_bytes_delta",
             "Signed held-bytes correction from donations since the last GC",
             MetricType::Gauge,
             [](const Isolate& i) { return rl(i.stats.donated_bytes_delta); });

  perIsolate(reg, vm, "ijvm_isolate_jit_code_bytes",
             "Resident tier-3 compiled-code bytes charged to the isolate",
             MetricType::Gauge,
             [](const Isolate& i) { return rl(i.stats.jit_code_bytes); });
  perIsolate(reg, vm, "ijvm_isolate_jit_methods_compiled_total",
             "Methods compiled to tier 3 for the isolate", MetricType::Counter,
             [](const Isolate& i) { return rl(i.stats.jit_methods_compiled); });

  reg->add("ijvm_profiler_samples_total",
           "Stack samples recorded by the sampling profiler",
           MetricType::Counter, [&vm](std::vector<MetricSample>* out) {
             Profiler* p = vm.profiler();
             out->push_back(MetricSample{
                 "", p != nullptr
                         ? static_cast<double>(p->totalSamples())
                         : 0.0});
           });
  reg->add("ijvm_compile_queue_depth",
           "Promote-to-JIT requests pending, building or awaiting install",
           MetricType::Gauge, [&vm](std::vector<MetricSample>* out) {
             out->push_back(MetricSample{
                 "", static_cast<double>(exec::compileQueueDepth(vm))});
           });
  reg->add("ijvm_gc_count_total", "Stop-the-world collections run",
           MetricType::Counter, [&vm](std::vector<MetricSample>* out) {
             out->push_back(
                 MetricSample{"", static_cast<double>(vm.gcCount())});
           });
  reg->add("ijvm_latency", "Latency percentiles per instrumented path "
           "(ns unless the site name says otherwise)",
           MetricType::Gauge, [](std::vector<MetricSample>* out) {
             for (u8 i = 0; i < static_cast<u8>(Lat::Count); ++i) {
               const Lat l = static_cast<Lat>(i);
               const HistSnapshot s = latencySnapshot(l);
               if (s.count == 0) continue;
               const std::string site = promEscape(latName(l));
               out->push_back(MetricSample{
                   strf("site=\"%s\",quantile=\"p50\"", site.c_str()),
                   static_cast<double>(s.p50_ns)});
               out->push_back(MetricSample{
                   strf("site=\"%s\",quantile=\"p99\"", site.c_str()),
                   static_cast<double>(s.p99_ns)});
             }
           });
}

// ---- admin server ------------------------------------------------------

struct AdminServer::Impl {
  VM& vm;
  MetricsRegistry registry;
  int listen_fd = -1;
  u16 bound_port = 0;
  std::atomic<bool> stop{false};
  std::thread server;

  explicit Impl(VM& vm_ref) : vm(vm_ref) {}

  void serve() {
    setTraceThreadName("admin");
    while (!stop.load(std::memory_order_acquire)) {
      sockaddr_in peer{};
      socklen_t len = sizeof(peer);
      const int fd =
          ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
      if (fd < 0) {
        if (stop.load(std::memory_order_acquire)) break;
        continue;  // transient accept failure
      }
      // A stuck client must not wedge the (single) server thread: bounded
      // reads, then re-check the stop flag.
      timeval tv{};
      tv.tv_usec = 200 * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      handleConnection(fd);
      ::close(fd);
    }
  }

  void handleConnection(int fd) {
    std::string buf;
    char chunk[512];
    while (!stop.load(std::memory_order_acquire)) {
      const size_t nl = buf.find('\n');
      if (nl == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          buf.append(chunk, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        return;  // EOF or hard error
      }
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line == "quit") return;
      if (!respond(fd, line)) return;
    }
  }

  bool respond(int fd, const std::string& verb) {
    std::string payload;
    if (verb == "ping") {
      payload = "pong\n";
    } else if (verb == "metrics") {
      payload = registry.renderPrometheus();
    } else if (verb == "profile") {
      payload = vm.profiler()->dumpFoldedStacks();
    } else if (verb == "report") {
      payload = platformReport(vm);
    } else {
      payload = strf("error: unknown verb \"%s\" (try: ping, metrics, "
                     "profile, report, quit)\n",
                     verb.c_str());
    }
    if (!payload.empty() && payload.back() != '\n') payload += '\n';
    payload += ".\n";  // response terminator (clients frame on this)
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::send(fd, payload.data() + off, payload.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
};

AdminServer::AdminServer(VM& vm, u16 port) : impl_(new Impl(vm)) {
  registerVmMetrics(&impl_->registry, vm);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // admin: localhost only
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  impl_->listen_fd = fd;
  impl_->bound_port = ntohs(addr.sin_port);
  impl_->server = std::thread([this] { impl_->serve(); });
}

AdminServer::~AdminServer() {
  impl_->stop.store(true, std::memory_order_release);
  if (impl_->listen_fd >= 0) {
    // shutdown() unblocks a thread parked in accept(); close() alone is
    // not guaranteed to on Linux.
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->server.joinable()) impl_->server.join();
}

bool AdminServer::ok() const { return impl_->listen_fd >= 0; }

u16 AdminServer::port() const { return impl_->bound_port; }

MetricsRegistry& AdminServer::registry() { return impl_->registry; }

}  // namespace ijvm::obs
