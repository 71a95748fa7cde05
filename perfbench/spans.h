// In-memory spans for the traced run.
//
// The benchmark wraps each call it makes into a layer (heap, comm,
// stdlib, runtime, exec, osgi, classes) in a span: name, start, end, the
// span that caused it, and the request it belongs to. Each thread appends
// to its own SpanLog without locking; the logs are merged once the
// measured phase is over. A layer's self time is its span's duration minus
// the part of that interval its direct children cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  uint64_t req = 0;
  const char* name = "";  // "<layer>.<call>", or "request" for a root
  int64_t start = 0;
  int64_t end = 0;
};

// Root span ids are the request index + 1, so spans recorded on other
// threads can name their request's root before the root is closed.
inline uint64_t rootSpanId(uint64_t req) { return req + 1; }

class SpanLog {
 public:
  // `log_id` >= 1; ids of this log's spans never collide with root ids.
  explicit SpanLog(uint64_t log_id) : log_id_(log_id) {}

  uint64_t add(const char* name, uint64_t parent, uint64_t req, int64_t start,
               int64_t end) {
    const uint64_t id = (log_id_ << 40) | (spans_.size() + 1);
    spans_.push_back(Span{id, parent, req, name, start, end});
    return id;
  }
  // Root span of request `req` (id rootSpanId(req)).
  void addRoot(uint64_t req, int64_t start, int64_t end) {
    spans_.push_back(Span{rootSpanId(req), 0, req, "request", start, end});
  }
  // Opens a span whose children are recorded before it ends.
  size_t open(const char* name, uint64_t parent, uint64_t req, int64_t start,
              uint64_t* id) {
    *id = add(name, parent, req, start, start);
    return spans_.size() - 1;
  }
  void close(size_t index, int64_t end) { spans_[index].end = end; }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  uint64_t log_id_;
  std::vector<Span> spans_;
};

inline std::string layerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

// Self time of every span, in input order: duration minus the length of
// the union of its direct children's intervals clipped to its own.
inline std::vector<int64_t> selfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  children.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> out(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (size_t c : it->second) {
        const int64_t a = std::max(spans[c].start, s.start);
        const int64_t b = std::min(spans[c].end, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0, cur_b = 0;
      bool have = false;
      for (const auto& [a, b] : iv) {
        if (have && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (have) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        have = true;
      }
      if (have) covered += cur_b - cur_a;
    }
    out[i] = (s.end - s.start) - covered;
  }
  return out;
}

}  // namespace perfbench
