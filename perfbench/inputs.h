// Seeded request inputs and their host-side expected results.
//
// Everything a workload sends is a pure function of (--seed, request
// index), so the same seed replays the same requests and the program under
// test receives only these generated inputs. Expected results are computed
// here, in plain C++, independently of the VM.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/rng.h"

namespace perfbench {

inline uint64_t mixSeed(uint64_t seed, uint64_t stream, uint64_t i) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               i * 0x94d049bb133111ebull + 0x632be59bd9b4e5f5ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Java int arithmetic (wrapping) without signed-overflow UB.
inline int32_t wrapMulAdd(int32_t h, uint32_t mul, int32_t add) {
  return static_cast<int32_t>(static_cast<uint32_t>(h) * mul +
                              static_cast<uint32_t>(add));
}

// ---- serve-donate: one int[] of ~1 KiB to one of the servers ----

inline constexpr int kMinDonateInts = 192;  // 768 B
inline constexpr int kMaxDonateInts = 320;  // 1280 B

struct DonateReq {
  int server = 0;
  std::vector<int32_t> vals;
  int32_t expected = 0;  // wrapping sum, what Srv.sum([I)I returns
};

inline DonateReq makeDonateReq(uint64_t seed, uint64_t i, int servers) {
  ijvm::Rng r(mixSeed(seed, 1, i));
  DonateReq q;
  q.server = static_cast<int>(r.nextBounded(static_cast<uint64_t>(servers)));
  const int len = kMinDonateInts +
                  static_cast<int>(r.nextBounded(kMaxDonateInts - kMinDonateInts + 1));
  q.vals.resize(static_cast<size_t>(len));
  for (int32_t& v : q.vals) {
    v = r.nextInt();
    q.expected = wrapMulAdd(q.expected, 1, v);
  }
  return q;
}

// ---- serve-graph: a tree of records with one shared node ----

inline constexpr int kMinRecords = 8;
inline constexpr int kMaxRecords = 32;
// One request in kChannelOneIn takes the serialize + channel path.
inline constexpr uint64_t kChannelOneIn = 4;

struct GraphRec {
  std::string name;
  std::vector<int32_t> vals;
  int left = -1, right = -1, alias = -1;  // indices into GraphReq::recs
};

struct GraphReq {
  int server = 0;
  bool channel = false;
  std::vector<GraphRec> recs;  // recs[0] is the root
  int shared = -1;             // the record reachable twice (via `alias`)
  int32_t expected = 0;        // what Srv.walk(Lmsg/Rec;)I returns
};

inline int32_t javaStringHash(const std::string& s) {
  int32_t h = 0;
  for (char c : s) h = wrapMulAdd(h, 31, static_cast<uint8_t>(c));
  return h;
}

// msg/Rec.digest()I
inline int32_t recDigest(const GraphRec& r) {
  int32_t h = javaStringHash(r.name);
  for (int32_t v : r.vals) h = wrapMulAdd(h, 31, v);
  return h;
}

// srv/Srv.walk(Lmsg/Rec;)I
inline int32_t graphWalk(const std::vector<GraphRec>& recs, int k) {
  if (k < 0) return 0;
  const GraphRec& r = recs[static_cast<size_t>(k)];
  int32_t h = recDigest(r);
  h = wrapMulAdd(h, 31, graphWalk(recs, r.left));
  h = wrapMulAdd(h, 31, graphWalk(recs, r.right));
  if (r.alias >= 0) h ^= recDigest(recs[static_cast<size_t>(r.alias)]);
  return h;
}

inline GraphReq makeGraphReq(uint64_t seed, uint64_t i, int servers) {
  ijvm::Rng r(mixSeed(seed, 2, i));
  GraphReq q;
  q.server = static_cast<int>(r.nextBounded(static_cast<uint64_t>(servers)));
  q.channel = r.nextBounded(kChannelOneIn) == 0;
  const int n = kMinRecords +
                static_cast<int>(r.nextBounded(kMaxRecords - kMinRecords + 1));
  q.recs.resize(static_cast<size_t>(n));
  for (GraphRec& rec : q.recs) {
    const int name_len = 4 + static_cast<int>(r.nextBounded(13));
    for (int c = 0; c < name_len; ++c) {
      rec.name.push_back(static_cast<char>('a' + r.nextBounded(26)));
    }
    rec.vals.resize(1 + r.nextBounded(8));
    for (int32_t& v : rec.vals) v = r.nextInt();
  }
  // Tree shape: each record hangs off a random earlier one with a free
  // child slot (probing forward from the draw).
  for (int k = 1; k < n; ++k) {
    int p = static_cast<int>(r.nextBounded(static_cast<uint64_t>(k)));
    for (;; p = (p + 1) % k) {
      GraphRec& parent = q.recs[static_cast<size_t>(p)];
      const bool go_left = r.nextBounded(2) == 0;
      int* first = go_left ? &parent.left : &parent.right;
      int* second = go_left ? &parent.right : &parent.left;
      int* slot = *first < 0 ? first : second;
      if (*slot < 0) {
        *slot = k;
        break;
      }
    }
  }
  // One shared node: record `from` also points at record `shared`.
  const int from = static_cast<int>(r.nextBounded(static_cast<uint64_t>(n)));
  int shared = static_cast<int>(r.nextBounded(static_cast<uint64_t>(n - 1)));
  if (shared >= from) ++shared;
  q.recs[static_cast<size_t>(from)].alias = shared;
  q.shared = shared;
  q.expected = graphWalk(q.recs, 0);
  return q;
}

// ---- spec-compute: which program each request runs ----

// Checksums of the seven SPEC analogs at default_size (src/workloads/
// spec.h). The self-tests re-derive them on the classic interpreter in
// shared mode -- the semantic oracle -- and compress/db also from the C++
// reference implementations.
inline const std::map<std::string, int32_t> kSpecChecksums = {
    {"compress", 260061960}, {"jess", 507644514},     {"db", -662919840},
    {"javac", 862167816},    {"mpegaudio", 30135608}, {"mtrt", -952823025},
    {"jack", -980061528},
};

// Request i runs program specProgram(seed, i, programs): every round of
// `programs` consecutive requests is a seeded permutation, so each program
// gets the same share of requests.
inline int specProgram(uint64_t seed, uint64_t i, int programs) {
  const uint64_t round = i / static_cast<uint64_t>(programs);
  ijvm::Rng r(mixSeed(seed, 3, round));
  std::vector<int> perm(static_cast<size_t>(programs));
  for (int k = 0; k < programs; ++k) perm[static_cast<size_t>(k)] = k;
  for (int k = programs - 1; k > 0; --k) {
    const int j = static_cast<int>(r.nextBounded(static_cast<uint64_t>(k + 1)));
    std::swap(perm[static_cast<size_t>(k)], perm[static_cast<size_t>(j)]);
  }
  return perm[i % static_cast<uint64_t>(programs)];
}

}  // namespace perfbench
