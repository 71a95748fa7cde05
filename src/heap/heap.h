// The garbage-collected heap.
//
// A stop-the-world mark-sweep collector over a single address space shared
// by all isolates -- exactly the setting of the paper (one GC for all
// isolates, section 3.2). The collector doubles as the resource-accounting
// pass: besides collecting unreferenced objects it re-derives the memory
// and connection usage of every isolate:
//
//   1. per-isolate usage is reset to zero;
//   2. each isolate's roots (interned strings, static variables, Class
//      objects) are enumerated tagged with that isolate;
//   3. each thread frame's references are enumerated tagged with the
//      isolate the frame executes in (system-library frames are skipped by
//      the enumerator -- their objects are reachable from the caller);
//   4. tracing charges every live object to the first isolate that reaches
//      it (BFS discovery order).
//
// The *caller* (VM::collectGarbage) is responsible for bringing all guest
// threads to a safepoint first; the heap itself is oblivious to threads.
//
// Block recycling: object storage freed by the sweep is retained in a
// size-bucketed cache (bounded by a multiple of the GC threshold) and
// handed back out by the next allocations of the same size class, instead
// of being returned to the system allocator. Allocation-heavy guests cycle
// their working set through the heap once per GC; round-tripping that
// memory through malloc/free lets the C library return the pages to the OS
// between cycles (glibc arena trimming), turning every sweep into syscalls
// and every re-allocation into page faults -- with pause times at the mercy
// of allocator heap-layout luck. The cache keeps the hot path entirely in
// user space. Disabled under AddressSanitizer so use-after-free detection
// keeps seeing real frees.
//
// Thread-local allocation: every guest thread owns an AllocCache (taken
// when the thread is attached or spawned, its stash returned and the cache
// recycled when the thread detaches or ends) with
//
//   - a block stash per <= 4 KiB power-of-two bucket. A miss refills it in
//     one mutex_ acquisition with min(32 blocks, 8 KiB) taken from the
//     shared cache -- or, when that bucket of the shared cache is empty,
//     with a batch of fresh blocks allocated outside the lock;
//   - an object table: a vector of every object the cache allocated and
//     no sweep has freed yet. The sweep walks each table where it is (one
//     shard per cache), frees the unmarked objects and compacts the
//     survivors in place; the table keeps its capacity, so a steady
//     workload stops growing it after the first cycles. A table is read
//     in order, so the sweep prefetches the header of the object a fixed
//     distance ahead, and for String/Native objects the payload a shorter
//     distance ahead: a free costs no dependent cache miss, as following
//     an intrusive next pointer did. A released cache keeps its table
//     (and its counts) for its next owner; forEachObject and ~Heap walk
//     every table.
//
// So mutex_ is taken by stash refills, by allocations above 4 KiB (shared
// cache pop), by monitorFor and by the collector; never per object on the
// <= 4 KiB path. A collection also drains every stash back into the shared
// cache (freeing what exceeds the cap), so cachedBytes() and the
// 2x-threshold bound are exact after each GC and stashes never pin more
// than 8 KiB per bucket per thread.
//
// Each cache has its own mutex, taken only by its owner (for one
// allocation at a time), by releaseCache, and by collect()/forEachObject(),
// which lock the registry (caches_mutex_) and every cache for their whole
// walk. Running threads are parked at a safepoint during a GC and never
// contend; the lock exists for Blocked allocators -- host C++ threads
// allocating through a guest thread that is outside the interpreter --
// because stop-the-world does not park Blocked threads. Such an allocation
// waits for the collection, and so does acquireCache: no cache is created
// while a walk runs, so every object the walk can see is in a table it
// walks and the counts hold still. The VM therefore takes a cache before
// any lock of its own (the root scan takes those locks while the walk
// holds the cache locks). Lock order: caches_mutex_ -> AllocCache::mutex_
// -> mutex_ -> the VM locks the root scan takes.
//
// Allocation counters, grants and exact reads: each cache counts the bytes
// and objects it allocated since the last collection (written by its
// owner under the cache lock, readable by any thread). To bound the total
// without reading every cache, a cache draws byte *grants* from one shared
// `granted_` counter a chunk at a time (threshold / 64, clamped to
// 256 B..32 KiB), so granted_ >= the bytes actually allocated since the
// GC. wantsGc() and the VM's heap-limit test read the cheap bound first
// and sum the caches only when the bound crosses the line, so the hot
// path is one relaxed load while the decision stays exact: wantsGc() is
// true exactly when the allocated bytes reach the threshold, however many
// unspent grants other threads hold. liveBytes(), liveObjects(),
// bytesSinceGc() and totalAllocatedBytes() are the figures of the last
// collection plus the cache sums -- exact once concurrent allocators are
// quiescent. A collection resets the cache counts and granted_ while it
// holds the cache locks. The per-isolate charges (VM::alloc*) stay exact
// atomics bumped at every allocation: the section-4.2 limit checks see
// every byte immediately.
//
// One collection per trigger (VM::checkMemoryLimits): a thread notes the
// VM's collection count before it tests its triggers. When it owns the
// stop-the-world and a collection has completed since, it walks the heap
// only if the heap-wide triggers (threshold, heap limit) still hold; the
// per-isolate limit is then decided on the charges that collection just
// re-derived. Threads that cross the threshold together thus cause one
// collection, not one each. Explicit collections always collect.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "heap/accounting_policy.h"
#include "heap/monitor.h"
#include "heap/object.h"

namespace ijvm {

// Charges computed for one isolate by a GC pass.
struct IsolateCharge {
  size_t bytes = 0;
  size_t objects = 0;
  size_t connections = 0;
};

struct GcStats {
  size_t objects_freed = 0;
  size_t bytes_freed = 0;
  size_t live_objects = 0;
  size_t live_bytes = 0;
  // Objects reachable from more than one isolate (computed only under
  // AccountingPolicy::DividedShared, zero otherwise).
  size_t shared_objects = 0;
  size_t shared_bytes = 0;
  std::vector<IsolateCharge> charges;  // indexed by isolate id
};

// Sink used by root enumeration: (object, isolate-to-charge).
using RootSink = std::function<void(Object*, i32)>;
// Root enumerator provided by the VM.
using RootEnumerator = std::function<void(const RootSink&)>;

// Per-thread allocation cache (see "Thread-local allocation" above). Owned
// by the Heap; a JThread holds a pointer between attach and detach.
// Cache-line aligned: the caches sit side by side in the Heap's registry,
// and a neighbour's lock must not share a line with this one's table.
class alignas(64) AllocCache {
 public:
  // Buckets 0..7 (32 B .. 4 KiB) are stashed; batch size per refill.
  static constexpr int kStashBuckets = 8;
  static constexpr size_t kStashMaxBlocks = 32;
  static constexpr size_t kStashMaxBytes = size_t{8} << 10;

 private:
  friend class Heap;
  struct Stash {
    u32 count = 0;
    std::array<void*, kStashMaxBlocks> blocks{};
  };
  // Touched by every allocation: kept together at the front.
  std::mutex mutex_;
  std::vector<Object*> objects_;  // allocated here, not yet swept away
  size_t grant_left_ = 0;         // drawn from Heap::granted_, not yet spent
  // Since the last collection. Written by the owner (or the collector)
  // under mutex_; read without it by the exact sums.
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> count_{0};
  AllocCache* next_ = nullptr;  // registry list; fixed once published
  std::array<Stash, kStashBuckets> stash_;
};

class Heap {
 public:
  // gc_threshold: allocated-bytes-since-last-GC that triggers a collection
  // request (checked by the VM after allocations).
  explicit Heap(size_t gc_threshold);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // ---- allocation (thread-safe). Returns nullptr on hard OOM only. ----
  // `cache` is the allocating thread's AllocCache.
  Object* allocPlain(JClass* cls, i32 creator_isolate, AllocCache* cache);
  Object* allocArray(JClass* array_cls, i32 length, i32 creator_isolate,
                     AllocCache* cache);
  Object* allocString(JClass* string_cls, std::string chars, i32 creator_isolate,
                      AllocCache* cache);
  Object* allocNative(JClass* cls, std::unique_ptr<NativePayload> payload,
                      i32 creator_isolate, AllocCache* cache);

  // Bytes a String object holding `chars` is charged: header, payload
  // pointer and the character buffer's capacity. allocString charges
  // exactly this (the buffer moves, capacity and all), so callers can
  // check limits against the same figure before allocating.
  static size_t stringFootprint(const std::string& chars) {
    return sizeof(Object) + sizeof(std::string*) + chars.capacity();
  }

  // ---- per-thread caches ----
  // Returns an empty registered cache (a recycled one when available).
  // Waits for a running collect()/forEachObject(), so the caller must not
  // hold a lock the collector's root scan takes.
  AllocCache* acquireCache();
  // Returns the cache's stash to the shared cache and makes the cache --
  // its object table and counts included -- available to the next
  // acquireCache(). The caller must not allocate through `cache`
  // afterwards.
  void releaseCache(AllocCache* cache);

  Monitor* monitorFor(Object* obj);

  // ---- statistics ----
  // Exact: the last collection's figures plus every cache's count (a walk
  // over the caches; not for per-allocation paths).
  size_t liveBytes() const {
    return live_bytes_.load(std::memory_order_relaxed) + sinceGc().bytes;
  }
  size_t liveObjects() const {
    return live_objects_.load(std::memory_order_relaxed) + sinceGc().objects;
  }
  size_t bytesSinceGc() const { return sinceGc().bytes; }
  u64 totalAllocatedBytes() const {
    return total_at_gc_.load(std::memory_order_relaxed) + sinceGc().bytes;
  }
  // Cheap upper bound of liveBytes() (two loads): the bytes granted since
  // the last collection cover every byte allocated since. granted_ is
  // read first, with acquire: a reader that sees a collection's reset also
  // sees the live figure it stored before it.
  size_t liveBytesBound() const {
    const size_t granted = granted_.load(std::memory_order_acquire);
    return live_bytes_.load(std::memory_order_relaxed) + granted;
  }
  // Blocks the shared cache handed back out -- to an allocation above
  // 4 KiB, or a batch to a stash refill -- / bytes it currently retains.
  u64 recycledAllocs() const { return recycled_allocs_.load(std::memory_order_relaxed); }
  size_t cachedBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cached_bytes_;
  }
  // True once the bytes allocated since the last collection reach the
  // threshold. The grant bound rules out almost every call in one load.
  bool wantsGc() const {
    return granted_.load(std::memory_order_relaxed) >= gc_threshold_ &&
           bytesSinceGc() >= gc_threshold_;
  }
  size_t gcThreshold() const { return gc_threshold_; }

  // ---- collection (caller must hold the world stopped) ----
  GcStats collect(const RootEnumerator& enumerate_roots,
                  AccountingPolicy policy = AccountingPolicy::FirstReference);

  // Visits every object allocated and not yet swept, in every cache's
  // table. Only meaningful while the world is
  // stopped (the VM uses it right after a collection to detect dead
  // isolates). `fn` must not allocate.
  void forEachObject(const std::function<void(Object*)>& fn);

 private:
  // Block-cache size classes: powers of two from 32 B to 4 KiB, then 4 KiB
  // multiples up to 128 KiB. Larger blocks bypass the cache.
  static constexpr int kNumBuckets = 39;
  static constexpr u16 kNoBucket = 0xffff;
  static int bucketFor(size_t total);       // -1: uncacheable size
  static size_t bucketSize(int bucket);

  // Allocates an object whose payload is a copy of `payload_bytes` from
  // `payload` (zeroed when null), charged `extra_charge` bytes beyond its
  // block, and records it in `cache`'s table.
  Object* allocRaw(AllocCache* cache, JClass* cls, ObjKind kind, const void* payload,
                   size_t payload_bytes, size_t extra_charge, i32 length,
                   i32 creator_isolate);
  // Makes room for one more table entry without throwing (false: host out
  // of memory). Caller holds cache.mutex_.
  static bool reserveSlot(AllocCache& cache);
  // Records `obj` in the table (a slot is reserved) and counts it. Caller
  // holds cache.mutex_.
  void publish(AllocCache& cache, Object* obj);
  // Pops a block for `bucket` from the shared cache (nullptr when empty).
  void* popShared(int bucket);
  // Pops a block from the stash, refilling it on a miss. Caller holds
  // cache.mutex_.
  void* popStash(AllocCache& cache, int bucket);
  static size_t footprint(const Object* obj);
  void freeObject(Object* obj);  // caller holds mutex_ (or is the destructor)
  void returnBlock(void* mem, int bucket);  // caller holds mutex_
  void drainStashLocked(AllocCache& cache);  // caller holds cache.mutex_, mutex_
  // Frees the unmarked objects of one table and compacts the rest in
  // place, clearing their marks. Caller holds cache.mutex_ and mutex_.
  void sweepTable(std::vector<Object*>& table, GcStats& stats);
  // Locks the registry and every cache (and mutex_ when asked); the
  // walkers hold the returned locks for their whole walk.
  std::vector<std::unique_lock<std::mutex>> lockCaches(bool with_heap_mutex);
  AllocCache* firstCache() const {
    return caches_head_.load(std::memory_order_acquire);
  }
  struct Tally {
    size_t bytes = 0;
    size_t objects = 0;
  };
  Tally sinceGc() const;  // sum over the caches' counts

  size_t gc_threshold_;
  size_t grant_chunk_;
  mutable std::mutex mutex_;  // guards the block cache and monitors
  std::array<std::vector<void*>, kNumBuckets> block_cache_;
  size_t cached_bytes_ = 0;
  size_t cache_cap_bytes_ = 0;  // 0 disables retention
  std::atomic<u64> recycled_allocs_{0};
  // Figures of the last collection (read-mostly).
  std::atomic<size_t> live_bytes_{0};
  std::atomic<size_t> live_objects_{0};
  std::atomic<u64> total_at_gc_{0};  // bytes allocated before it

  mutable std::mutex caches_mutex_;  // guards caches_, free_caches_, the list
  std::deque<AllocCache> caches_;    // storage; deque: stable addresses
  std::atomic<AllocCache*> caches_head_{nullptr};  // every cache, newest first
  std::vector<AllocCache*> free_caches_;

  // Bytes granted to caches since the last collection. Drawn a chunk at a
  // time and read by every limit check: a cache line of its own (the last
  // member, so the class's alignment pads the rest of the line).
  alignas(64) std::atomic<size_t> granted_{0};
};

}  // namespace ijvm
