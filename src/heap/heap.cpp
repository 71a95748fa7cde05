#include "heap/heap.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <new>

// The block cache intentionally keeps freed object storage alive for reuse;
// under AddressSanitizer that would mask use-after-free on guest objects, so
// every free goes back to the real allocator there.
#if defined(__SANITIZE_ADDRESS__)
#define IJVM_HEAP_BLOCK_CACHE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IJVM_HEAP_BLOCK_CACHE 0
#endif
#endif
#ifndef IJVM_HEAP_BLOCK_CACHE
#define IJVM_HEAP_BLOCK_CACHE 1
#endif

#include "obs/trace.h"
#include "support/strf.h"


namespace ijvm {


const char* accountingPolicyName(AccountingPolicy p) {
  switch (p) {
    case AccountingPolicy::FirstReference: return "first-reference";
    case AccountingPolicy::CreatorPays: return "creator-pays";
    case AccountingPolicy::DividedShared: return "divided-shared";
  }
  return "?";
}

Heap::Heap(size_t gc_threshold)
    : gc_threshold_(gc_threshold),
      // Small enough that unspent grants rarely push the bound over the
      // threshold early (4 threads x 32 KiB against the default 8 MiB),
      // large enough that drawing one is rare next to allocating.
      grant_chunk_(std::clamp<size_t>(gc_threshold / 64, 256, size_t{32} << 10)) {
#if IJVM_HEAP_BLOCK_CACHE
  // Retain up to two GC cycles' worth of churn, within sane bounds: enough
  // that an allocate-everything-then-collect workload recycles its whole
  // working set, bounded so an idle heap never pins tens of megabytes.
  cache_cap_bytes_ = std::clamp<size_t>(gc_threshold * 2, size_t{1} << 20,
                                        size_t{32} << 20);
#endif
}

Heap::~Heap() {
  // No thread allocates any more: walk the tables without locking.
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
    for (Object* o : c->objects_) freeObject(o);
    c->objects_.clear();
    drainStashLocked(*c);
  }
  for (std::vector<void*>& bucket : block_cache_) {
    for (void* mem : bucket) ::operator delete(mem);
    bucket.clear();
  }
  cached_bytes_ = 0;
}

AllocCache* Heap::acquireCache() {
  std::lock_guard<std::mutex> lock(caches_mutex_);
  if (!free_caches_.empty()) {
    AllocCache* c = free_caches_.back();
    free_caches_.pop_back();
    return c;
  }
  AllocCache* c = &caches_.emplace_back();
  // Published last: the exact sums walk the list without the lock.
  c->next_ = caches_head_.load(std::memory_order_relaxed);
  caches_head_.store(c, std::memory_order_release);
  return c;
}

void Heap::releaseCache(AllocCache* cache) {
  std::lock_guard<std::mutex> reg(caches_mutex_);
  std::lock_guard<std::mutex> own(cache->mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  drainStashLocked(*cache);
  free_caches_.push_back(cache);
}

std::vector<std::unique_lock<std::mutex>> Heap::lockCaches(bool with_heap_mutex) {
  // The registry stays locked too, so no cache can be handed out while the
  // walk runs.
  std::unique_lock<std::mutex> registry(caches_mutex_);
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(caches_.size() + 2);
  held.push_back(std::move(registry));
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
    held.emplace_back(c->mutex_);
  }
  if (with_heap_mutex) held.emplace_back(mutex_);
  return held;
}

Heap::Tally Heap::sinceGc() const {
  Tally t;
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
    t.bytes += c->bytes_.load(std::memory_order_relaxed);
    t.objects += c->count_.load(std::memory_order_relaxed);
  }
  return t;
}

void Heap::drainStashLocked(AllocCache& cache) {
  for (int b = 0; b < AllocCache::kStashBuckets; ++b) {
    AllocCache::Stash& st = cache.stash_[static_cast<size_t>(b)];
    while (st.count > 0) returnBlock(st.blocks[--st.count], b);
  }
}

int Heap::bucketFor(size_t total) {
#if IJVM_HEAP_BLOCK_CACHE
  if (total <= 4096) {
    const size_t rounded = std::bit_ceil(std::max<size_t>(total, 32));
    return std::countr_zero(rounded) - 5;  // 32 B..4 KiB -> 0..7
  }
  if (total <= size_t{128} << 10) {
    // 4 KiB steps: 8 KiB..128 KiB -> 8..38.
    return 6 + static_cast<int>((total + 4095) / 4096);
  }
#else
  (void)total;
#endif
  return -1;
}

size_t Heap::bucketSize(int bucket) {
  return bucket < 8 ? size_t{32} << bucket
                    : static_cast<size_t>(bucket - 6) * 4096;
}

void* Heap::popShared(int bucket) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<void*>& shared = block_cache_[static_cast<size_t>(bucket)];
  if (shared.empty()) return nullptr;
  void* mem = shared.back();
  shared.pop_back();
  cached_bytes_ -= bucketSize(bucket);
  recycled_allocs_.fetch_add(1, std::memory_order_relaxed);
  return mem;
}

void* Heap::popStash(AllocCache& cache, int bucket) {
  AllocCache::Stash& st = cache.stash_[static_cast<size_t>(bucket)];
  if (st.count == 0) {
    // Refill: one mutex_ acquisition moves up to a batch of recycled
    // blocks (the most recently freed on top); only when the shared bucket
    // is empty does the batch come fresh from the system allocator.
    const size_t size = bucketSize(bucket);
    const size_t batch =
        std::min(AllocCache::kStashMaxBlocks, AllocCache::kStashMaxBytes / size);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::vector<void*>& shared = block_cache_[static_cast<size_t>(bucket)];
      const size_t n = std::min(batch, shared.size());
      std::copy(shared.end() - static_cast<std::ptrdiff_t>(n), shared.end(),
                st.blocks.begin());
      shared.resize(shared.size() - n);
      cached_bytes_ -= n * size;
      recycled_allocs_.fetch_add(n, std::memory_order_relaxed);
      st.count = static_cast<u32>(n);
    }
    if (st.count == 0) {
      while (st.count < batch) {
        void* mem = ::operator new(size, std::nothrow);
        if (mem == nullptr) break;
        st.blocks[st.count++] = mem;
      }
      if (st.count == 0) return nullptr;
      // Hand them out in the order the allocator returned them (usually
      // ascending addresses), as one-at-a-time allocation would: objects
      // allocated together then sit in address order, which the hardware
      // prefetcher follows.
      std::reverse(st.blocks.begin(), st.blocks.begin() + st.count);
    }
  }
  void* mem = st.blocks[--st.count];
  if (st.count > 0) {
    // The next block is usually cold (recycled by the last sweep). Start
    // its write misses now, so they overlap this allocation instead of
    // stalling the next one -- at the latest, at the locked instruction
    // that releases the cache lock.
    const char* next = static_cast<const char*>(st.blocks[st.count - 1]);
    const size_t lines = std::min<size_t>(bucketSize(bucket), 256) / 64;
    for (size_t i = 0; i < lines; ++i) __builtin_prefetch(next + 64 * i, 1);
  }
  return mem;
}

bool Heap::reserveSlot(AllocCache& cache) {
  std::vector<Object*>& table = cache.objects_;
  if (table.size() < table.capacity()) return true;
  try {
    table.reserve(std::max<size_t>(256, table.capacity() * 2));
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

void Heap::publish(AllocCache& c, Object* obj) {
  c.objects_.push_back(obj);  // cannot throw: reserveSlot made room
  const size_t bytes = obj->byte_size;
  if (bytes > c.grant_left_) {
    // Cover the allocation before counting it, so granted_ never lags
    // the cache sums.
    const size_t draw = std::max(grant_chunk_, bytes - c.grant_left_);
    granted_.fetch_add(draw, std::memory_order_relaxed);
    c.grant_left_ += draw;
  }
  c.grant_left_ -= bytes;
  // Only this cache's lock holder writes its counts: plain load + store.
  c.bytes_.store(c.bytes_.load(std::memory_order_relaxed) + bytes,
                 std::memory_order_relaxed);
  c.count_.store(c.count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
}

Object* Heap::allocRaw(AllocCache* cache, JClass* cls, ObjKind kind,
                       const void* payload, size_t payload_bytes,
                       size_t extra_charge, i32 length, i32 creator_isolate) {
  IJVM_CHECK(cache != nullptr, "allocation through a thread without an allocation cache");
  AllocCache& c = *cache;
  const size_t total = sizeof(Object) + payload_bytes;
  const int bucket = bucketFor(total);
  // The object is fully initialized before it is recorded where a
  // collector can see it (the sweep reads the header and the Native slot).
  auto build = [&](void* mem) {
    Object* obj = new (mem) Object();
    obj->cls = cls;
    obj->kind = kind;
    obj->alloc_bucket = bucket >= 0 ? static_cast<u16>(bucket) : kNoBucket;
    obj->length = length;
    obj->byte_size = total + extra_charge;
    obj->creator_isolate = creator_isolate;
    obj->charged_isolate = creator_isolate;
    if (payload != nullptr) {
      std::memcpy(static_cast<void*>(obj + 1), payload, payload_bytes);
    } else {
      std::memset(static_cast<void*>(obj + 1), 0, payload_bytes);
    }
    return obj;
  };

  if (bucket >= 0 && bucket < AllocCache::kStashBuckets) {
    // Common path: only the thread's own cache lock, uncontended unless a
    // collection is walking the caches.
    std::lock_guard<std::mutex> lock(c.mutex_);
    if (!reserveSlot(c)) return nullptr;
    void* mem = popStash(c, bucket);
    if (mem == nullptr) return nullptr;
    Object* obj = build(mem);
    publish(c, obj);
    return obj;
  }
  // Larger (or, under ASan, every) object: its block comes from the shared
  // cache or the system allocator, and is initialized outside any lock.
  // Only the owner adds to the table and a sweep never shrinks its
  // capacity, so the slot reserved here is still free below.
  {
    std::lock_guard<std::mutex> lock(c.mutex_);
    if (!reserveSlot(c)) return nullptr;
  }
  void* mem = bucket >= 0 ? popShared(bucket) : nullptr;
  if (mem == nullptr) {
    mem = ::operator new(bucket >= 0 ? bucketSize(bucket) : total, std::nothrow);
  }
  if (mem == nullptr) return nullptr;
  Object* obj = build(mem);
  std::lock_guard<std::mutex> lock(c.mutex_);
  publish(c, obj);
  return obj;
}

Object* Heap::allocPlain(JClass* cls, i32 creator_isolate, AllocCache* cache) {
  // Fields start as the class's pre-zeroed template (typed zero values,
  // built at link time), so the GC sees correct kinds from the start.
  const size_t n = static_cast<size_t>(cls->instance_slots);
  IJVM_CHECK(cls->instance_template.size() == n, "class has no field template");
  return allocRaw(cache, cls, ObjKind::Plain, cls->instance_template.data(),
                  n * sizeof(Value), 0, 0, creator_isolate);
}

Object* Heap::allocArray(JClass* array_cls, i32 length, i32 creator_isolate,
                         AllocCache* cache) {
  IJVM_CHECK(array_cls->is_array, "allocArray on non-array class");
  IJVM_CHECK(length >= 0, "negative array length reaches heap");
  ObjKind kind;
  size_t elem_size;
  switch (array_cls->elem_kind) {
    case Kind::Int:
      kind = ObjKind::ArrayInt;
      elem_size = sizeof(i32);
      break;
    case Kind::Long:
      kind = ObjKind::ArrayLong;
      elem_size = sizeof(i64);
      break;
    case Kind::Double:
      kind = ObjKind::ArrayDouble;
      elem_size = sizeof(double);
      break;
    case Kind::Ref:
      kind = ObjKind::ArrayRef;
      elem_size = sizeof(Object*);
      break;
    default:
      IJVM_UNREACHABLE("bad array element kind");
  }
  return allocRaw(cache, array_cls, kind, nullptr,
                  elem_size * static_cast<size_t>(length), 0, length, creator_isolate);
}

Object* Heap::allocString(JClass* string_cls, std::string chars, i32 creator_isolate,
                          AllocCache* cache) {
  // Header and character payload are charged in one counter update.
  std::string* payload = new std::string(std::move(chars));
  Object* obj = allocRaw(cache, string_cls, ObjKind::String, &payload,
                         sizeof(payload), payload->capacity(), 0, creator_isolate);
  if (obj == nullptr) delete payload;
  return obj;
}

Object* Heap::allocNative(JClass* cls, std::unique_ptr<NativePayload> payload,
                          i32 creator_isolate, AllocCache* cache) {
  NativePayload* raw = payload.get();
  Object* obj = allocRaw(cache, cls, ObjKind::Native, &raw, sizeof(raw), 0, 0,
                         creator_isolate);
  if (obj != nullptr) payload.release();
  return obj;
}

Monitor* Heap::monitorFor(Object* obj) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (obj->monitor == nullptr) obj->monitor = new Monitor();
  return obj->monitor;
}

size_t Heap::footprint(const Object* obj) {
  size_t bytes = obj->byte_size;
  if (obj->kind == ObjKind::Native && obj->native() != nullptr) {
    bytes += obj->native()->byteSize();
  }
  return bytes;
}

void Heap::freeObject(Object* obj) {
  if (obj->kind == ObjKind::String) {
    delete obj->strSlot();
  } else if (obj->kind == ObjKind::Native) {
    delete obj->nativeSlot();
  }
  delete obj->monitor;
  const u16 bucket = obj->alloc_bucket;
  obj->~Object();
  if (bucket != kNoBucket) {
    returnBlock(obj, bucket);
  } else {
    ::operator delete(obj);
  }
}

void Heap::returnBlock(void* mem, int bucket) {
  const size_t block = bucketSize(bucket);
  if (cached_bytes_ + block <= cache_cap_bytes_) {
    block_cache_[static_cast<size_t>(bucket)].push_back(mem);
    cached_bytes_ += block;
    return;
  }
  ::operator delete(mem);
}

void Heap::forEachObject(const std::function<void(Object*)>& fn) {
  const auto held = lockCaches(/*with_heap_mutex=*/false);
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
    for (Object* o : c->objects_) fn(o);
  }
}

void Heap::sweepTable(std::vector<Object*>& table, GcStats& stats) {
  // Prefetch distances, in objects: the header far enough ahead to hide a
  // memory miss behind the frees in between; the String/Native payload
  // (reached through the header, which is cached by then) closer.
  constexpr size_t kHeaderAhead = 16;
  constexpr size_t kPayloadAhead = 8;
  Object** const v = table.data();
  const size_t n = table.size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kHeaderAhead < n) {
      // A block is 16-byte aligned, so the 64-byte header (and the
      // payload pointer right after it) usually spans two lines.
      const char* h = reinterpret_cast<const char*>(v[i + kHeaderAhead]);
      __builtin_prefetch(h);
      __builtin_prefetch(h + sizeof(Object));
    }
    if (i + kPayloadAhead < n) {
      const Object* p = v[i + kPayloadAhead];
      if (p->kind == ObjKind::String || p->kind == ObjKind::Native) {
        __builtin_prefetch(*reinterpret_cast<void* const*>(p + 1));
      }
    }
    Object* o = v[i];
    if (o->gc_mark != 0) {
      o->gc_mark = 0;
      stats.live_bytes += footprint(o);
      ++stats.live_objects;
      v[kept++] = o;
    } else {
      ++stats.objects_freed;
      stats.bytes_freed += footprint(o);
      freeObject(o);
    }
  }
  table.resize(kept);  // keeps the capacity for the next cycle
}

GcStats Heap::collect(const RootEnumerator& enumerate_roots,
                      AccountingPolicy policy) {
  // Every cache stays locked for the whole walk, so a Blocked thread's
  // allocation cannot interleave with it and the counts hold still.
  const auto held = lockCaches(/*with_heap_mutex=*/true);
  GcStats stats;
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) drainStashLocked(*c);
  auto for_each_marked = [this](auto&& fn) {
    for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
      for (Object* o : c->objects_) {
        if (o->gc_mark != 0) fn(o);
      }
    }
  };

  auto charge = [&stats, this](Object* o, i32 iso, size_t share_of = 1) {
    if (iso < 0) iso = 0;
    if (static_cast<size_t>(iso) >= stats.charges.size()) {
      stats.charges.resize(static_cast<size_t>(iso) + 1);
    }
    IsolateCharge& c = stats.charges[static_cast<size_t>(iso)];
    c.bytes += footprint(o) / share_of;
    c.objects += 1;
    if (o->kind == ObjKind::Native && o->native() != nullptr &&
        o->native()->isConnection()) {
      c.connections += 1;
    }
  };

  // ---- mark (liveness + first-reference ownership) ----
  // "An object is charged to the first isolate that references it" -- BFS
  // discovery order implements "first". charged_isolate is derived under
  // every policy (termination's dead-isolate detection uses it); only the
  // *billing* below varies.
  std::deque<Object*> queue;
  auto mark_root = [&](Object* o, i32 iso) {
    if (o == nullptr || o->gc_mark != 0) return;
    o->gc_mark = 1;
    o->charged_isolate = iso;
    o->reach_mask = 0;
    if (policy == AccountingPolicy::FirstReference) charge(o, iso);
    queue.push_back(o);
  };

  {
    obs::TraceSpan mark_span(obs::Ev::GcMark, -1);
    enumerate_roots(mark_root);

    while (!queue.empty()) {
      Object* o = queue.front();
      queue.pop_front();
      const i32 iso = o->charged_isolate;
      o->forEachRef([&](Object* child) {
        if (child->gc_mark != 0) return;
        child->gc_mark = 1;
        child->charged_isolate = iso;  // inherits the discovering isolate
        child->reach_mask = 0;
        if (policy == AccountingPolicy::FirstReference) charge(child, iso);
        queue.push_back(child);
      });
    }
  }

  obs::emit(obs::Ev::GcAccounting, obs::Ph::Begin, -1);
  switch (policy) {
    case AccountingPolicy::FirstReference:
      break;  // charged during the mark above
    case AccountingPolicy::CreatorPays:
      // One extra walk over the live set; no propagation.
      for_each_marked([&](Object* o) { charge(o, o->creator_isolate); });
      break;
    case AccountingPolicy::DividedShared: {
      // Propagate per-isolate reachability masks to a fixpoint, then split
      // each object's footprint among the isolates that reach it. This is
      // the extra cost the paper declined to pay (section 3.2: "would
      // introduce a new list traversal for all objects during GC").
      auto root_bit = [](i32 iso) -> u64 {
        u64 bit = iso < 0 ? 0 : (iso > 63 ? 63 : static_cast<u64>(iso));
        return u64{1} << bit;
      };
      std::deque<Object*> work;
      enumerate_roots([&](Object* o, i32 iso) {
        if (o == nullptr || o->gc_mark == 0) return;
        u64 bit = root_bit(iso);
        if ((o->reach_mask & bit) == 0) {
          o->reach_mask |= bit;
          work.push_back(o);
        }
      });
      while (!work.empty()) {
        Object* o = work.front();
        work.pop_front();
        const u64 mask = o->reach_mask;
        o->forEachRef([&](Object* child) {
          if ((child->reach_mask | mask) != child->reach_mask) {
            child->reach_mask |= mask;
            work.push_back(child);
          }
        });
      }
      for_each_marked([&](Object* o) {
        const int sharers = std::popcount(o->reach_mask);
        if (sharers > 1) {
          stats.shared_objects += 1;
          stats.shared_bytes += footprint(o);
        }
        for (int bit = 0; bit < 64; ++bit) {
          if ((o->reach_mask >> bit) & 1) {
            charge(o, bit, static_cast<size_t>(sharers));
          }
        }
      });
      break;
    }
  }
  obs::emit(obs::Ev::GcAccounting, obs::Ph::End, -1);

  // ---- sweep: each cache's table in place, one shard per cache ----
  obs::TraceSpan sweep_span(obs::Ev::GcSweep, -1);
  u64 allocated = 0;
  for (AllocCache* c = firstCache(); c != nullptr; c = c->next_) {
    sweepTable(c->objects_, stats);
    allocated += c->bytes_.load(std::memory_order_relaxed);
    c->bytes_.store(0, std::memory_order_relaxed);
    c->count_.store(0, std::memory_order_relaxed);
    c->grant_left_ = 0;
  }
  // Before granted_ resets: a reader that sees the reset also sees these.
  live_bytes_.store(stats.live_bytes, std::memory_order_relaxed);
  live_objects_.store(stats.live_objects, std::memory_order_relaxed);
  total_at_gc_.store(total_at_gc_.load(std::memory_order_relaxed) + allocated,
                     std::memory_order_relaxed);
  granted_.store(0, std::memory_order_release);
  return stats;
}

}  // namespace ijvm
