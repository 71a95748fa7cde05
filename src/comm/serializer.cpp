#include "comm/serializer.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "heap/object.h"
#include "obs/trace.h"
#include "support/strf.h"

namespace ijvm {

namespace {

// Visited set of one graph walk: Object* -> V, open addressing with linear
// probing (a null key marks an empty slot), kept at most half full. The
// first kInline slots live inside the map, so a message of up to
// kInline / 2 nodes is walked without touching the allocator.
template <typename V>
class NodeMap {
 public:
  NodeMap() = default;
  NodeMap(const NodeMap&) = delete;
  NodeMap& operator=(const NodeMap&) = delete;

  // The value stored for `key`, or nullptr when `key` is absent.
  V* find(const Object* key) {
    for (size_t i = slotOf(key);; i = (i + 1) & mask_) {
      Entry& e = slots_[i];
      if (e.key == key) return &e.value;
      if (e.key == nullptr) return nullptr;
    }
  }

  // Adds `key`, which must be absent.
  void insert(const Object* key, V value) {
    if (2 * (size_ + 1) > mask_ + 1) grow();
    place(key, value);
    ++size_;
  }

 private:
  struct Entry {
    const Object* key = nullptr;
    V value{};
  };
  static constexpr size_t kInline = 256;
  static constexpr int kInlineBits = 8;

  // Fibonacci hashing: object addresses share their low bits (block
  // alignment), so the slot comes from the product's high bits.
  size_t slotOf(const Object* key) const {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void place(const Object* key, V value) {
    size_t i = slotOf(key);
    while (slots_[i].key != nullptr) i = (i + 1) & mask_;
    slots_[i] = Entry{key, value};
  }
  void grow() {
    std::vector<Entry> old(slots_, slots_ + mask_ + 1);
    heap_.assign(old.size() * 2, Entry{});
    slots_ = heap_.data();
    mask_ = heap_.size() - 1;
    --shift_;
    for (const Entry& e : old) {
      if (e.key != nullptr) place(e.key, e.value);
    }
  }

  std::array<Entry, kInline> inline_{};
  std::vector<Entry> heap_;
  Entry* slots_ = inline_.data();
  size_t mask_ = kInline - 1;
  int shift_ = 64 - kInlineBits;
  size_t size_ = 0;
};

// An open container on a walk's explicit stack: a reference array or a
// Plain object whose edges (elements, or field slots 0..instance_slots)
// from `next` to `end` are still to visit. `copy` is the receiver-side
// node the copy walker fills (unused by the codec).
struct Open {
  Object* node;
  Object* copy;
  i32 next;
  i32 end;
};

bool isContainer(const Object* o) {
  return o->kind == ObjKind::ArrayRef || o->kind == ObjKind::Plain;
}

i32 edgeCount(const Object* o) {
  return o->kind == ObjKind::ArrayRef ? o->length : o->cls->instance_slots;
}

// Name of the instance field that lives in `slot` of `cls` objects.
const char* fieldNameAt(const JClass* cls, i32 slot) {
  for (const JClass* c = cls; c != nullptr; c = c->super) {
    for (const JField& f : c->fields) {
      if (!f.isStatic() && f.slot == slot) return f.name.c_str();
    }
  }
  return "?";
}

// Field/element path from the message root to the node being visited
// ("<root>.payload[3]"), rebuilt from the open containers on the walk's
// stack: each frame's cursor sits one past the edge the walk descended
// through. Only built when an error is raised.
std::string pathOf(const std::vector<Open>& stack) {
  std::string p = "<root>";
  for (const Open& f : stack) {
    const i32 edge = f.next - 1;
    if (f.node->kind == ObjKind::ArrayRef) {
      p += strf("[%d]", edge);
    } else {
      p += '.';
      p += fieldNameAt(f.node->cls, edge);
    }
  }
  return p;
}

// Brackets straight-line host code so it counts as a Running mutator:
// while counted, no stop-the-world operation (GC accounting pass,
// terminateIsolate) can complete, so the bracketed code is atomic with
// respect to both. Attached host threads (comm servers, pool embedders)
// sit in Blocked between guest calls and are NOT parked by a
// stop-the-world, so flipping them counted is the only way to exclude the
// collector; a thread already Running is already counted and needs no
// transition. The bracketed code must never poll, block or allocate.
class CountedScope {
 public:
  CountedScope(VM& vm, JThread* t)
      : sp_(vm.safepoints()),
        t_(t),
        was_blocked_(t->state.load(std::memory_order_acquire) !=
                     ThreadState::Running) {
    if (was_blocked_) sp_.exitBlocked(t_);
  }
  ~CountedScope() {
    if (was_blocked_) sp_.enterBlocked(t_);
  }
  CountedScope(const CountedScope&) = delete;
  CountedScope& operator=(const CountedScope&) = delete;

 private:
  SafepointController& sp_;
  JThread* t_;
  const bool was_blocked_;
};

// The shared copy/donate walker behind deepCopy and transferGraph.
// `sender` == nullptr disables donation (pure deep copy). Depth-first over
// an explicit stack, so the depth of a message never reaches the host
// stack. Only the root copy is a local root: every later node is stored
// into its (already reachable) parent before the next allocation, the
// only point where a collection can run.
Object* copyOrTransfer(VM& vm, JThread* receiver, Isolate* sender,
                       Object* src, TransferStats* stats) {
  if (src == nullptr) return nullptr;
  NodeMap<Object*> copies;
  std::vector<Open> stack;
  LocalRootScope roots(receiver);
  Isolate* recv_iso = receiver->current_isolate.load(std::memory_order_relaxed);

  const bool donate_enabled = vm.options().comm_zero_copy &&
                              vm.options().isolation && sender != nullptr &&
                              sender != recv_iso;

  // Donates `o` (leaf kinds only): re-keys it to the receiver and moves
  // its bytes from the sender's account to the receiver's. The decisive
  // checks repeat inside a CountedScope so the re-key + charge transfer
  // cannot interleave with a GC's charge recomputation or with
  // terminateIsolate (docs/comm.md, "Donation vs termination"). Returns
  // nullptr when ineligible; the caller falls back to copying.
  auto tryDonate = [&](Object* o) -> Object* {
    // Cheap conservative pre-checks (racy reads are fine; the decisive
    // repeat is inside the bracket). `interned` is set before an interned
    // string is published and a string is only ever interned fresh
    // (VM::internString), so the flag is stable without the intern lock.
    if (o->creator_isolate != sender->id || o->monitor != nullptr ||
        o->interned != 0) {
      return nullptr;
    }
    CountedScope counted(vm, receiver);
    if (!sender->isActive() || !recv_iso->isActive()) return nullptr;
    if (o->creator_isolate != sender->id || o->monitor != nullptr) {
      return nullptr;
    }
    o->creator_isolate = recv_iso->id;
    const u64 bytes = o->byte_size;
    if (vm.options().accounting) {
      // Debit the receiver before crediting the sender so a concurrent
      // memory-limit check never observes the bytes as unowned.
      recv_iso->stats.donated_bytes_delta.fetch_add(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      sender->stats.donated_bytes_delta.fetch_sub(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      recv_iso->stats.bytes_donated_in.fetch_add(bytes, std::memory_order_relaxed);
      sender->stats.bytes_donated_out.fetch_add(bytes, std::memory_order_relaxed);
      recv_iso->stats.objects_donated_in.fetch_add(1, std::memory_order_relaxed);
      sender->stats.objects_donated_out.fetch_add(1, std::memory_order_relaxed);
    }
    if (stats != nullptr) {
      stats->objects_donated += 1;
      stats->bytes_donated += bytes;
    }
    return o;
  };

  // The receiver-side node for `o` (non-null): the one already made for
  // it, a donated original, or a fresh copy -- a fresh container is pushed
  // with its edges still to fill. nullptr means a pending exception.
  auto visit = [&](Object* o) -> Object* {
    if (Object** seen = copies.find(o)) return *seen;
    // Donation fast path: only leaf kinds (primitive arrays, strings) are
    // eligible, so a donated node never has edges to follow.
    if (donate_enabled &&
        (o->kind == ObjKind::String || o->kind == ObjKind::ArrayInt ||
         o->kind == ObjKind::ArrayLong || o->kind == ObjKind::ArrayDouble)) {
      if (Object* d = tryDonate(o)) {
        copies.insert(o, d);
        return d;
      }
    }
    Object* dup = nullptr;
    switch (o->kind) {
      case ObjKind::String:
        dup = vm.newStringObject(receiver, o->str());
        break;
      case ObjKind::ArrayInt:
      case ObjKind::ArrayLong:
      case ObjKind::ArrayDouble: {
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        if (dup != nullptr && o->length > 0) {
          size_t elem = o->kind == ObjKind::ArrayInt ? sizeof(i32) : sizeof(i64);
          std::memcpy(dup->intElems(), o->intElems(),
                      elem * static_cast<size_t>(o->length));
        }
        break;
      }
      case ObjKind::ArrayRef:
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        break;
      case ObjKind::Plain:
        dup = vm.allocObject(receiver, o->cls);
        break;
      case ObjKind::Native: {
        Isolate* owner = vm.isolateById(o->creator_isolate);
        vm.throwGuest(
            receiver, "java/lang/IllegalArgumentException",
            strf("cannot copy native-backed object: %s (owned by isolate "
                 "'%s' #%d) at %s",
                 o->cls->name.c_str(),
                 owner != nullptr ? owner->name.c_str() : "?",
                 o->creator_isolate, pathOf(stack).c_str()));
        return nullptr;
      }
    }
    if (dup == nullptr) {
      if (receiver->pending_exception == nullptr) {
        vm.throwGuest(receiver, "java/lang/OutOfMemoryError", "deepCopy");
      }
      return nullptr;
    }
    copies.insert(o, dup);
    if (stats != nullptr) {
      stats->objects_copied += 1;
      stats->bytes_copied += dup->byte_size;
    }
    if (isContainer(o)) stack.push_back(Open{o, dup, 0, edgeCount(o)});
    return dup;
  };

  Object* root = visit(src);
  if (root == nullptr) return nullptr;
  roots.add(root);
  while (!stack.empty()) {
    Open& f = stack.back();
    if (f.next == f.end) {
      stack.pop_back();
      continue;
    }
    const i32 i = f.next++;
    Object* const from = f.node;
    Object* const to = f.copy;  // `f` dangles once visit() pushes
    if (from->kind == ObjKind::ArrayRef) {
      Object* child = from->refElems()[i];
      if (child == nullptr) continue;
      Object* c = visit(child);
      if (c == nullptr) return nullptr;
      to->refElems()[i] = c;
    } else {
      const Value v = from->fields()[i];
      if (v.kind != Kind::Ref) {
        to->fields()[i] = v;
        continue;
      }
      if (v.ref == nullptr) continue;
      Object* c = visit(v.ref);
      if (c == nullptr) return nullptr;
      to->fields()[i] = Value::ofRef(c);
    }
  }
  return root;
}

}  // namespace

Object* deepCopy(VM& vm, JThread* receiver, Object* src) {
  return copyOrTransfer(vm, receiver, /*sender=*/nullptr, src, nullptr);
}

Object* transferGraph(VM& vm, JThread* receiver, Isolate* sender, Object* root,
                      TransferStats* stats) {
  TransferStats local;
  if (stats == nullptr) stats = &local;
  Object* out = copyOrTransfer(vm, receiver, sender, root, stats);
  if (stats->objects_donated > 0 && obs::traceEnabled()) {
    Isolate* recv_iso =
        receiver->current_isolate.load(std::memory_order_relaxed);
    obs::emit(obs::Ev::CommDonate, obs::Ph::Instant, recv_iso->id,
              stats->bytes_donated, stats->objects_donated);
    obs::recordLatency(obs::Lat::DonatedBytes, stats->bytes_donated);
  }
  return out;
}

// ------------------------------------------------------------- serialize

namespace {

// RMI-style integrity footer: h = h * 131 + byte over the payload,
// evaluated four bytes per step (the powers of 131 folded in) so the
// multiply chain is a quarter as long. Wraps modulo 2^32.
u32 checksum(std::string_view s) {
  constexpr u32 k1 = 131, k2 = k1 * k1, k3 = k2 * k1, k4 = k3 * k1;
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const size_t n = s.size();
  u32 h = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h = h * k4 + p[i] * k3 + p[i + 1] * k2 + p[i + 2] * k1 + p[i + 3];
  }
  for (; i < n; ++i) h = h * k1 + p[i];
  return h;
}

class Writer {
 public:
  Writer() { out_.reserve(512); }
  void tag(std::string_view t) {
    out_.append(t);
    out_.push_back(' ');
  }
  void num(i64 v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    out_.push_back(' ');
  }
  // Shortest text that parses back to exactly `v`.
  void dbl(double v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    out_.push_back(' ');
  }
  void str(std::string_view s) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), s.size()).ptr);
    out_.push_back(':');
    out_.append(s);
    out_.push_back(' ');
  }
  std::string finish() {
    char head[64];
    const int n = std::snprintf(head, sizeof(head), "IJSER1 %zu %u\n",
                                out_.size(), checksum(out_));
    out_.insert(0, head, static_cast<size_t>(n));
    return std::move(out_);
  }

 private:
  std::string out_;
};

// Tokenizer over a stream. Tokens are views into the stream; a malformed
// or missing token clears ok() and records why in error(), and every later
// read then returns an empty value -- the reader never throws.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  // Checks the header and the checksum footer.
  bool open() {
    if (s_.substr(0, 7) != "IJSER1 ") return false;
    pos_ = 7;
    const auto len = num<u64>();
    const auto sum = num<u32>();
    if (!ok_ || pos_ >= s_.size() || s_[pos_] != '\n') return false;
    ++pos_;
    return len == s_.size() - pos_ && checksum(s_.substr(pos_)) == sum;
  }

  std::string_view word() {
    skipSpace();
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ' && s_[pos_] != '\n') ++pos_;
    if (pos_ == start) fail(nullptr, {});
    return s_.substr(start, pos_ - start);
  }
  template <typename T>
  T num() {
    T v{};
    const std::string_view w = word();
    if (!ok_) return v;
    const auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), v);
    if (ec != std::errc() || end != w.data() + w.size()) {
      fail("bad number", w);
      return T{};
    }
    return v;
  }
  // An element count: at least one byte per element and its separator
  // must follow, so a forged count cannot make the receiver allocate far
  // more than the stream carries.
  i32 count() {
    const auto n = num<i32>();
    if (ok_ && (n < 0 || static_cast<size_t>(n) > (s_.size() - pos_) / 2)) {
      fail("bad count", std::to_string(n));
      return 0;
    }
    return n;
  }
  // "<len>:<bytes>".
  std::string_view str() {
    skipSpace();
    const size_t colon = s_.find(':', pos_);
    if (!ok_ || colon == std::string_view::npos) {
      fail(nullptr, {});
      return {};
    }
    const std::string_view digits = s_.substr(pos_, colon - pos_);
    size_t len = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), len);
    if (digits.empty() || ec != std::errc() ||
        end != digits.data() + digits.size()) {
      fail("bad length", digits);
      return {};
    }
    pos_ = colon + 1;
    if (len > s_.size() - pos_) {
      fail(nullptr, {});
      return {};
    }
    const std::string_view out = s_.substr(pos_, len);
    pos_ += len;
    return out;
  }
  bool atEnd() {
    skipSpace();
    return pos_ == s_.size();
  }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  void skipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n')) ++pos_;
  }
  // `what` == nullptr: the stream ended early.
  void fail(const char* what, std::string_view token) {
    if (!ok_) return;
    ok_ = false;
    error_ = what == nullptr
                 ? std::string("truncated serialized stream")
                 : strf("malformed serialized stream: %s '%s' at byte %zu",
                        what, std::string(token).c_str(), pos_);
  }

  const std::string_view s_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// Classes a stream named so far, each resolved once per stream. Linear: a
// message names a handful of classes.
class ClassCache {
 public:
  // The class `name`, or with `array` the array of it, through `loader`.
  JClass* resolve(VM& vm, ClassLoader* loader, std::string_view name, bool array) {
    for (const Entry& e : entries_) {
      if (e.array == array && e.name == name) return e.cls;
    }
    JClass* cls = vm.registry().resolve(
        loader, array ? "[L" + std::string(name) + ";" : std::string(name));
    entries_.push_back(Entry{name, array, cls});
    return cls;
  }

 private:
  struct Entry {
    std::string_view name;
    bool array;
    JClass* cls;
  };
  std::vector<Entry> entries_;
};

// A class name the stream may carry: an array or malformed descriptor
// would reach the registry's descriptor parser, which treats a bad one as
// a VM bug.
bool isPlainClassName(std::string_view name) {
  return !name.empty() && name.find_first_of("[;") == std::string_view::npos;
}

// Whether an OBJ record may name `cls`: NEW could instantiate it (not
// abstract), and its objects are plain guest values. A String's payload is
// a host string and a Class object's `__jclass` slot a host JClass*; a
// stream could forge either.
bool isPlainObjectClass(const JClass* cls) {
  if (cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0) return false;
  for (const JClass* c = cls; c != nullptr; c = c->super) {
    if (c->isSystemLib() &&
        (c->name == "java/lang/String" || c->name == "java/lang/Class")) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string serializeGraph(VM& vm, Object* root) {
  (void)vm;
  Writer w;
  NodeMap<i64> ids;
  i64 next_id = 0;
  std::vector<Open> stack;

  // Writes `o`: NULL, a back-reference, or a node header (plus the payload
  // of a leaf). A container is pushed with its edges still to write.
  auto open = [&](Object* o) {
    if (o == nullptr) {
      w.tag("NULL");
      return;
    }
    if (const i64* id = ids.find(o)) {
      w.tag("BACK");
      w.num(*id);
      return;
    }
    if (o->kind == ObjKind::Native) {
      // Not serializable; encode as null (callers validate beforehand).
      w.tag("NULL");
      return;
    }
    const i64 id = next_id++;
    ids.insert(o, id);
    switch (o->kind) {
      case ObjKind::String:
        w.tag("STR");
        w.num(id);
        w.str(o->str());
        break;
      case ObjKind::ArrayInt:
        w.tag("ARI");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.num(o->intElems()[i]);
        break;
      case ObjKind::ArrayLong:
        w.tag("ARL");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.num(o->longElems()[i]);
        break;
      case ObjKind::ArrayDouble:
        w.tag("ARD");
        w.num(id);
        w.num(o->length);
        for (i32 i = 0; i < o->length; ++i) w.dbl(o->doubleElems()[i]);
        break;
      case ObjKind::ArrayRef:
        w.tag("ARR");
        w.num(id);
        w.str(o->cls->elem_class != nullptr ? o->cls->elem_class->name
                                            : "java/lang/Object");
        w.num(o->length);
        stack.push_back(Open{o, nullptr, 0, o->length});
        break;
      case ObjKind::Plain:
        w.tag("OBJ");
        w.num(id);
        w.str(o->cls->name);
        w.num(o->cls->instance_slots);
        stack.push_back(Open{o, nullptr, 0, o->cls->instance_slots});
        break;
      case ObjKind::Native:
        break;
    }
  };

  open(root);
  while (!stack.empty()) {
    Open& f = stack.back();
    if (f.next == f.end) {
      stack.pop_back();
      continue;
    }
    const i32 i = f.next++;
    Object* const o = f.node;  // `f` dangles once open() pushes
    if (o->kind == ObjKind::ArrayRef) {
      open(o->refElems()[i]);
      continue;
    }
    const Value v = o->fields()[i];
    switch (v.kind) {
      case Kind::Int:
        w.tag("I");
        w.num(v.asInt());
        break;
      case Kind::Long:
        w.tag("J");
        w.num(v.asLong());
        break;
      case Kind::Double:
        w.tag("D");
        w.dbl(v.asDouble());
        break;
      default:
        w.tag("R");
        open(v.asRef());
        break;
    }
  }
  return w.finish();
}

Object* deserializeGraph(VM& vm, JThread* receiver, const std::string& bytes) {
  Reader r(bytes);
  if (!r.open()) {
    vm.throwGuest(receiver, "java/lang/IllegalArgumentException",
                  "corrupt serialized stream");
    return nullptr;
  }
  Isolate* iso = receiver->current_isolate.load(std::memory_order_relaxed);
  std::vector<Object*> ids;  // stream id -> node; ids are dense and in order
  std::vector<Open> stack;
  ClassCache classes;
  std::array<JClass*, 3> prim_arrays{};  // [I, [J, [D, once looked up
  LocalRootScope roots(receiver);
  bool failed = false;

  // Every failure lands here: a pending guest exception (the allocation's
  // own OutOfMemoryError, or the one raised here) and a null result.
  auto fail = [&](const char* exception_class, std::string message) -> Object* {
    failed = true;
    if (receiver->pending_exception == nullptr) {
      vm.throwGuest(receiver, exception_class, message);
    }
    return nullptr;
  };
  auto malformed = [&](std::string message) -> Object* {
    return fail("java/lang/IllegalArgumentException", std::move(message));
  };
  auto defined = [&](Object* o) -> Object* {
    if (o == nullptr) return fail("java/lang/OutOfMemoryError", "deserialize");
    ids.push_back(o);
    if (isContainer(o)) stack.push_back(Open{o, nullptr, 0, edgeCount(o)});
    return o;
  };

  // Reads one value: NULL, a back-reference, or a node (a leaf complete
  // with its payload, a container pushed with its edges still to read).
  // nullptr with `failed` set means a pending exception.
  auto readValue = [&]() -> Object* {
    const std::string_view tag = r.word();
    if (!r.ok()) return malformed(r.error());
    if (tag == "NULL") return nullptr;
    const auto id = r.num<u64>();
    if (!r.ok()) return malformed(r.error());
    if (tag == "BACK") {
      if (id >= ids.size()) {
        return malformed(strf("bad back-reference %llu",
                              static_cast<unsigned long long>(id)));
      }
      return ids[id];
    }
    if (id != ids.size()) {
      return malformed(strf("out-of-order object id %llu",
                            static_cast<unsigned long long>(id)));
    }
    if (tag == "STR") {
      const std::string_view chars = r.str();
      if (!r.ok()) return malformed(r.error());
      return defined(vm.newStringObject(receiver, std::string(chars)));
    }
    if (tag == "ARI" || tag == "ARL" || tag == "ARD") {
      const size_t k = tag == "ARI" ? 0 : (tag == "ARL" ? 1 : 2);
      const i32 len = r.count();
      if (!r.ok()) return malformed(r.error());
      if (prim_arrays[k] == nullptr) {
        prim_arrays[k] = vm.registry().arrayClass(k == 0 ? "[I" : (k == 1 ? "[J" : "[D"));
      }
      Object* arr = defined(vm.allocArrayObject(receiver, prim_arrays[k], len));
      if (arr == nullptr) return nullptr;
      for (i32 i = 0; i < len; ++i) {
        if (k == 0) {
          arr->intElems()[i] = r.num<i32>();
        } else if (k == 1) {
          arr->longElems()[i] = r.num<i64>();
        } else {
          arr->doubleElems()[i] = r.num<double>();
        }
      }
      if (!r.ok()) return malformed(r.error());
      return arr;
    }
    if (tag == "ARR") {
      const std::string_view elem = r.str();
      const i32 len = r.count();
      if (!r.ok()) return malformed(r.error());
      if (!isPlainClassName(elem)) {
        return malformed("unsupported array element class '" +
                         std::string(elem) + "'");
      }
      JClass* cls = classes.resolve(vm, iso->loader, elem, /*array=*/true);
      if (cls == nullptr) {
        return fail("java/lang/NoClassDefFoundError", std::string(elem));
      }
      return defined(vm.allocArrayObject(receiver, cls, len));
    }
    if (tag == "OBJ") {
      const std::string_view name = r.str();
      const auto nfields = r.num<i64>();
      if (!r.ok()) return malformed(r.error());
      if (!isPlainClassName(name)) {
        return malformed("bad class name '" + std::string(name) + "'");
      }
      JClass* cls = classes.resolve(vm, iso->loader, name, /*array=*/false);
      if (cls == nullptr) {
        return fail("java/lang/NoClassDefFoundError", std::string(name));
      }
      if (!isPlainObjectClass(cls)) {
        return malformed("cannot deserialize a " + cls->name + " as an object");
      }
      if (nfields != cls->instance_slots) {
        return malformed("field count mismatch for " + std::string(name));
      }
      return defined(vm.allocObject(receiver, cls));
    }
    return malformed("bad stream tag '" + std::string(tag) + "'");
  };

  Object* root = readValue();
  if (failed) return nullptr;
  roots.add(root);
  // Each node is stored into its (already reachable) parent before the
  // next allocation, so the root is the only local root the walk needs.
  while (!stack.empty()) {
    Open& f = stack.back();
    if (f.next == f.end) {
      stack.pop_back();
      continue;
    }
    const i32 i = f.next++;
    Object* const node = f.node;  // `f` dangles once readValue() pushes
    if (node->kind == ObjKind::ArrayRef) {
      Object* v = readValue();
      if (failed) return nullptr;
      node->refElems()[i] = v;
      continue;
    }
    // The field's declared kind: allocObject set every slot to the typed
    // zero of its field, and only values of that kind are stored.
    const Kind declared = node->fields()[i].kind;
    const std::string_view tag = r.word();
    if (!r.ok()) return malformed(r.error());
    const Kind got = tag == "I"   ? Kind::Int
                     : tag == "J" ? Kind::Long
                     : tag == "D" ? Kind::Double
                     : tag == "R" ? Kind::Ref
                                  : Kind::Void;
    if (got == Kind::Void) {
      return malformed("bad field tag '" + std::string(tag) + "'");
    }
    if (got != declared) {
      return malformed(strf("field kind mismatch: %s.%s is %s, stream has '%.*s'",
                            node->cls->name.c_str(), fieldNameAt(node->cls, i),
                            kindName(declared), static_cast<int>(tag.size()),
                            tag.data()));
    }
    switch (got) {
      case Kind::Int:
        node->fields()[i] = Value::ofInt(r.num<i32>());
        break;
      case Kind::Long:
        node->fields()[i] = Value::ofLong(r.num<i64>());
        break;
      case Kind::Double:
        node->fields()[i] = Value::ofDouble(r.num<double>());
        break;
      default: {
        Object* v = readValue();
        if (failed) return nullptr;
        node->fields()[i] = Value::ofRef(v);
        break;
      }
    }
    if (!r.ok()) return malformed(r.error());
  }
  if (!r.atEnd()) return malformed("trailing data after serialized graph");
  return root;
}

}  // namespace ijvm
