// Heap object model.
//
// Every guest object is a header followed by its payload:
//   Plain    -- Value slots (instance fields, including superclasses)
//   Array*   -- typed element payload (i32 / i64 / double / Object*)
//   String   -- immutable character payload (owned std::string)
//   Native   -- an opaque C++ payload (connections, collections, ...)
//
// The header records the *creator* isolate (paper: "when an isolate
// allocates an object, I-JVM charges the object to the isolate") and the
// isolate the object was charged to by the most recent GC accounting pass.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bytecode/value.h"
#include "classes/jclass.h"

namespace ijvm {

struct Monitor;

enum class ObjKind : u8 {
  Plain,
  ArrayInt,
  ArrayLong,
  ArrayDouble,
  ArrayRef,
  String,
  Native,
};

// Base class for C++ payloads of Native objects. Payloads that hold guest
// references must override trace() so the GC can see them.
class NativePayload {
 public:
  virtual ~NativePayload() = default;
  // Visit every guest reference held by this payload.
  virtual void trace(const std::function<void(Object*)>& visit) { (void)visit; }
  // Current payload footprint in bytes (may grow, e.g. StringBuilder).
  virtual size_t byteSize() const { return 0; }
  // True for connection-like resources (FileDescriptor / Socket); the GC
  // accounting pass counts these per isolate (paper section 3.2).
  virtual bool isConnection() const { return false; }
};

struct Object {
  JClass* cls = nullptr;
  ObjKind kind = ObjKind::Plain;
  u8 gc_mark = 0;
  // Heap block-cache size class this object's storage came from (0xffff:
  // allocated directly, returned to the system allocator on free). Fits in
  // what was header padding.
  u16 alloc_bucket = 0xffff;
  i32 creator_isolate = 0;   // isolate that allocated the object
  i32 charged_isolate = -1;  // isolate charged by the last GC pass (-1: none)
  // Strings: 1 once the string sits in an intern table (VM::internString
  // sets it before the string is published). Fits in header padding.
  u8 interned = 0;
  // Scratch bitmask used by the DividedShared accounting pass: bit i set =
  // reachable from isolate min(i, 63). Only meaningful during a collection.
  u64 reach_mask = 0;
  Monitor* monitor = nullptr;  // lazily created
  i32 length = 0;              // arrays: element count
  size_t byte_size = 0;        // header + payload footprint at allocation
  // Unused: the header stays 64 bytes, so every byte_size -- and with it
  // every section-3.2 charge -- is what it was when this held the sweep's
  // list link (the heap now keeps per-thread object tables).
  u8 reserved[8] = {};

  // ---- payload accessors (no bounds checks here; interpreter checks) ----
  Value* fields() { return reinterpret_cast<Value*>(this + 1); }
  i32* intElems() { return reinterpret_cast<i32*>(this + 1); }
  i64* longElems() { return reinterpret_cast<i64*>(this + 1); }
  double* doubleElems() { return reinterpret_cast<double*>(this + 1); }
  Object** refElems() { return reinterpret_cast<Object**>(this + 1); }

  // String payload (kind == String).
  const std::string& str() const {
    return **reinterpret_cast<std::string* const*>(this + 1);
  }
  std::string*& strSlot() { return *reinterpret_cast<std::string**>(this + 1); }

  // Native payload (kind == Native).
  NativePayload* native() const {
    return *reinterpret_cast<NativePayload* const*>(this + 1);
  }
  NativePayload*& nativeSlot() { return *reinterpret_cast<NativePayload**>(this + 1); }

  bool isArray() const {
    return kind == ObjKind::ArrayInt || kind == ObjKind::ArrayLong ||
           kind == ObjKind::ArrayDouble || kind == ObjKind::ArrayRef;
  }

  // Visit all guest references reachable directly from this object. A
  // template, so the collector's visitor is called directly: wrapped in a
  // std::function, a capture larger than its small buffer would
  // heap-allocate once per marked object.
  template <typename F>
  void forEachRef(F&& visit);
};

template <typename F>
void Object::forEachRef(F&& visit) {
  switch (kind) {
    case ObjKind::Plain: {
      Value* f = fields();
      const i32 n = cls != nullptr ? cls->instance_slots : 0;
      for (i32 i = 0; i < n; ++i) {
        if (f[i].kind == Kind::Ref && f[i].ref != nullptr) visit(f[i].ref);
      }
      break;
    }
    case ObjKind::ArrayRef: {
      Object** elems = refElems();
      for (i32 i = 0; i < length; ++i) {
        if (elems[i] != nullptr) visit(elems[i]);
      }
      break;
    }
    case ObjKind::Native:
      // Payload tracing stays virtual; the reference_wrapper fits the
      // std::function small buffer, so this path does not allocate either.
      if (native() != nullptr) native()->trace(std::ref(visit));
      break;
    default:
      break;  // primitive arrays and strings hold no references
  }
}

// Header flags go in padding; the header must not grow.
static_assert(sizeof(Object) == 64, "Object header grew");

}  // namespace ijvm
