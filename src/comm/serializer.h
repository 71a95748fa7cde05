// Object-graph copying, donation and serialization between isolates.
//
// Three fidelity levels, matching the isolate-communication models of
// Table 1 plus the zero-copy extension (docs/comm.md):
//  * transferGraph -- donation-aware graph transfer into the receiver's
//                     isolate: primitive arrays and strings the sender has
//                     relinquished are re-keyed to the receiver (ownership
//                     donation, charge transfer through ResourceStats)
//                     instead of copied; everything else deep-copies;
//  * deepCopy      -- direct graph copy into the receiver's isolate, the
//                     Incommunicado model (no byte encoding, but allocation
//                     and copying per call, plus thread synchronization);
//  * serialize /   -- text stream encoding with per-field kind tags and a
//    deserialize     checksum, the RMI model (everything deepCopy does plus
//                     encode/decode and transport).
//
// Supported graphs: null, strings, primitive arrays, one-dimensional
// reference arrays and Plain objects (fields in slot order). Shared nodes
// and cycles are preserved via back-references. Native-backed objects are
// not supported (they would not survive a real process boundary either).
// All four walkers are iterative, so a graph's depth never reaches the
// host stack.
#pragma once

#include <string>

#include "runtime/vm.h"

namespace ijvm {

// Outcome counters of one transferGraph call (also traced as
// Ev::CommDonate and the Lat::DonatedBytes histogram, docs/comm.md).
struct TransferStats {
  u64 objects_donated = 0;
  u64 bytes_donated = 0;
  u64 objects_copied = 0;
  u64 bytes_copied = 0;
};

// Moves the graph rooted at `root` from `sender` into the isolate
// `receiver` currently runs in. Donation-eligible nodes (docs/comm.md:
// primitive arrays and non-interned strings created by `sender`, no
// monitor, both isolates Active, options().comm_zero_copy set and the
// path not compiled out) are re-keyed to the receiver with their bytes
// charged to it -- sender credited, receiver debited, atomically with
// respect to GC and terminateIsolate; every other node deep-copies.
//
// Contract: the sender must have relinquished the message -- after the
// call it must not read or write any object reachable from `root` (the
// returned graph may alias donated originals). Allocations for copied
// nodes are charged to the receiver (it performs the copy). Returns
// nullptr and sets a pending guest exception on failure; a failed or
// partial transfer never leaks charge (donated-then-dropped nodes are
// receiver-charged garbage reclaimed by the next GC).
Object* transferGraph(VM& vm, JThread* receiver, Isolate* sender, Object* root,
                      TransferStats* stats = nullptr);

// Copies `src` into the isolate `receiver` currently runs in. Allocations
// are charged to the receiver (it performs the copy). Returns nullptr and
// sets a pending guest exception on failure.
Object* deepCopy(VM& vm, JThread* receiver, Object* src);

// Serializes the graph rooted at `root` (read-only, no allocation).
std::string serializeGraph(VM& vm, Object* root);

// Rebuilds the graph in the receiver's isolate; class names resolve through
// the receiver's current loader. Returns nullptr with a pending guest
// exception on any bad input -- a corrupt, truncated or malformed stream, a
// field whose stream tag does not match the kind its class declares, or an
// unresolvable class -- and never throws to the host.
Object* deserializeGraph(VM& vm, JThread* receiver, const std::string& bytes);

}  // namespace ijvm
