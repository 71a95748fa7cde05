// Superinstruction fusion: the third execution tier (docs/execution-tiers.md).
//
// Once a method is hot (invocations + loop back-edges cross
// VmOptions::fusion_threshold), its quickened stream is rewritten a second
// time: hot adjacent pairs/triples are collapsed into single fused opcodes
// with dedicated direct-threaded handlers, cutting dispatch count and
// operand-stack traffic on exactly the loops where interpretation cost
// dominates (the paper's Figure-1 micro-benchmarks). Disable per VM with
// VmOptions::fusion = false.
#pragma once

#include "support/common.h"

namespace ijvm::exec {

struct QCode;

// Fuses eligible adjacent groups in `qc` (idempotent -- already-fused
// heads are skipped; takes the engine mutex; safe while other threads
// execute the same stream, see the publication rules in fuse.cpp).
// `complete` marks a pass running after at least one full execution
// quickened the stream: only such a pass sets QCode::fusion_done and
// retires the method from further promotion checks. A partial pass (hot
// inside the very first invocation) fuses what is quickened so far and
// leaves the method eligible for the complete pass at its next entry; it
// runs *before* the same flush's OSR check, so a mid-invocation tier-3
// compile (docs/jit.md, "On-stack replacement") already sees the fused
// loop. Returns the number of groups fused by this pass.
u32 fuseQCode(QCode& qc, bool complete);

}  // namespace ijvm::exec
