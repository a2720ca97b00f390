#ifndef TSLRW_IR_PASSES_H_
#define TSLRW_IR_PASSES_H_

#include "ir/compiler.h"
#include "ir/ir.h"
#include "obs/metrics.h"

namespace tslrw {

/// \brief Runs the enabled optimization passes over a freshly lowered
/// program, in their fixed order (docs/IR.md):
///
///   1. hoist-invariant-submatches — every inline condition block becomes a
///      materialized match unit plus one kJoinUnit op;
///   2. common-subplan-elimination — units with equal α-invariant condition
///      fingerprints merge, their dead bodies are swept, and every join's
///      bindmap is remapped through the canonical column names.
///
/// Each pass appends an IrPassStat (disabled passes record a "off" entry),
/// so dumps always show the full pipeline. Every configuration produces
/// byte-identical answers; only the work done differs.
void RunIrPasses(const IrPassOptions& passes, IrProgram* program,
                 MetricRegistry* metrics);

}  // namespace tslrw

#endif  // TSLRW_IR_PASSES_H_
