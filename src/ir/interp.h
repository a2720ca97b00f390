#ifndef TSLRW_IR_INTERP_H_
#define TSLRW_IR_INTERP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ir/ir.h"
#include "oem/database.h"
#include "obs/metrics.h"

namespace tslrw {

/// \brief Options for compiled-plan execution; mirrors EvalOptions so the
/// interpreter can stand in for the tree walker anywhere.
struct IrExecOptions {
  /// Source used for body conditions that carried no `@source` annotation.
  std::string default_source = "db";
  /// Name given to the answer database; defaults to the program's
  /// default_name (the front rule's name) — exactly Evaluate's rule.
  std::string answer_name;
  /// ir.* execution metrics plus eval.rules / eval.assignments /
  /// eval.roots_emitted per rule, as Evaluate reports them; null disables
  /// instrumentation.
  MetricRegistry* metrics = nullptr;
};

/// \brief Executes every segment of \p program into one shared answer
/// database — byte-identical to Evaluate (single segment) and
/// EvaluateRuleSet (many segments): same answer graph, same roots, same
/// name, and the same error on the same input (docs/IR.md).
Result<OemDatabase> ExecuteIr(const IrProgram& program,
                              const SourceCatalog& catalog,
                              const IrExecOptions& options = {});

/// \brief Executes each segment into its own answer database (named after
/// its rule unless \p options.answer_name overrides) — byte-identical to
/// per-plan Evaluate calls over a rewritten plan set, but with match
/// units materialized once and shared across all segments, which is
/// where compiled execution beats the tree walker on large plan sets.
Result<std::vector<OemDatabase>> ExecuteIrPerSegment(
    const IrProgram& program, const SourceCatalog& catalog,
    const IrExecOptions& options = {});

}  // namespace tslrw

#endif  // TSLRW_IR_INTERP_H_
