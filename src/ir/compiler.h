#ifndef TSLRW_IR_COMPILER_H_
#define TSLRW_IR_COMPILER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "ir/ir.h"
#include "obs/metrics.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Lowers TSL rules — a single query, a rule set, or a rewritten
/// plan list — to the flat register IR in one pass (docs/IR.md): every body
/// condition becomes one kJoinUnit over a match unit interned by the
/// condition's α-invariant key, so α-equivalent conditions anywhere in the
/// program share one unit.
///
/// Compilation is total: shapes the tree walker only rejects at runtime
/// (unsafe head variables, function-term head values) compile fine and
/// reproduce the identical error when the interpreter reaches them.
class PlanCompiler {
 public:
  explicit PlanCompiler(MetricRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  /// Compiles a single rule: one segment; ExecuteIr matches Evaluate.
  Result<std::shared_ptr<const IrProgram>> Compile(
      const TslQuery& query) const;

  /// Compiles a rule set: one segment per rule sharing one answer;
  /// ExecuteIr matches EvaluateRuleSet.
  Result<std::shared_ptr<const IrProgram>> Compile(
      const TslRuleSet& rules) const;

  /// Compiles an already-rewritten plan list: one segment per plan.
  /// ExecuteIrPerSegment matches per-plan Evaluate calls, with match units
  /// (and their materialized rows) shared across plans.
  Result<std::shared_ptr<const IrProgram>> CompilePlans(
      const std::vector<TslQuery>& plans) const;

 private:
  MetricRegistry* metrics_ = nullptr;
};

}  // namespace tslrw

#endif  // TSLRW_IR_COMPILER_H_
