#ifndef TSLRW_IR_COMPILER_H_
#define TSLRW_IR_COMPILER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ir/ir.h"
#include "obs/metrics.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Which optimization passes run after lowering (docs/IR.md). All on
/// by default — every configuration is byte-identical in its answers; the
/// toggles exist for the per-pass benchmark ablation and the IR dump.
struct IrPassOptions {
  /// Convert each inline condition block into a materialized match unit
  /// joined back on shared variables. A condition matched from scratch and
  /// filtered by BoundValue equality on the shared variables accepts
  /// exactly the extensions the inline pipeline would (matching is
  /// confluent), so rows — and therefore answers — are unchanged.
  bool hoist_invariant_submatches = true;
  /// Merge α-equivalent units (equal condition fingerprints) across
  /// conditions, member rules, and plans, so shared subplans are matched
  /// once per execution. Requires hoisting.
  bool common_subplan_elimination = true;
};

/// \brief Lowers TSL rules — a single query, a rule set, or a rewritten
/// plan list — to the flat register IR and runs the optimization passes.
///
/// Compilation is total: shapes the tree walker only rejects at runtime
/// (unsafe head variables, function-term head values) compile fine and
/// reproduce the identical error when the interpreter reaches them.
class PlanCompiler {
 public:
  PlanCompiler() = default;
  explicit PlanCompiler(IrPassOptions passes,
                        MetricRegistry* metrics = nullptr)
      : passes_(passes), metrics_(metrics) {}

  /// Compiles a single rule: one segment; ExecuteIr matches Evaluate.
  Result<std::shared_ptr<const IrProgram>> Compile(
      const TslQuery& query) const;

  /// Compiles a rule set: one segment per rule sharing one answer;
  /// ExecuteIr matches EvaluateRuleSet.
  Result<std::shared_ptr<const IrProgram>> Compile(
      const TslRuleSet& rules) const;

  /// Compiles an already-rewritten plan list: one segment per plan.
  /// ExecuteIrPerSegment matches per-plan Evaluate calls, with hoisted
  /// units (and, with CSE, their materialized rows) shared across plans.
  Result<std::shared_ptr<const IrProgram>> CompilePlans(
      const std::vector<TslQuery>& plans) const;

 private:
  IrPassOptions passes_;
  MetricRegistry* metrics_ = nullptr;
};

/// \brief The α-invariant key the CSE pass shares units by: the condition's
/// pattern with variables renamed in first-occurrence order (O0/C0...,
/// preserving sorts), rendered and fingerprinted together with the source
/// name. Equal keys => identical candidate iteration => identical rows.
/// Exposed for tests.
uint64_t ConditionFingerprint(const Condition& condition);

/// \brief The canonical name each variable of \p condition receives under
/// the ConditionFingerprint renaming, in first-occurrence order.
std::map<Term, std::string> CanonicalConditionNames(
    const Condition& condition);

}  // namespace tslrw

#endif  // TSLRW_IR_COMPILER_H_
