#ifndef TSLRW_EVAL_EVALUATOR_H_
#define TSLRW_EVAL_EVALUATOR_H_

#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oem/database.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Options for TSL evaluation.
struct EvalOptions {
  /// Source used for body conditions that carry no `@source` annotation.
  std::string default_source = "db";
  /// Name given to the answer database; defaults to the query name.
  std::string answer_name;
  /// Optional eval.* metric sink (rule evaluations, assignment counts,
  /// emitted roots); null disables instrumentation.
  MetricRegistry* metrics = nullptr;
  /// Optional span tree: one `eval.rule` span per evaluated rule. Spans sit
  /// on the deterministic control path only, so a fixed input replays the
  /// trace byte for byte (docs/OBSERVABILITY.md).
  Tracer* tracer = nullptr;
};

/// \brief Evaluates a TSL query over the sources in \p catalog and returns
/// the answer database (\S2 semantics).
///
/// For every satisfying assignment θ the head is instantiated: each head
/// object pattern `<t L V>` creates an object with oid θ(t), label θ(L) and
/// value θ(V). Assignments that produce the same oid term *fuse* their
/// values (set union of subobjects); conflicting atomic fusions fail with
/// FusionConflict. A value variable bound to a subgraph is copied into the
/// answer together with everything reachable from it — which is how a TSL
/// "answer tree" can end up with (possibly cyclic) source subgraphs hanging
/// off its branches.
///
/// The top-level head object becomes an answer root.
Result<OemDatabase> Evaluate(const TslQuery& query,
                             const SourceCatalog& catalog,
                             const EvalOptions& options = {});

/// \brief Evaluates each rule of \p rules into one shared answer database
/// (rules contributing the same oids fuse, \S4: "different rules can
/// contribute different parts of the same answer graph").
Result<OemDatabase> EvaluateRuleSet(const TslRuleSet& rules,
                                    const SourceCatalog& catalog,
                                    const EvalOptions& options = {});

/// \brief Materializes a view: evaluates it and names the result after the
/// view, so the rewritten query's `@ViewName` conditions resolve to it.
Result<OemDatabase> MaterializeView(const TslQuery& view,
                                    const SourceCatalog& catalog,
                                    const EvalOptions& options = {});

/// \brief Copies the object \p oid and everything reachable from it out of
/// \p src into \p answer (the \S2 copy semantics for subgraph bindings).
/// Conflicting atomic content fails with FusionConflict. The IR interpreter
/// builds answers through this too, so both executors copy identically.
Status CopySubgraph(const OemDatabase& src, const Oid& oid,
                    OemDatabase* answer);

}  // namespace tslrw

#endif  // TSLRW_EVAL_EVALUATOR_H_
