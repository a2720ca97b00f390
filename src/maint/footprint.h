#ifndef TSLRW_MAINT_FOOTPRINT_H_
#define TSLRW_MAINT_FOOTPRINT_H_

#include <set>
#include <string>

#include "tsl/ast.h"

namespace tslrw {

/// \brief The dependency footprint of one cached plan set: everything the
/// rewriting search consulted that a catalog mutation could change. Captured
/// by Mediator::Plan from RewriteResult and carried on MediatorPlanSet, so
/// the maintenance layer (src/maint/invalidate.h) can decide, per cache
/// entry, whether a catalog delta can possibly affect it.
///
/// Header-only on purpose: mediator code fills it and service code reads
/// it, and this file sitting below both keeps the library graph acyclic
/// (maint's decider links mediator+catalog; service links maint).
struct PlanFootprint {
  /// False for plan sets produced before footprint capture existed (or by
  /// paths that skip it). The decider treats uncaptured entries as
  /// depending on everything — they are invalidated by any delta.
  bool captured = false;

  /// Views whose chased bodies admitted at least one containment mapping
  /// into the chased query (RewriteResult::views_touched) — a superset of
  /// the views the winning plans use. Removing or editing a view outside
  /// this set cannot change the candidate-atom list, hence not the plans.
  /// Names only: the plan cache's generation fence guarantees the entry was
  /// planned against the catalog a delta starts from, so "none of these
  /// names is in the delta" proves every consulted view is unchanged.
  std::set<std::string> view_names;

  /// Source names referenced by the *input* query's body conditions. A
  /// delta that adds or removes a view with one of these names changes the
  /// constraint-exempt set the query is chased under, so the entry must go.
  std::set<std::string> query_sources;

  /// Stable keys of constraint rules that fired while chasing the inputs
  /// (RewriteResult::fired_constraints). Observability only: any
  /// constraints delta flushes the whole cache (see invalidate.h).
  std::set<std::string> fired_constraints;

  /// The chased input query; target of the add-side probe (can the new
  /// view's chased body map into it?). Meaningless when
  /// `query_unsatisfiable` is set.
  TslQuery chased_query;

  /// The chase proved the query empty under the constraints; view deltas
  /// cannot resurrect it, so the entry survives any non-constraint delta.
  bool query_unsatisfiable = false;
};

}  // namespace tslrw

#endif  // TSLRW_MAINT_FOOTPRINT_H_
