#ifndef TSLRW_MAINT_INVALIDATE_H_
#define TSLRW_MAINT_INVALIDATE_H_

#include <set>
#include <string>
#include <vector>

#include "catalog/diff.h"
#include "constraints/inference.h"
#include "maint/footprint.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Per-entry invalidation oracle for one catalog delta: built once
/// per mutation (it pre-chases the delta's new views), then consulted for
/// every cached plan set. The contract is one-sided exactness:
///
///   ShouldInvalidate(footprint) == false  =>  a fresh plan search against
///   the new catalog provably returns a byte-identical plan set.
///
/// The converse direction (invalidate only when the plans really change) is
/// best-effort — over-invalidation costs a recomputation, never
/// correctness — and is measured, not promised (tests/maint_property_test
/// reports the ratio).
///
/// Precondition: every footprint handed to ShouldInvalidate belongs to a
/// plan set that is exact for the delta's *old* catalog — planned against
/// it, or retained across earlier deltas by this same argument. The plan
/// cache's generation fence guarantees it: a search admitted under an older
/// catalog never inserts (service/plan_cache.h). Under that precondition a
/// consulted view whose name is not in the delta is the very view the
/// search consulted, so names suffice and no view is fingerprinted here.
///
/// The argument, case by case (docs/SERVING.md "Incremental maintenance"):
///  - constraints delta or exempt hazard: every chase in the pipeline may
///    differ => full flush.
///  - uncaptured footprint: no evidence => invalidate.
///  - a consulted view (`view_names`) that the delta names as removed or
///    changed: its candidate atoms may differ => invalidate.
///  - an added/removed view name the *query body* references: the query is
///    chased under a different constraint-exempt set => invalidate.
///  - unsatisfiable query: the empty plan set survives any view delta.
///  - otherwise only added/changed views the search did NOT consult remain;
///    the entry changes only if such a view's new chased body admits a
///    containment mapping into the stored chased query — probed directly
///    with the rewriter's own BuildCandidateAtoms. No mapping, no new
///    candidate atom, byte-identical search => retain.
class InvalidationDecider {
 public:
  /// \param delta old-vs-new diff (catalog/diff.h) computed against
  ///        \p new_sources; its view names are copied.
  /// \param new_sources / \param new_constraints the catalog being swapped
  ///        in; both must outlive this call only (views are copied).
  InvalidationDecider(const CatalogDelta& delta,
                      const std::vector<SourceDescription>& new_sources,
                      const StructuralConstraints* new_constraints);

  /// Every entry must go (constraints delta, exempt hazard, or a probe
  /// chase failed hard). When set, skip per-entry checks and flush.
  bool full_flush() const { return full_flush_; }
  /// Human-readable cause when `full_flush()`.
  const std::string& flush_reason() const { return flush_reason_; }
  /// The delta is empty: nothing to do, every entry is exact as-is.
  bool no_op() const { return no_op_; }

  /// Whether the cached plan set behind \p footprint may differ under the
  /// new catalog. False is a proof of byte-identity (see above).
  bool ShouldInvalidate(const PlanFootprint& footprint) const;

 private:
  bool no_op_ = false;
  bool full_flush_ = false;
  std::string flush_reason_;
  /// Added + removed + changed names: a consulted view among them
  /// invalidates the entry.
  std::set<std::string> delta_names_;
  /// Added + removed names: one of these in a query body means the query's
  /// constraint-exempt set changed.
  std::set<std::string> exempt_delta_names_;
  /// Chased new bodies of added/changed views (unsatisfiable ones dropped:
  /// an always-empty view admits no mapping), probed per entry.
  std::vector<TslQuery> probe_views_;
};

}  // namespace tslrw

#endif  // TSLRW_MAINT_INVALIDATE_H_
