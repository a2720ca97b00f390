#ifndef TSLRW_CATALOG_DIFF_H_
#define TSLRW_CATALOG_DIFF_H_

#include <string>
#include <vector>

#include "constraints/inference.h"
#include "mediator/capability.h"

namespace tslrw {

/// \brief The semantic difference between two catalog snapshots, computed
/// by ComputeCatalogDelta. Drives selective plan-cache invalidation
/// (src/maint/invalidate.h): an empty delta proves every cached plan set is
/// still exact; a non-empty one names precisely which views changed.
struct CatalogDelta {
  /// Names of views present only in the new catalog, sorted.
  std::vector<std::string> added;
  /// Names of views present only in the old catalog, sorted.
  std::vector<std::string> removed;
  /// Names present in both whose views differ beyond α-renaming — the rule
  /// changed, or the bound-variable set changed — sorted.
  std::vector<std::string> changed;
  /// The structural constraints differ (by catalog ConstraintsFingerprint).
  /// Constraints shape every chase — query, views, candidates — so any
  /// constraint change invalidates the whole cache.
  bool constraints_changed = false;
  /// A delta view's *name* collides with a source name referenced by some
  /// view body in either catalog. View names form the constraint-exempt set
  /// other views are chased under, so such a delta can change the stored
  /// chase of an untouched view; the decider falls back to a full flush.
  bool exempt_hazard = false;

  /// True when the two catalogs are plan-equivalent: same views (up to α
  /// and source placement) and same constraints.
  bool empty() const {
    return added.empty() && removed.empty() && changed.empty() &&
           !constraints_changed && !exempt_hazard;
  }

  /// One-line human summary, e.g. `+1 -0 ~2 views, constraints unchanged`.
  std::string ToString() const;
};

/// \brief Diffs two catalogs view by view, pairing capabilities by view
/// name, and compares their constraints fingerprints (catalog/compiler.h).
/// This is the one place that decides whether a view kept its identity:
/// - a name whose capabilities are equal on both sides (same rule, same
///   bound-variable set) is unchanged, at the cost of one comparison;
/// - any other shared name is compared by an α-invariant identity
///   fingerprint, so a view renamed α-equivalently — same name,
///   consistently renamed variables — diffs as unchanged, and a view whose
///   body or bound-variable set changed diffs as changed.
/// The owning source description is ignored: a view that merely moves
/// between descriptions is unchanged. Duplicate view names inside one
/// catalog (rejected by ValidateDescriptions anyway) are folded by
/// fingerprint-XOR, so a duplicate still shows up as a change.
CatalogDelta ComputeCatalogDelta(
    const std::vector<SourceDescription>& old_sources,
    const StructuralConstraints* old_constraints,
    const std::vector<SourceDescription>& new_sources,
    const StructuralConstraints* new_constraints);

}  // namespace tslrw

#endif  // TSLRW_CATALOG_DIFF_H_
