#ifndef TSLRW_CATALOG_DIFF_H_
#define TSLRW_CATALOG_DIFF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "constraints/inference.h"
#include "mediator/capability.h"

namespace tslrw {

/// \brief One view-level difference between two catalogs, keyed by view
/// name with the α-invariant identity fingerprints on both sides (0 when
/// the view is absent on that side).
struct CatalogDeltaEntry {
  std::string name;
  uint64_t old_fingerprint = 0;
  uint64_t new_fingerprint = 0;
};

/// \brief The semantic difference between two catalog snapshots, computed
/// by ComputeCatalogDelta. Drives selective plan-cache invalidation
/// (src/maint/invalidate.h): an empty delta proves every cached plan set is
/// still exact; a non-empty one names precisely which views changed.
struct CatalogDelta {
  /// Views present only in the new catalog.
  std::vector<CatalogDeltaEntry> added;
  /// Views present only in the old catalog.
  std::vector<CatalogDeltaEntry> removed;
  /// Views present in both whose identity fingerprints differ — the rule
  /// changed beyond α-renaming, or the bound-variable set changed.
  std::vector<CatalogDeltaEntry> changed;
  /// The structural constraints differ (by catalog ConstraintsFingerprint).
  /// Constraints shape every chase — query, views, candidates — so any
  /// constraint change invalidates the whole cache.
  bool constraints_changed = false;
  /// A delta view's *name* collides with a source name referenced by some
  /// view body in either catalog. View names form the constraint-exempt set
  /// other views are chased under, so such a delta can change the stored
  /// chase of an untouched view; the decider falls back to a full flush.
  bool exempt_hazard = false;
  /// The new catalog's identity fingerprint for every view name (folded
  /// like duplicates are, by XOR). The invalidation decider reads it
  /// instead of fingerprinting every new view again.
  std::map<std::string, uint64_t> new_fingerprints;

  /// True when the two catalogs are plan-equivalent: same view identities
  /// (up to α and source placement) and same constraints.
  bool empty() const {
    return added.empty() && removed.empty() && changed.empty() &&
           !constraints_changed && !exempt_hazard;
  }

  /// Names of every added/removed/changed view, sorted and unique.
  std::vector<std::string> TouchedNames() const;

  /// One-line human summary, e.g. `+1 -0 ~2 views, constraints unchanged`.
  std::string ToString() const;
};

/// \brief Diffs two catalogs by α-invariant view identity
/// (mediator/capability.h ViewIdentityFingerprint) and constraints
/// fingerprint (catalog/compiler.h). A view renamed α-equivalently — same
/// name, consistently renamed variables — diffs as unchanged; a view whose
/// body or bound-variable set changed diffs as changed. Duplicate view
/// names inside one catalog (rejected by ValidateDescriptions anyway) are
/// folded by fingerprint-XOR so a duplicate still shows up as a change.
CatalogDelta ComputeCatalogDelta(
    const std::vector<SourceDescription>& old_sources,
    const StructuralConstraints* old_constraints,
    const std::vector<SourceDescription>& new_sources,
    const StructuralConstraints* new_constraints);

}  // namespace tslrw

#endif  // TSLRW_CATALOG_DIFF_H_
