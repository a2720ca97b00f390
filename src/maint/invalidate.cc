#include "maint/invalidate.h"

#include "common/string_util.h"
#include "rewrite/candidate.h"
#include "rewrite/chase.h"
#include "tsl/validate.h"

namespace tslrw {

InvalidationDecider::InvalidationDecider(
    const CatalogDelta& delta,
    const std::vector<SourceDescription>& new_sources,
    const StructuralConstraints* new_constraints) {
  if (delta.empty()) {
    no_op_ = true;
    return;
  }
  if (delta.constraints_changed) {
    full_flush_ = true;
    flush_reason_ = "constraints changed";
    return;
  }
  if (delta.exempt_hazard) {
    full_flush_ = true;
    flush_reason_ =
        "a delta view name doubles as a source referenced by a view body";
    return;
  }

  std::set<std::string> probe_names(delta.added.begin(), delta.added.end());
  probe_names.insert(delta.changed.begin(), delta.changed.end());
  exempt_delta_names_.insert(delta.added.begin(), delta.added.end());
  exempt_delta_names_.insert(delta.removed.begin(), delta.removed.end());
  delta_names_ = exempt_delta_names_;
  delta_names_.insert(delta.changed.begin(), delta.changed.end());

  ChaseOptions chase_options;
  chase_options.constraints = new_constraints;
  for (const SourceDescription& source : new_sources) {
    for (const Capability& cap : source.capabilities) {
      chase_options.constraint_exempt_sources.insert(cap.view.name);
    }
  }
  for (const SourceDescription& source : new_sources) {
    for (const Capability& cap : source.capabilities) {
      if (probe_names.count(cap.view.name) == 0) continue;
      if (UsesRegexSteps(cap.view)) {
        // A regex view makes every fresh plan search fail (\S7 future
        // work); retained entries would diverge from that failure.
        full_flush_ = true;
        flush_reason_ =
            StrCat("view ", cap.view.name, " uses regular path expressions");
        return;
      }
      Result<TslQuery> chased = ChaseQuery(cap.view, chase_options);
      if (!chased.ok()) {
        if (chased.status().IsUnsatisfiable()) continue;  // always empty
        full_flush_ = true;
        flush_reason_ = StrCat("chasing view ", cap.view.name,
                               " failed: ", chased.status().ToString());
        return;
      }
      probe_views_.push_back(std::move(chased).value());
    }
  }
}

bool InvalidationDecider::ShouldInvalidate(
    const PlanFootprint& footprint) const {
  if (no_op_) return false;
  if (full_flush_) return true;
  if (!footprint.captured) return true;
  for (const std::string& name : footprint.view_names) {
    if (delta_names_.count(name) > 0) return true;
  }
  for (const std::string& source : footprint.query_sources) {
    if (exempt_delta_names_.count(source) > 0) return true;
  }
  // From here on every view the search consulted is identical in the new
  // catalog and the query's chase environment is unchanged; only views the
  // search did not consult were added or changed.
  if (footprint.query_unsatisfiable) return false;
  for (const TslQuery& view : probe_views_) {
    size_t mappings = 0;
    Result<std::vector<CandidateAtom>> atoms =
        BuildCandidateAtoms(footprint.chased_query, {view}, &mappings);
    if (!atoms.ok()) return true;  // conservative: cannot prove retention
    for (const CandidateAtom& atom : *atoms) {
      if (atom.is_view) return true;  // the new body maps into this query
    }
  }
  return false;
}

}  // namespace tslrw
