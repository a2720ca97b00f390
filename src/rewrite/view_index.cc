#include "rewrite/view_index.h"

#include <map>
#include <utility>

#include "rewrite/signature.h"
#include "tsl/normal_form.h"
#include "tsl/validate.h"

namespace tslrw {

ViewIndex ViewIndex::Build(const std::vector<TslQuery>& views,
                           const StructuralConstraints* constraints,
                           size_t max_chase_conditions) {
  // Mirror RewriteQuery's view chase exactly: the constraints describe
  // source data, never view answer objects, so every view name is exempt.
  ViewIndex index;
  ChaseOptions chase_options;
  chase_options.constraints = constraints;
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }
  chase_options.fired_constraints = &index.fired_constraints_;

  index.views_.resize(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    const TslQuery& view = views[i];
    IndexedView& e = index.views_[i];
    e.name = view.name;
    if (!ValidateQuery(view).ok() || view.name.empty() ||
        UsesRegexSteps(view)) {
      e.state = IndexedViewState::kInvalid;
      continue;
    }
    if (ToNormalForm(view).body.size() > max_chase_conditions) {
      e.state = IndexedViewState::kAlwaysScan;
      continue;
    }
    Result<TslQuery> cv = ChaseQuery(view, chase_options);
    if (!cv.ok()) {
      e.state = cv.status().IsUnsatisfiable() ? IndexedViewState::kUnsatisfiable
                                              : IndexedViewState::kAlwaysScan;
      e.chase_status = cv.status();
      continue;
    }
    Result<std::vector<std::string>> required = RequiredFeatures(*cv);
    if (!required.ok()) {
      e.state = IndexedViewState::kAlwaysScan;
      e.chase_status = required.status();
      continue;
    }
    e.chased = std::move(cv).value();
    e.required = std::move(required).value();
  }

  // Anchor choice: file each indexed view under its index-wide rarest
  // required feature, so bucket sizes — and therefore probe cost — track
  // how discriminating the view set's structure actually is.
  std::map<std::string, size_t> frequency;
  for (const IndexedView& e : index.views_) {
    if (e.state != IndexedViewState::kIndexed) continue;
    for (const std::string& f : e.required) ++frequency[f];
  }
  for (IndexedView& e : index.views_) {
    if (e.state != IndexedViewState::kIndexed || e.required.empty()) continue;
    e.anchor = e.required.front();
    for (const std::string& f : e.required) {
      if (frequency[f] < frequency[e.anchor]) e.anchor = f;
    }
  }
  index.FileViews();
  return index;
}

void ViewIndex::FileViews() {
  for (size_t i = 0; i < views_.size(); ++i) {
    const IndexedView& e = views_[i];
    const uint32_t ordinal = static_cast<uint32_t>(i);
    if (e.state == IndexedViewState::kInvalid) servable_ = false;
    // Composition resolves view names through one name map; a view set
    // that spells a name twice is served by the full scan.
    if (!by_name_.emplace(e.name, ordinal).second) servable_ = false;
    switch (e.state) {
      case IndexedViewState::kIndexed:
        if (e.anchor.empty()) {
          // No required features: the view maps into anything (e.g. an
          // empty body), so every probe must admit it.
          always_admit_.push_back(ordinal);
        } else {
          anchor_buckets_[e.anchor].push_back(ordinal);
        }
        break;
      case IndexedViewState::kAlwaysScan:
        always_admit_.push_back(ordinal);
        break;
      case IndexedViewState::kUnsatisfiable:
      case IndexedViewState::kInvalid:
        break;
    }
  }
}

bool ViewIndex::CoversViews(const std::vector<TslQuery>& views) const {
  if (!servable_ || views.size() != views_.size()) return false;
  for (size_t i = 0; i < views.size(); ++i) {
    if (views[i].name != views_[i].name) return false;
  }
  return true;
}

Result<std::optional<std::vector<TslQuery>>> ViewIndex::ChasedViewsFor(
    const TslQuery& chased_query, const std::vector<TslQuery>& views,
    const ChaseOptions& chase_options, ViewProbeOutcome* outcome) const {
  if (!CoversViews(views)) return std::optional<std::vector<TslQuery>>();
  TSLRW_ASSIGN_OR_RETURN(QueryFeatureSet features,
                         ProvidedFeatures(chased_query));

  std::vector<char> admit(views_.size(), 0);
  for (uint32_t o : always_admit_) admit[o] = 1;
  // Bucket probe: a view can have a mapping into the query only if all of
  // its required features are provided, so checking the buckets of the
  // provided features alone loses nothing — a view in an unprobed bucket is
  // missing its anchor feature.
  for (const std::string& f : features.provided) {
    auto it = anchor_buckets_.find(f);
    if (it == anchor_buckets_.end()) continue;
    for (uint32_t o : it->second) {
      if (!admit[o] && FeaturesSubset(views_[o].required, features.provided)) {
        admit[o] = 1;
      }
    }
  }
  // Force-include pass: composition resolves view names appearing as body
  // sources from the view list we return, so any view the query names — or
  // that an admitted view's body names, transitively — must stay in the
  // list even with no mapping (it contributes no candidate atoms either
  // way, so admitting it is byte-neutral; dropping it would change what
  // composition unfolds). Unsatisfiable views stay out: the full scan
  // drops them before composition too.
  std::vector<uint32_t> work;
  std::vector<char> visited(views_.size(), 0);
  auto push_named = [&](const std::string& name) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) work.push_back(it->second);
  };
  for (const std::string& s : features.sources) push_named(s);
  for (uint32_t o = 0; o < views_.size(); ++o) {
    if (admit[o]) work.push_back(o);
  }
  while (!work.empty()) {
    const uint32_t o = work.back();
    work.pop_back();
    if (visited[o]) continue;
    visited[o] = 1;
    if (views_[o].state == IndexedViewState::kIndexed) admit[o] = 1;
    for (const Condition& c : views[o].body) push_named(c.source);
  }

  std::vector<TslQuery> result;
  size_t skipped = 0;
  for (uint32_t o = 0; o < views_.size(); ++o) {
    if (admit[o] == 0) {
      // Signature-pruned (kIndexed) or proven empty (kUnsatisfiable): the
      // full scan would have found no mapping / dropped the view, so
      // skipping is exact.
      ++skipped;
      continue;
    }
    if (views_[o].state == IndexedViewState::kIndexed) {
      result.push_back(views_[o].chased);
    } else {
      // kAlwaysScan: chase per query, exactly as the full scan does.
      Result<TslQuery> cv = ChaseQuery(views[o], chase_options);
      if (!cv.ok()) {
        if (cv.status().IsUnsatisfiable()) {
          ++skipped;
          continue;
        }
        return cv.status();
      }
      result.push_back(std::move(cv).value());
    }
  }
  if (chase_options.fired_constraints != nullptr) {
    chase_options.fired_constraints->insert(fired_constraints_.begin(),
                                            fired_constraints_.end());
  }
  if (outcome != nullptr) {
    outcome->admitted = result.size();
    outcome->skipped = skipped;
  }
  return std::optional<std::vector<TslQuery>>(std::move(result));
}

}  // namespace tslrw
