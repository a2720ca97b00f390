#include "catalog/diff.h"

#include <map>
#include <set>

#include "catalog/compiler.h"
#include "common/string_util.h"

namespace tslrw {

namespace {

/// name -> folded identity fingerprint over every capability in \p sources.
std::map<std::string, uint64_t> FingerprintByName(
    const std::vector<SourceDescription>& sources) {
  std::map<std::string, uint64_t> out;
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      out[cap.view.name] ^= ViewIdentityFingerprint(cap);
    }
  }
  return out;
}

/// Every source name some view body ranges over, across \p sources.
void CollectBodySources(const std::vector<SourceDescription>& sources,
                        std::set<std::string>* out) {
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      for (const Condition& c : cap.view.body) out->insert(c.source);
    }
  }
}

}  // namespace

std::vector<std::string> CatalogDelta::TouchedNames() const {
  std::set<std::string> names;
  for (const CatalogDeltaEntry& e : added) names.insert(e.name);
  for (const CatalogDeltaEntry& e : removed) names.insert(e.name);
  for (const CatalogDeltaEntry& e : changed) names.insert(e.name);
  return std::vector<std::string>(names.begin(), names.end());
}

std::string CatalogDelta::ToString() const {
  return StrCat("+", added.size(), " -", removed.size(), " ~", changed.size(),
                " views, constraints ",
                constraints_changed ? "changed" : "unchanged",
                exempt_hazard ? ", exempt hazard" : "");
}

CatalogDelta ComputeCatalogDelta(
    const std::vector<SourceDescription>& old_sources,
    const StructuralConstraints* old_constraints,
    const std::vector<SourceDescription>& new_sources,
    const StructuralConstraints* new_constraints) {
  CatalogDelta delta;
  const std::map<std::string, uint64_t> old_fps =
      FingerprintByName(old_sources);
  delta.new_fingerprints = FingerprintByName(new_sources);
  const std::map<std::string, uint64_t>& new_fps = delta.new_fingerprints;
  for (const auto& [name, fp] : old_fps) {
    auto it = new_fps.find(name);
    if (it == new_fps.end()) {
      delta.removed.push_back({name, fp, 0});
    } else if (it->second != fp) {
      delta.changed.push_back({name, fp, it->second});
    }
  }
  for (const auto& [name, fp] : new_fps) {
    if (old_fps.count(name) == 0) delta.added.push_back({name, 0, fp});
  }
  delta.constraints_changed = ConstraintsFingerprint(old_constraints) !=
                              ConstraintsFingerprint(new_constraints);
  // A changed view keeps its name, so it cannot alter which names are
  // exempt — only additions and removals can.
  std::set<std::string> body_sources;
  CollectBodySources(old_sources, &body_sources);
  CollectBodySources(new_sources, &body_sources);
  for (const CatalogDeltaEntry& e : delta.added) {
    if (body_sources.count(e.name) > 0) delta.exempt_hazard = true;
  }
  for (const CatalogDeltaEntry& e : delta.removed) {
    if (body_sources.count(e.name) > 0) delta.exempt_hazard = true;
  }
  return delta;
}

}  // namespace tslrw
