#include "catalog/diff.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "catalog/compiler.h"
#include "common/string_util.h"
#include "tsl/canonical.h"

namespace tslrw {

namespace {

/// An α-invariant identity fingerprint for one capability: covers the
/// view's name, its canonical body/head rendering (tsl/canonical), and the
/// bound-variable set translated into the canonical variable alphabet.
/// Renaming the view's variables consistently leaves the fingerprint
/// unchanged; editing its name, its rule (beyond α), or which variables the
/// client must bind changes it.
uint64_t ViewIdentityFingerprint(const Capability& capability) {
  std::map<Term, Term> renaming;
  const CanonicalForm canon = CanonicalizeQuery(capability.view, &renaming);
  // Translate each bound-variable name into the canonical alphabet so the
  // fingerprint stays stable under α-renaming. A bound name that does not
  // occur in the view makes every plan using the capability inadmissible
  // regardless of which name it is, so it contributes a fixed marker.
  std::set<std::string> bound_canonical;
  bool bound_missing = false;
  for (const std::string& name : capability.bound_variables) {
    bool found = false;
    for (const auto& [orig, canonical] : renaming) {
      if (orig.var_name() == name) {
        bound_canonical.insert(canonical.var_name());
        found = true;
      }
    }
    if (!found) bound_missing = true;
  }
  std::string identity =
      "view:" + capability.view.name + "\n" + canon.key + "\n";
  for (const std::string& name : bound_canonical) {
    identity += "bound:" + name + "\n";
  }
  if (bound_missing) identity += "bound-missing\n";
  return StableFingerprint(identity);
}

/// Every capability in \p sources grouped by view name, in catalog order.
using CapabilitiesByName =
    std::map<std::string_view, std::vector<const Capability*>>;

CapabilitiesByName GroupByName(const std::vector<SourceDescription>& sources) {
  CapabilitiesByName out;
  for (const SourceDescription& source : sources) {
    for (const Capability& cap : source.capabilities) {
      out[cap.view.name].push_back(&cap);
    }
  }
  return out;
}

uint64_t FoldedFingerprint(const std::vector<const Capability*>& caps) {
  uint64_t folded = 0;
  for (const Capability* cap : caps) folded ^= ViewIdentityFingerprint(*cap);
  return folded;
}

/// Whether one name's capabilities are the same on both sides. Pairwise
/// equal rules and bound sets settle most names without canonicalizing;
/// the rest compare by their XOR-folded identity fingerprints.
bool SameCapabilities(const std::vector<const Capability*>& a,
                      const std::vector<const Capability*>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Capability* x, const Capability* y) {
                      return x->view == y->view &&
                             x->bound_variables == y->bound_variables;
                    }) ||
         FoldedFingerprint(a) == FoldedFingerprint(b);
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
  const CapabilitiesByName old_caps = GroupByName(old_sources);
  const CapabilitiesByName new_caps = GroupByName(new_sources);
  for (const auto& [name, caps] : old_caps) {
    auto it = new_caps.find(name);
    if (it == new_caps.end()) {
      delta.removed.emplace_back(name);
    } else if (!SameCapabilities(caps, it->second)) {
      delta.changed.emplace_back(name);
    }
  }
  for (const auto& [name, caps] : new_caps) {
    if (old_caps.count(name) == 0) delta.added.emplace_back(name);
  }
  delta.constraints_changed = ConstraintsFingerprint(old_constraints) !=
                              ConstraintsFingerprint(new_constraints);
  // A changed view keeps its name, so it cannot alter which names are
  // exempt — only additions and removals can.
  std::set<std::string> body_sources;
  CollectBodySources(old_sources, &body_sources);
  CollectBodySources(new_sources, &body_sources);
  for (const std::string& name : delta.added) {
    if (body_sources.count(name) > 0) delta.exempt_hazard = true;
  }
  for (const std::string& name : delta.removed) {
    if (body_sources.count(name) > 0) delta.exempt_hazard = true;
  }
  return delta;
}

}  // namespace tslrw
