#ifndef TSLRW_REWRITE_SIGNATURE_H_
#define TSLRW_REWRITE_SIGNATURE_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief α-invariant structural features of chased normal-form bodies —
/// the abstraction behind the view index's signature probe (view_index.h).
///
/// Every feature is an *exact necessary condition* for a containment
/// mapping, read off MapPathInto (rewrite/mapping.cc): a view body path
/// maps into a query body path only if the sources are identical, the
/// query path is at least as deep, and every ground label (and ground term
/// tail) of the view path is matched verbatim. So if some *required*
/// feature of a chased view is not *provided* by the chased query body,
/// FindBodyMappings is guaranteed to find zero mappings from that view —
/// and a zero-mapping view contributes no candidate atoms, which is what
/// makes signature pruning byte-exact (docs/CATALOG.md gives the full
/// argument).
///
/// Feature spellings (stable — they are serialized in the index file):
///   "s:<source>"            the body touches <source>
///   "d:<source>:<k>"        a <source> path of depth >= k exists
///   "l:<source>:<i>:<lbl>"  a <source> path whose step i has ground
///                           label <lbl> exists
///   "t:<source>:<atom>"     a <source> path ends in the ground atom
///                           <atom>
///
/// Variables contribute nothing (they bind to anything sort-compatible),
/// so the features are α-invariant by construction.

/// The features a chased view body *requires* of any query it can map
/// into: sorted, deduplicated. Fails only if \p chased_view is not in
/// normal form (chase output always is).
Result<std::vector<std::string>> RequiredFeatures(const TslQuery& chased_view);

/// The features a chased query body *provides*, plus its body source
/// names (used to force-include views the query references by name).
struct QueryFeatureSet {
  std::set<std::string> provided;
  std::set<std::string> sources;
};
Result<QueryFeatureSet> ProvidedFeatures(const TslQuery& chased_query);

/// True iff every feature in \p required is in \p provided: the
/// signature test a view must pass to map into a query.
bool FeaturesSubset(const std::vector<std::string>& required,
                    const std::set<std::string>& provided);

}  // namespace tslrw

#endif  // TSLRW_REWRITE_SIGNATURE_H_
