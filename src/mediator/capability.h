#ifndef TSLRW_MEDIATOR_CAPABILITY_H_
#define TSLRW_MEDIATOR_CAPABILITY_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief One query template a source can answer, described as a view over
/// its data (\S1: "the different and limited query capabilities of the
/// sources are often described by 'views'").
///
/// Plain capabilities are just named TSL views. The TSIMMIS twist —
/// parameterized views whose constants are placeholders (`R.A = $X`) — is
/// modeled minimally by `bound_variables`: value variables the client must
/// instantiate with constants before the query is sent. \S1 notes that
/// parameters "do not seriously affect the complexity"; we support them by
/// instantiating the parameter from the mapping the rewriter found.
struct Capability {
  /// The view definition; its name doubles as the plan's source name.
  TslQuery view;
  /// Names of view variables that must be bound to constants by the
  /// mediator before the source will accept the query (binding-pattern
  /// adornment). Empty for plain views.
  std::set<std::string> bound_variables;
};

/// \brief The description of a wrapped source: where its data lives and the
/// query templates its interface supports (Fig. 2's "capabilities" input).
struct SourceDescription {
  /// Name of the source's OEM database in the catalog.
  std::string source;
  std::vector<Capability> capabilities;
};

/// \brief Validates a set of source descriptions: views must be named,
/// unique, and range over their own source only.
Status ValidateDescriptions(const std::vector<SourceDescription>& sources);

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_CAPABILITY_H_
