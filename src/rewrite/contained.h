#ifndef TSLRW_REWRITE_CONTAINED_H_
#define TSLRW_REWRITE_CONTAINED_H_

#include <vector>

#include "common/result.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Output of the maximally-contained rewriting search.
struct ContainedRewritingResult {
  /// Contained rewritings over the views: each rule's composition with the
  /// views is contained in the query. Their union is the best
  /// view-only answer obtainable from candidate bodies of at most k
  /// conditions; rules subsumed by other rules have been pruned.
  TslRuleSet rewriting;
  /// True when the union is in fact *equivalent* to the query (the
  /// maximally contained rewriting is complete).
  bool equivalent = false;
  /// The candidate search was cut off (max_candidates or the budget hook);
  /// the union is still sound but may not be maximal.
  bool truncated = false;
  /// Diagnostics, as in RewriteResult.
  size_t candidates_tested = 0;
};

/// \brief The \S7 future-work extension "in the spirit of [10, 9]":
/// instead of demanding equivalence, collect every candidate whose
/// composition is *contained* in the query and union them — the answer a
/// mediator can give when sources (described by views) only partially
/// cover the data, guaranteed sound, and maximal over the same candidate
/// space the \S3.4 algorithm searches (view-head instantiations, bodies of
/// at most k conditions).
///
/// The search runs RewriteQuery's pipeline (docs/PARALLELISM.md): the same
/// input stage, and the same memoized loop, VerifyCandidates, with the
/// \S4 one-sided containment test in place of equivalence (an empty
/// composition is not accepted), rules named `<query>_mc<n>`, and the
/// cover heuristic and dominance pruning off. Accepted rules contained in
/// other accepted rules are then dropped. When `options.require_total` is
/// false, residual query conditions may appear in rules, which makes
/// equivalence achievable whenever the \S3.4 algorithm would find a
/// rewriting.
///
/// `options.view_index` is never used: partial mappings can use views
/// whose structural signature admits no full containment mapping, which
/// the index's probe would skip.
Result<ContainedRewritingResult> FindMaximallyContainedRewriting(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options = {});

}  // namespace tslrw

#endif  // TSLRW_REWRITE_CONTAINED_H_
