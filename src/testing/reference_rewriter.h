#ifndef TSLRW_TESTING_REFERENCE_REWRITER_H_
#define TSLRW_TESTING_REFERENCE_REWRITER_H_

#include <vector>

#include "common/result.h"
#include "rewrite/contained.h"
#include "rewrite/parallel.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw {
namespace testing {

/// \brief The plain reference for the verification pipeline: the \S3.4
/// algorithm as one loop with no memos, no view index, and no tracing —
/// the oracle RewriteQuery is checked against
/// (tests/parallel_rewrite_test.cc), and, with \p test kContained, the
/// loop ReferenceContainedRewrite builds on.
///
/// For each candidate the Step 1B enumerator emits, in order: skip it if an
/// accepted rewriting's atom set is a subset of its own (`prune_dominated`),
/// skip it if unsafe, chase it (skip if unsatisfiable), count it tested,
/// compose it with the views, and run the \S4 test \p test from scratch.
/// kContained also lets view bodies map partially
/// (BuildCandidateAtoms' `allow_partial_mappings`) and names candidates
/// `_mc<n>`.
///
/// Honors `constraints`, `use_cover_heuristic`, `require_total`,
/// `prune_dominated`, `max_candidates`, `should_stop`, and `strict_limits`;
/// ignores `view_index`, `tracer`, and `metrics`. Fills
/// `rewritings`, `mappings_found`, `candidates_generated`,
/// `candidates_tested`, `truncated`, `views_touched`, `chased_query`, and
/// `query_unsatisfiable`, and fails with the same Status bytes RewriteQuery
/// does. The memo counters stay zero.
Result<RewriteResult> ReferenceRewrite(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options = {},
    CandidateTest test = CandidateTest::kEquivalent);

/// \brief The plain reference for FindMaximallyContainedRewriting:
/// ReferenceRewrite with the containment test, no cover heuristic and no
/// dominance pruning, then each accepted rule composed again from scratch
/// and the same subsumption post-pass and union-equivalence test.
Result<ContainedRewritingResult> ReferenceContainedRewrite(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options = {});

}  // namespace testing
}  // namespace tslrw

#endif  // TSLRW_TESTING_REFERENCE_REWRITER_H_
