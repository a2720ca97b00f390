#ifndef TSLRW_REWRITE_PARALLEL_H_
#define TSLRW_REWRITE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/chase.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw {

class ViewIndex;
struct ViewProbeOutcome;

// The search pipeline RewriteQuery and FindMaximallyContainedRewriting
// share: one input stage (ChaseInputs) and one candidate-verification loop
// (VerifyCandidates).

/// Resolves RewriteOptions::parallelism: 0 means hardware concurrency.
size_t ResolveParallelism(size_t requested);

/// The chased inputs of one search. Unsatisfiable views (always empty) are
/// dropped; an unsatisfiable query is flagged and leaves the rest empty.
struct ChasedInputs {
  TslQuery query;
  std::vector<TslQuery> views;
  bool query_unsatisfiable = false;
};

/// \brief The input stage: rejects regex steps (IllFormedQuery), chases
/// the query once, then answers the views. With \p index (which must
/// cover \p views, ViewIndex::CoversViews) they come from its stored
/// chase outcomes, restricted to the views whose structural signature
/// admits a containment mapping into the chased query, and \p outcome
/// receives the probe's counts. A covered view set has no regex, unnamed,
/// or invalid views (the index declines one), so the full scan's per-view
/// checks cannot fire and skipping them is unobservable; the result is
/// byte-identical by the signature soundness argument in docs/CATALOG.md.
/// Without an index every view is validated and chased (a full scan).
Result<ChasedInputs> ChaseInputs(const TslQuery& query,
                                 const std::vector<TslQuery>& views,
                                 const ChaseOptions& chase_options,
                                 const ViewIndex* index,
                                 ViewProbeOutcome* outcome);

/// \brief The \S4 test a candidate's expansion (its composition with the
/// views) must pass to be accepted, which also names the candidates.
enum class CandidateTest {
  /// RewriteQuery: equivalent to the query. Names `<query>_rw<n>`, or
  /// `rewriting_rw<n>` for an unnamed query.
  kEquivalent,
  /// FindMaximallyContainedRewriting: contained in the query and not
  /// empty. Names `<query>_mc<n>`, or `contained_mc<n>`.
  kContained,
};

/// Runs \p test on \p expansion against the query \p tester was made
/// for. An empty expansion is vacuously contained but answers nothing, so
/// kContained rejects it.
Result<bool> RunCandidateTest(CandidateTest test,
                              const EquivalenceTester& tester,
                              const TslRuleSet& expansion);

/// \brief Steps 1B–2 of both searches: the one candidate-verification
/// path (docs/PARALLELISM.md). \p test picks the \S4 test and the names.
///
/// The enumeration stays on the calling thread and is a cheap producer:
/// each emitted atom subset becomes a named candidate. Verification — chase
/// (Step 1C), composition (Step 2A), and the \S4 test — runs
/// through α-invariant memos (the whole verification outcome by a cheap
/// α-sound fingerprint of the candidate body, the chase by canonical
/// candidate body under constraints, and the verdict by a fingerprint of
/// the composed rule set) plus a dedupe of byte-identical candidate bodies.
/// With `workers == 1` each candidate is verified inline and committed
/// before the next is emitted; no thread pool is built. With more, batches
/// go to a worker pool, each worker with its own ComposeCache; all share
/// \p tester (its tests are const). Outcomes are committed strictly in
/// enumeration order, so `result` (rewritings, candidates_generated/tested,
/// truncation) and any returned hard-error Status are byte-identical at
/// every worker count — and to the plain unmemoized reference in
/// src/testing.
///
/// When `options.metrics` is set, every chase, composition, and \S4 test
/// that actually runs (not a memo hit) is timed into the
/// `rewrite.phase.{chase,compose,equiv}_us` histograms, and \p step_us
/// receives the sum of those samples (0 without a registry).
///
/// \param enumerator the Step 1B enumerator (already holding the atoms).
/// \param workers resolved worker count, >= 1; 1 verifies inline.
/// \param result receives counters and rewritings; `batches_dispatched`
///        counts pool submissions, so it stays 0 inline.
/// \param complete receives CandidateEnumerator::Enumerate's completion
///        flag (false when max_candidates/should_stop cut the search or a
///        hard error stopped it), for the caller's `truncated` computation.
/// \return the first hard error in enumeration order, or OK.
Status VerifyCandidates(const TslQuery& chased_query,
                        const std::vector<TslQuery>& chased_views,
                        const ChaseOptions& chase_options,
                        const EquivalenceTester& tester,
                        CandidateTest test,
                        const CandidateEnumerator& enumerator,
                        const RewriteOptions& options, size_t workers,
                        RewriteResult* result, bool* complete,
                        uint64_t* step_us);

}  // namespace tslrw

#endif  // TSLRW_REWRITE_PARALLEL_H_
