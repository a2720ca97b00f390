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

/// \brief Steps 1B–2 of RewriteQuery: the one candidate-verification path
/// (docs/PARALLELISM.md).
///
/// The enumeration stays on the calling thread and is a cheap producer:
/// each emitted atom subset becomes a named candidate. Verification — chase
/// (Step 1C), composition (Step 2A), and the \S4 equivalence test — runs
/// through α-invariant memos (the whole verification outcome by a cheap
/// α-sound fingerprint of the candidate body, the chase by canonical
/// candidate body under constraints, and the verdict by a fingerprint of
/// the composed rule set) plus a dedupe of byte-identical candidate bodies.
/// With `workers == 1` each candidate is verified inline and committed
/// before the next is emitted; no thread pool is built. With more, batches
/// go to a worker pool, each worker with its own ComposeCache; all share
/// \p tester (EquivalentTo is const). Outcomes are committed strictly in
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
                        const CandidateEnumerator& enumerator,
                        const RewriteOptions& options, size_t workers,
                        RewriteResult* result, bool* complete,
                        uint64_t* step_us);

}  // namespace tslrw

#endif  // TSLRW_REWRITE_PARALLEL_H_
