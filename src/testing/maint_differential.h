#ifndef TSLRW_TESTING_MAINT_DIFFERENTIAL_H_
#define TSLRW_TESTING_MAINT_DIFFERENTIAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "service/server.h"

namespace tslrw {

/// \brief Knobs for one differential maintenance drill. Everything that
/// shapes outcomes is derived from these, so one options struct replays
/// byte-identically.
struct MaintDrillOptions {
  /// Drives the catalog-mutation script, the query fixtures, and every
  /// request seed.
  uint64_t seed = 0;
  /// Request parallelism per step: 1 issues synchronously, > 1 submits
  /// that many requests to the server pool concurrently (worker threads
  /// are sized to match). Either way observations are recorded in
  /// submission order, so parallelism cannot reorder the comparison.
  size_t parallelism = 1;
  /// Catalog mutations replayed (each followed by a request burst).
  size_t steps = 10;
  size_t requests_per_step = 6;
  /// Views in the starting catalog and distinct client queries.
  size_t base_views = 6;
  size_t num_queries = 5;
  /// Base server configuration; the harness overrides threads (from
  /// `parallelism`) and the maintenance mode (one arm each).
  ServerOptions server;
};

/// \brief The outcome of one drill: whether the selective arm was
/// byte-identical to the full-flush arm, plus the selective arm's
/// retention accounting (what incremental maintenance actually saved).
struct MaintDrillResult {
  /// Every observation — answer bytes, completeness, execution report,
  /// the served plan list, and the normalized request trace — matched
  /// between the two arms, for every request of every step.
  bool identical = true;
  /// Evidence for each mismatch (empty iff identical).
  std::vector<std::string> divergences;
  /// Deterministic per-step log from the selective arm: the mutation
  /// applied and the MaintenanceReport it produced.
  std::string report;
  /// Selective-arm totals across all ReplaceMediator calls.
  size_t entries_examined = 0;
  size_t entries_invalidated = 0;
  size_t entries_retained = 0;
  /// Requests served by a plan the arm's cache already held or was
  /// computing (hits + coalesced waits), per arm: retention converts the
  /// flush arm's cold misses into warm reuse. Unlike either term alone the
  /// sum is deterministic under parallelism — it is the requests minus the
  /// plan searches, and a concurrent burst may only race a hit against a
  /// coalesced wait.
  uint64_t selective_reused = 0;
  uint64_t flush_reused = 0;
};

/// \brief Normalizes a per-request Tracer::ToText dump so the selective
/// and full-flush arms compare byte-identically: drops the span subtree
/// rooted at any `mediator.plan_search` span (present only on cold
/// misses), strips the `plan_cache=hit|miss` annotation, and erases the
/// span count from the `trace (N spans)` header. Everything else — span
/// names, tick ranges, outcomes — must match exactly; the plan search
/// never advances the request's virtual clock, so execution spans line up
/// whether or not a search preceded them.
std::string NormalizeMaintTrace(const std::string& trace);

/// \brief Replays one seeded catalog-mutation + query script twice — once
/// with MaintenanceMode::kSelective, once with kFullFlush — against
/// otherwise identical QueryServers, and compares every observable of
/// every request byte-for-byte (modulo cache-hit attribution, which the
/// two arms differ on by design). The script mutates the catalog between
/// request bursts: no-op swaps, α-renamings of a view's variables, view
/// body edits, additions, removals, and constraint (DTD) toggles.
///
/// A clean result is the tentpole's correctness proof: selective
/// invalidation retained entries only where a fresh plan search would
/// have produced the same plans, answers, reports, and traces.
///
/// Fails (the Result) only on fixture-construction errors; divergences
/// are reported in the MaintDrillResult.
Result<MaintDrillResult> RunMaintDifferentialDrill(
    const MaintDrillOptions& options);

}  // namespace tslrw

#endif  // TSLRW_TESTING_MAINT_DIFFERENTIAL_H_
