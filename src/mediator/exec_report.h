#ifndef TSLRW_MEDIATOR_EXEC_REPORT_H_
#define TSLRW_MEDIATOR_EXEC_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tslrw {

/// \brief How much of the true answer an execution delivered.
enum class Completeness : uint8_t {
  /// Every source answered fully; the result equals the fault-free answer.
  kComplete,
  /// All plan views answered but at least one feed was truncated: the
  /// result is a sound subset of the fault-free answer.
  kPartial,
  /// No total plan survived; the result is the union of maximally-contained
  /// rewritings over the live views (\S7) — sound, maximal over what was
  /// reachable, and possibly incomplete.
  kDegraded,
};

std::string_view CompletenessToString(Completeness completeness);

/// \brief One try against one source, on the virtual clock.
struct AttemptRecord {
  uint64_t at_ticks = 0;       ///< virtual time when the attempt started
  Status outcome;              ///< OK, Unavailable, DeadlineExceeded, ...
  uint64_t backoff_ticks = 0;  ///< wait scheduled after a failed attempt
};

/// \brief Everything that happened between the mediator and one capability
/// view while executing plans: the per-attempt outcomes the operator reads
/// to learn *why* an answer is partial.
struct FetchRecord {
  std::string source;  ///< the wrapped source
  std::string view;    ///< the capability view sent to it
  std::vector<AttemptRecord> attempts;
  bool succeeded = false;
  bool truncated = false;  ///< replied, but with a partial feed
  /// An open circuit breaker denied the fetch without touching the source.
  bool short_circuited = false;
  /// The winning data came from a hedged backup endpoint, named here.
  std::string hedged_to;
};

/// \brief Counters from the rewrite search(es) behind an answer's plan
/// list: how large the candidate space was and how much per-candidate work
/// the verification loop's memos shared (RewriteResult's diagnostics,
/// summed over the initial search and any failover re-plan). Only
/// `verify_wall_ticks` varies from run to run — report it, but do not
/// assert its value in tests.
struct PlanSearchStats {
  size_t candidates_generated = 0;
  size_t candidates_tested = 0;
  size_t chase_cache_hits = 0;
  size_t equiv_cache_hits = 0;
  uint64_t verify_wall_ticks = 0;

  void Add(const PlanSearchStats& other);

  /// One-line operator rendering, e.g.
  /// `31 candidate(s), 31 tested, 0 chase / 30 equiv cache hit(s), 1234us
  /// verifying`.
  std::string ToString() const;
};

/// \brief The execution trace threaded through Execute/Answer: per-source
/// attempts and waits, which fallbacks fired, and the completeness verdict.
struct ExecutionReport {
  std::vector<FetchRecord> fetches;
  /// Plans taken from the cheapest-first list and actually attempted.
  size_t plans_attempted = 0;
  /// Plans skipped without an attempt because they touch a source already
  /// known dead.
  size_t plans_skipped = 0;
  /// The plan list was exhausted and planning ran again over live views.
  bool replanned = false;
  /// The answer came from a plan other than the cheapest (or after skips).
  bool failover = false;
  /// The plan search hit its candidate budget; cheaper plans may exist.
  bool plan_search_truncated = false;
  /// Rewrite-search counters behind this answer's plan list (initial
  /// search plus any failover re-plan).
  PlanSearchStats plan_search;
  Completeness completeness = Completeness::kComplete;
  /// Sources declared dead during this execution (retries exhausted).
  std::vector<std::string> unreachable_sources;
  /// Total virtual time spent waiting out backoffs.
  uint64_t backoff_ticks_total = 0;
  /// Virtual time when the answer (or the final failure) was produced.
  uint64_t finished_at_ticks = 0;
  /// Hedged backup fetches issued / won (a win = the backup's data was the
  /// answer's copy of that view).
  size_t hedges_issued = 0;
  size_t hedge_wins = 0;
  /// Virtual ticks where a hedge backup overlapped its primary: both run on
  /// the one monotonic clock, so the modeled-parallel completion time is
  /// `clock->now() - hedge_overlap_ticks` (the mediator's EffectiveNow).
  uint64_t hedge_overlap_ticks = 0;
  /// Fetches denied outright by an open circuit breaker.
  size_t breaker_short_circuits = 0;
  /// The per-request deadline expired and the answer was degraded per §7
  /// instead of failing with DeadlineExceeded.
  bool deadline_degraded = false;

  /// Locates (or appends) the record for \p view against \p source.
  FetchRecord* RecordFor(const std::string& source, const std::string& view);

  /// The operator-facing rendering (multi-line, stable order), e.g.:
  ///
  /// ```
  /// execution: degraded (2 plans attempted, 1 skipped, failover)
  ///   s1/Y97: attempt 1 at t=0 Unavailable ... -> dead
  ///   s2/Dump2: attempt 1 at t=3 OK
  /// unreachable: s1
  /// ```
  std::string ToString() const;
};

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_EXEC_REPORT_H_
