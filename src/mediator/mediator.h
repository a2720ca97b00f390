#ifndef TSLRW_MEDIATOR_MEDIATOR_H_
#define TSLRW_MEDIATOR_MEDIATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "constraints/inference.h"
#include "maint/footprint.h"
#include "mediator/capability.h"
#include "mediator/exec_report.h"
#include "mediator/resilience.h"
#include "mediator/retry.h"
#include "mediator/wrapper.h"
#include "oem/database.h"
#include "rewrite/rewriter.h"
#include "rewrite/view_index.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief One executable plan produced by the capability-based rewriter: a
/// total rewriting whose body conditions all refer to capability views, so
/// every piece of work conforms to some source's interface (Fig. 2's
/// "candidate plans").
struct MediatorPlan {
  TslQuery rewriting;
  /// Names of the capability views the rewriting touches, i.e. the
  /// source-specific queries the mediator would send to wrappers.
  std::vector<std::string> views_used;
  /// A crude cost estimate (Fig. 2's optimizer hook): the number of view
  /// accesses; plans are returned cheapest-first.
  size_t cost = 0;

  std::string ToString() const;
};

/// \brief Every plan the capability-based rewriter found, cheapest-first,
/// plus whether the search was cut off before enumerating them all.
struct MediatorPlanSet {
  std::vector<MediatorPlan> plans;
  /// The candidate search hit RewriteOptions::max_candidates (or a
  /// deadline): cheaper or additional plans may exist that were never
  /// examined. Surfaced so a "no plan" verdict is never silently wrong.
  bool truncated = false;
  /// Counters from the rewrite search that produced this list (candidate
  /// space size, shared-work cache hits, verification wall time).
  PlanSearchStats search;
  /// What the search consulted (views admitting mappings, query-body
  /// sources, fired constraints, the chased query): the maintenance layer's
  /// input for deciding whether a catalog delta can affect this entry
  /// (src/maint/invalidate.h). Captured by every Plan/PlanOverViews call.
  PlanFootprint footprint;

  // Vector-style accessors: most callers only care about the plan list.
  size_t size() const { return plans.size(); }
  bool empty() const { return plans.empty(); }
  const MediatorPlan& front() const { return plans.front(); }
  const MediatorPlan& operator[](size_t i) const { return plans[i]; }
  std::vector<MediatorPlan>::const_iterator begin() const {
    return plans.begin();
  }
  std::vector<MediatorPlan>::const_iterator end() const {
    return plans.end();
  }
};

/// \brief Knobs for fault-tolerant execution. The defaults reproduce the
/// original synchronous behavior: an in-process CatalogWrapper that never
/// fails transiently, no deadlines, degraded fallback armed but unreachable.
struct ExecutionPolicy {
  /// The wrapper "sends" source queries; not owned, may be null (an
  /// internal CatalogWrapper is used). Tests install a FaultInjector here.
  Wrapper* wrapper = nullptr;
  RetryPolicy retry;
  /// Virtual time; not owned, may be null (a per-call clock starting at 0
  /// is used). Share one clock with the FaultInjector for slow-source
  /// faults to count against deadlines.
  VirtualClock* clock = nullptr;
  /// Seed for backoff jitter; fixed seed => identical ExecutionReport.
  uint64_t seed = 0;
  /// When no total plan survives the faults, fall back to the union of
  /// maximally-contained rewritings over the live views (\S7) instead of
  /// failing. Disable to make Answer all-or-nothing.
  bool allow_degraded = true;
  /// Fail with ResourceExhausted when the plan search is truncated instead
  /// of continuing with the plans found so far.
  bool strict = false;
  /// Ignored: plan searches verify every candidate inline on the planning
  /// thread. Kept only because perfbench/perfbench.cc sets it; the next
  /// revision of the benchmark drops that line and this field.
  size_t rewrite_parallelism = 1;
  /// Optional span tree for this execution (docs/OBSERVABILITY.md): plan
  /// search, per-plan attempts, fetch retries/backoffs, failover and
  /// degraded-fallback decisions. Everything recorded is driven by the
  /// virtual clock and the seeded RNG, so a fixed seed + schedule replays
  /// the trace byte for byte. Also handed to a FaultInjector sharing the
  /// tracer so injected faults appear as events inside fetch spans.
  Tracer* tracer = nullptr;
  /// Optional metric sink (attempt/retry/failover/degraded counters plus
  /// the rewriter's metrics for in-line plan searches).
  MetricRegistry* metrics = nullptr;
  /// Optional cross-request resilience state (circuit breakers + latency
  /// windows for hedging); not owned, may be null (no breakers, no
  /// hedging). The serving layer shares one registry across requests so an
  /// endpoint's history survives snapshot swaps.
  ResilienceRegistry* resilience = nullptr;
  /// Absolute end-to-end deadline on `clock`, stamped at admission by the
  /// serving layer (0 = none). Combined with
  /// `retry.per_query_deadline_ticks` the effective deadline is the
  /// earlier of the two, so no stage — plan search, fetches, backoff —
  /// can overspend the request budget.
  uint64_t admission_deadline_ticks = 0;
  /// When the effective deadline expires mid-execution, fall into the §7
  /// degraded path (sound, possibly incomplete, possibly empty) instead of
  /// failing with DeadlineExceeded. Requires `allow_degraded`; disable to
  /// restore the PR 2 hard-error behavior.
  bool degrade_on_deadline = true;
};

/// \brief A fault-tolerant answer: the consolidated result annotated with
/// how complete it is, which sources could not be reached, and the full
/// execution trace explaining why.
///
/// `completeness == kComplete` is the fault-free answer; `kPartial` means
/// every plan view replied but some feed was truncated; `kDegraded` means
/// no total plan survived and the result is the union of
/// maximally-contained rewritings over the live views — still sound (every
/// object belongs to the true answer), no longer guaranteed complete.
struct DegradedAnswer {
  OemDatabase result;
  Completeness completeness = Completeness::kComplete;
  /// Sources whose retries were exhausted (dead for this execution).
  std::vector<std::string> unreachable_sources;
  ExecutionReport report;

  bool complete() const { return completeness == Completeness::kComplete; }
};

/// \brief The TSIMMIS-style mediator of Fig. 1/2: integrates wrapped
/// sources whose interfaces are described by capability views and answers
/// user queries through the rewriting algorithm (the Capability-Based
/// Rewriter, \S1), surviving wrapper faults via retry, plan failover, and
/// maximally-contained degradation.
class Mediator {
 public:
  /// \param sources wrapped source descriptions (validated, then run
  ///        through the analyzer's per-rule passes: error-level
  ///        diagnostics on any capability view make Make fail with
  ///        kIllFormedQuery and the rendered report; warnings refuse
  ///        nothing and are not kept).
  /// \param constraints optional DTD-derived constraints on the source
  ///        data, forwarded to the rewriter (\S3.3) and the analyzer.
  ///
  /// The cross-rule TSL104 dead-view pass does not run here: it costs one
  /// maximally-contained rewriting search per view and only yields
  /// warnings. `tslrw_analyze` and the shell's `analyze` report it.
  ///
  /// Make also builds the mediator's view index (rewrite/view_index.h):
  /// every capability view is chased once here, so each plan search chases
  /// only the query and maps and composes only the views whose structural
  /// signature fits it. Plans are byte-identical to a full scan.
  static Result<Mediator> Make(std::vector<SourceDescription> sources,
                               const StructuralConstraints* constraints =
                                   nullptr);

  /// Capability-based rewriting: every total rewriting of \p query over
  /// the capability views, cheapest-first. An empty plan list means the
  /// query cannot be answered within the sources' interfaces (unless the
  /// set is flagged truncated).
  ///
  /// Parameterized capabilities are honored: a plan is kept only when each
  /// bound variable of each used capability is instantiated to a constant
  /// by the rewriting (the mediator can then fill the `$X` slot).
  ///
  /// \param rewrite_parallelism ignored; kept only because
  ///        perfbench/perfbench.cc passes it, and deleted with the next
  ///        revision of the benchmark.
  /// \param tracer / \param metrics optional observability sinks for the
  ///        underlying rewrite search (may be null).
  /// \param deadline_clock / \param deadline_ticks optional absolute tick
  ///        deadline for the search itself (wired to
  ///        RewriteOptions::should_stop): past it the enumeration stops and
  ///        the set comes back `truncated`. The serving layer threads each
  ///        request's admission deadline here so a cold plan-cache miss
  ///        cannot overspend the request budget.
  Result<MediatorPlanSet> Plan(const TslQuery& query,
                               size_t rewrite_parallelism = 1,
                               Tracer* tracer = nullptr,
                               MetricRegistry* metrics = nullptr,
                               const VirtualClock* deadline_clock = nullptr,
                               uint64_t deadline_ticks = 0) const;

  /// Executes a plan: sends each used capability view to its wrapper, then
  /// evaluates the rewriting over the collected results and consolidates
  /// them (the fusion step of \S1's running example). The two-argument form
  /// runs the built-in CatalogWrapper with no retries — the original
  /// synchronous behavior.
  Result<OemDatabase> Execute(const MediatorPlan& plan,
                              const SourceCatalog& catalog) const;

  /// Fault-tolerant Execute: fetches through `policy.wrapper` with
  /// retry/backoff on the virtual clock and appends per-attempt outcomes
  /// to \p report (which may be null). Fails with the last source failure
  /// when retries are exhausted.
  Result<OemDatabase> Execute(const MediatorPlan& plan,
                              const SourceCatalog& catalog,
                              const ExecutionPolicy& policy,
                              ExecutionReport* report) const;

  /// Plan + fault-tolerant execution with failover (the paper's Fig. 2
  /// loop hardened):
  ///
  ///  1. walk the cheapest-first plan list, skipping plans that touch a
  ///     capability view already known dead (liveness is per endpoint, so
  ///     replicated sources fail over independently), retrying transient
  ///     failures per RetryPolicy;
  ///  2. when the list is exhausted, re-plan over the live views only;
  ///  3. when no total plan survives, fall back to the union of
  ///     maximally-contained rewritings over the live views (\S7) and
  ///     return a degraded (sound, maximally-contained) answer.
  ///
  /// NotFound when the query admits no plan even fault-free; hard errors
  /// (evaluation failures, fusion conflicts) propagate immediately.
  Result<DegradedAnswer> Answer(const TslQuery& query,
                                const SourceCatalog& catalog,
                                const ExecutionPolicy& policy = {}) const;

  /// The execution half of Answer, taking an already-computed plan list:
  /// the serving layer caches MediatorPlanSets (the exponential part) per
  /// canonical query and replays them here. \p plans must have been
  /// produced for \p query or an α-equivalent rendering of it — rewriting
  /// heads instantiate to the same ground answer objects either way, and
  /// the answer database is named after \p query. Behavior is identical to
  /// Answer given the same plan list: failover, re-planning over live
  /// views, and the \S7 degraded fallback all apply.
  ///
  /// Thread safety: const and reentrant. Concurrent calls must not share a
  /// mutable `policy.wrapper` or `policy.clock` — give each call its own
  /// (the service layer builds both per request).
  Result<DegradedAnswer> AnswerWithPlans(const TslQuery& query,
                                         const MediatorPlanSet& plans,
                                         const SourceCatalog& catalog,
                                         const ExecutionPolicy& policy =
                                             {}) const;

  const std::vector<SourceDescription>& sources() const { return sources_; }

  /// View name -> the other capability views that are valid hedge targets
  /// for it: α-equivalent view queries (equal canonical keys) over the same
  /// source with the same bound-variable set, name-sorted. Computed once at
  /// Make; views with no replica are absent.
  const std::map<std::string, std::vector<std::string>>& hedge_partners()
      const {
    return hedge_partners_;
  }

  /// The structural constraints this mediator plans under (may be null).
  /// The maintenance layer diffs them across snapshot swaps.
  const StructuralConstraints* constraints() const { return constraints_; }

 private:
  /// Shared state of one fault-tolerant execution.
  struct ExecContext {
    Wrapper* wrapper;
    VirtualClock* clock;
    DeterministicRng* rng;
    const RetryPolicy* retry;
    uint64_t deadline_ticks;  ///< absolute per-query deadline; 0 = none
    ExecutionReport* report;
    std::string answer_name;
    Tracer* tracer = nullptr;          ///< may be null
    MetricRegistry* metrics = nullptr; ///< may be null
    ResilienceRegistry* resilience = nullptr;  ///< may be null
    bool degrade_on_deadline = true;
  };

  Mediator(std::vector<SourceDescription> sources,
           const StructuralConstraints* constraints)
      : sources_(std::move(sources)), constraints_(constraints) {}

  /// The capability owning view \p name; nullptr if unknown.
  const Capability* FindCapability(const std::string& name) const;
  /// The source whose interface exports view \p name; empty if unknown.
  std::string SourceOfView(const std::string& name) const;
  /// The sorted source names that are unreachable given the dead view set:
  /// a source is listed only when every capability view exporting it is
  /// dead (a replicated source with one live mirror still answers).
  std::vector<std::string> SourcesOfViews(
      const std::set<std::string>& views) const;

  /// The planning pipeline over an explicit view set (used both for the
  /// initial plan list and for re-planning over live views).
  Result<MediatorPlanSet> PlanOverViews(const TslQuery& query,
                                        const std::vector<TslQuery>& views,
                                        const RewriteOptions& options) const;

  /// Rewrite options for Answer-path plan searches: constraints, strict
  /// limits, and a should_stop hook wired to \p deadline_ticks on \p clock
  /// (0 = no deadline). \p clock must outlive the returned options.
  RewriteOptions PlanningOptions(const ExecutionPolicy& policy,
                                 const VirtualClock* clock,
                                 uint64_t deadline_ticks) const;

  /// The modeled "now" of this execution: the raw clock minus the ticks
  /// where a hedged backup ran concurrently with its primary. The clock is
  /// monotonic and shared (fault SlowBy advances it), so overlapping work
  /// is sequentialized on it and the overlap subtracted back out here; all
  /// deadline math uses this.
  static uint64_t EffectiveNow(const ExecContext& ctx);
  /// True when the effective per-request deadline has passed.
  static bool QueryDeadlineExceeded(const ExecContext& ctx);
  /// Populates the context fields shared by Execute/AnswerWithPlans,
  /// including the effective absolute deadline (the earlier of the retry
  /// budget and the admission deadline).
  static void InitContext(const ExecutionPolicy& policy, ExecContext* ctx);

  /// One view fetch with retry/backoff/deadlines, circuit-breaker
  /// admission, and at most one hedged backup fetch; appends attempts to
  /// the report. Failure means retries were exhausted (or a permanent
  /// error, or an open breaker short-circuited the endpoint).
  Result<WrapperResult> FetchWithRetry(const Capability& capability,
                                       const SourceCatalog& catalog,
                                       const ExecContext& ctx) const;

  /// Issues the one-shot hedged backup fetch against \p partner and
  /// returns its data renamed to \p primary_view (partner views are
  /// α-equivalent, so the bytes are the answer's either way).
  Result<WrapperResult> HedgeFetch(const Capability& partner,
                                   const std::string& primary_view,
                                   const SourceCatalog& catalog,
                                   const ExecContext& ctx) const;

  struct PlanExecution {
    OemDatabase answer;
    bool any_truncated = false;
  };
  /// The one plan executor: compiles \p rules (a plan's rewriting or the
  /// degraded fallback's live rules) to the flat IR under a `plan.compile`
  /// span and runs them over \p view_results under `plan.exec_ir`. Nothing
  /// is cached on the plan: a program costs 14–18 KB for a 4–5-arm plan,
  /// and every cached plan set would hold one (docs/IR.md, "Mediator
  /// integration").
  Result<OemDatabase> ExecuteRules(const TslRuleSet& rules,
                                   const SourceCatalog& view_results,
                                   const ExecContext& ctx) const;

  /// Fetches every view of \p plan and evaluates the rewriting. On failure
  /// \p failed_view names the capability view that could not be reached
  /// (empty for non-source errors).
  Result<PlanExecution> RunPlan(const MediatorPlan& plan,
                                const SourceCatalog& catalog,
                                const ExecContext& ctx,
                                std::string* failed_view) const;

  /// The \S7 fallback: union of maximally-contained rewritings over the
  /// capability views not in \p dead (a set of view names).
  Result<DegradedAnswer> DegradedFallback(const TslQuery& query,
                                          const SourceCatalog& catalog,
                                          const ExecContext& ctx,
                                          std::set<std::string> dead,
                                          ExecutionReport report) const;

  std::vector<SourceDescription> sources_;
  const StructuralConstraints* constraints_;
  /// See hedge_partners().
  std::map<std::string, std::vector<std::string>> hedge_partners_;
  /// All capability views across sources, in source order: the view set
  /// of every full plan search, built once at Make.
  std::vector<TslQuery> views_;
  /// The index over `views_` under `constraints_`, built at Make
  /// (immutable, so copies of the mediator alias it safely).
  std::shared_ptr<const ViewIndex> view_index_;
};

}  // namespace tslrw

#endif  // TSLRW_MEDIATOR_MEDIATOR_H_
