#include "mediator/mediator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/contained.h"
#include "tsl/canonical.h"

namespace tslrw {

namespace {

/// Groups capability views into hedge-partner sets: two views are mutual
/// backups when they are α-equivalent (equal canonical keys — same head
/// shape, so materialized replies carry identical object structure), range
/// over the same source, and expose the same bound-variable set. Hedging to
/// a partner can therefore never change the answer bytes, only which
/// endpoint produced them.
///
/// Views are first grouped by the head's α-key and the sorted condition
/// α-keys (tsl/canonical.h). Each is α-invariant on its own, so α-equivalent
/// views always share a group, and only groups of two or more pay for
/// CanonicalizeQuery.
std::map<std::string, std::vector<std::string>> ComputeHedgePartners(
    const std::vector<SourceDescription>& sources) {
  struct GroupKey {
    std::string source;
    std::set<std::string> bound;
    std::string head;
    std::vector<std::string> conditions;  // sorted α-keys
    bool operator<(const GroupKey& other) const {
      return std::tie(source, bound, head, conditions) <
             std::tie(other.source, other.bound, other.head, other.conditions);
    }
  };
  std::map<GroupKey, std::vector<const TslQuery*>> groups;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) {
      GroupKey key{sd.source, cap.bound_variables,
                   AlphaKeyOf(cap.view.head).key, {}};
      for (const Condition& c : cap.view.body) {
        key.conditions.push_back(AlphaKeyOf(c).key);
      }
      std::sort(key.conditions.begin(), key.conditions.end());
      groups[std::move(key)].push_back(&cap.view);
    }
  }
  std::map<std::string, std::vector<std::string>> partners;
  for (const auto& [group, views] : groups) {
    if (views.size() < 2) continue;
    std::map<std::string, std::vector<std::string>> replicas;
    for (const TslQuery* view : views) {
      replicas[CanonicalizeQuery(*view).key].push_back(view->name);
    }
    for (auto& [canonical, members] : replicas) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end());
      for (const std::string& name : members) {
        std::vector<std::string> others;
        for (const std::string& other : members) {
          if (other != name) others.push_back(other);
        }
        partners[name] = std::move(others);
      }
    }
  }
  return partners;
}

}  // namespace

Status ValidateDescriptions(const std::vector<SourceDescription>& sources) {
  std::set<std::string> names;
  for (const SourceDescription& sd : sources) {
    if (sd.source.empty()) {
      return Status::InvalidArgument("source description without a source");
    }
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name.empty()) {
        return Status::InvalidArgument(
            StrCat("capability view of source ", sd.source, " is unnamed"));
      }
      if (!names.insert(cap.view.name).second) {
        return Status::InvalidArgument(
            StrCat("duplicate capability view name ", cap.view.name));
      }
      for (const Condition& c : cap.view.body) {
        if (c.source != sd.source) {
          return Status::InvalidArgument(
              StrCat("capability view ", cap.view.name, " of source ",
                     sd.source, " ranges over foreign source ", c.source));
        }
      }
      for (const std::string& var : cap.bound_variables) {
        bool found = false;
        for (const Term& v : cap.view.BodyVariables()) {
          found = found || v.var_name() == var;
        }
        if (!found) {
          return Status::InvalidArgument(
              StrCat("bound variable ", var, " does not occur in view ",
                     cap.view.name));
        }
      }
    }
  }
  return Status::OK();
}

std::string MediatorPlan::ToString() const {
  return StrCat("plan(cost=", cost, ", views=[",
                JoinMapped(views_used, ",",
                           [](const std::string& s) { return s; }),
                "]): ", rewriting.ToString());
}

Result<Mediator> Mediator::Make(std::vector<SourceDescription> sources,
                                const StructuralConstraints* constraints) {
  TSLRW_RETURN_NOT_OK(ValidateDescriptions(sources));
  // Run the analyzer's per-rule passes over all capability views: a view
  // with error-level diagnostics would poison every rewriting that uses
  // it, so refuse to build the mediator. Only errors matter here, and
  // every error code comes from a per-rule pass, so the cross-rule
  // dead-view search (one rewriting search per view, warnings only) stays
  // with the offline analyzer.
  AnalyzerOptions analyzer_options;
  analyzer_options.constraints = constraints;
  analyzer_options.detect_dead_views = false;
  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) {
      views.push_back(cap.view);
      analyzer_options.constraint_exempt_sources.insert(cap.view.name);
    }
  }
  AnalysisReport report = Analyzer(analyzer_options).AnalyzeRules(views);
  if (report.has_errors()) {
    return Status::IllFormedQuery(
        StrCat("capability views failed analysis:\n", report.ToString()));
  }
  Mediator mediator(std::move(sources), constraints);
  mediator.hedge_partners_ = ComputeHedgePartners(mediator.sources_);
  mediator.views_ = std::move(views);
  mediator.view_index_ = std::make_shared<const ViewIndex>(
      ViewIndex::Build(mediator.views_, constraints));
  return mediator;
}

const Capability* Mediator::FindCapability(const std::string& name) const {
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name == name) return &cap;
    }
  }
  return nullptr;
}

std::string Mediator::SourceOfView(const std::string& name) const {
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      if (cap.view.name == name) return sd.source;
    }
  }
  return "";
}

std::vector<std::string> Mediator::SourcesOfViews(
    const std::set<std::string>& views) const {
  // A source is unreachable only when every endpoint exporting it is dead:
  // a replicated source with one live mirror still answers. Per-endpoint
  // detail stays in ExecutionReport::fetches.
  std::map<std::string, bool> every_view_dead;
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      bool is_dead = views.count(cap.view.name) > 0;
      auto [it, inserted] = every_view_dead.try_emplace(sd.source, is_dead);
      if (!inserted) it->second = it->second && is_dead;
    }
  }
  std::vector<std::string> out;
  for (const auto& [source, all_dead] : every_view_dead) {
    if (all_dead) out.push_back(source);
  }
  return out;
}

namespace {

/// Whether every occurrence of a bound (`$X`) variable inside \p view_term
/// was instantiated to a constant in \p inst_term. Skolem arguments are
/// inspected recursively, so parameters surfaced through head oids (e.g.
/// `yp(P',YB')`) are covered.
bool TermParametersBound(const Term& view_term, const Term& inst_term,
                         const std::set<std::string>& bound) {
  switch (view_term.kind()) {
    case TermKind::kAtom:
      return true;
    case TermKind::kVariable:
      return bound.count(view_term.var_name()) == 0 || inst_term.is_atom();
    case TermKind::kFunction: {
      if (!inst_term.is_func() ||
          inst_term.args().size() != view_term.args().size()) {
        return true;  // structure changed beyond recognition; accept
      }
      for (size_t i = 0; i < view_term.args().size(); ++i) {
        if (!TermParametersBound(view_term.args()[i], inst_term.args()[i],
                                 bound)) {
          return false;
        }
      }
      return true;
    }
  }
  return true;
}

/// Walks the capability's head and its instantiation in a rewriting body
/// in parallel, checking that every occurrence of a bound (`$X`) variable
/// was instantiated to a constant the mediator can splice in.
bool BoundVariablesInstantiated(const ObjectPattern& view_head,
                                const ObjectPattern& instantiated,
                                const std::set<std::string>& bound) {
  auto needs_constant = [&bound](const Term& t) {
    return t.is_var() && bound.count(t.var_name()) > 0;
  };
  if (!TermParametersBound(view_head.oid, instantiated.oid, bound)) {
    return false;
  }
  if (needs_constant(view_head.label) && !instantiated.label.is_atom()) {
    return false;
  }
  if (view_head.value.is_term() && needs_constant(view_head.value.term()) &&
      !(instantiated.value.is_term() &&
        instantiated.value.term().is_atom())) {
    return false;
  }
  if (view_head.value.is_set() && instantiated.value.is_set()) {
    const SetPattern& vh = view_head.value.set();
    const SetPattern& in = instantiated.value.set();
    if (vh.size() != in.size()) return true;  // structure changed; accept
    for (size_t i = 0; i < vh.size(); ++i) {
      if (!BoundVariablesInstantiated(vh[i], in[i], bound)) return false;
    }
  }
  return true;
}

}  // namespace

Result<MediatorPlanSet> Mediator::PlanOverViews(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options) const {
  RewriteOptions rewrite_options = options;
  rewrite_options.require_total = true;  // every condition must fit some
                                         // interface
  TSLRW_ASSIGN_OR_RETURN(RewriteResult rewrites,
                         RewriteQuery(query, views, rewrite_options));
  MediatorPlanSet set;
  set.truncated = rewrites.truncated;
  set.search.candidates_generated = rewrites.candidates_generated;
  set.search.candidates_tested = rewrites.candidates_tested;
  set.search.chase_cache_hits = rewrites.chase_cache_hits;
  set.search.equiv_cache_hits = rewrites.equiv_cache_hits;
  set.search.batches_dispatched = rewrites.batches_dispatched;
  set.search.verify_wall_ticks = rewrites.verify_wall_ticks;
  // Dependency footprint for the maintenance layer (maint/footprint.h):
  // which views the search consulted and what the query itself referenced.
  set.footprint.captured = true;
  set.footprint.view_names = std::move(rewrites.views_touched);
  set.footprint.fired_constraints = std::move(rewrites.fired_constraints);
  set.footprint.chased_query = std::move(rewrites.chased_query);
  set.footprint.query_unsatisfiable = rewrites.query_unsatisfiable;
  for (const Condition& c : query.body) {
    set.footprint.query_sources.insert(c.source);
  }
  for (TslQuery& rw : rewrites.rewritings) {
    MediatorPlan plan;
    std::set<std::string> used;
    bool admissible = true;
    for (const Condition& c : rw.body) {
      const Capability* cap = FindCapability(c.source);
      if (cap == nullptr) {
        admissible = false;  // defensive; total rewritings only use views
        break;
      }
      if (!cap->bound_variables.empty() &&
          !BoundVariablesInstantiated(cap->view.head, c.pattern,
                                      cap->bound_variables)) {
        admissible = false;
        break;
      }
      used.insert(c.source);
    }
    if (!admissible) continue;
    plan.views_used.assign(used.begin(), used.end());
    plan.cost = rw.body.size();
    plan.rewriting = std::move(rw);
    set.plans.push_back(std::move(plan));
  }
  std::sort(set.plans.begin(), set.plans.end(),
            [](const MediatorPlan& a, const MediatorPlan& b) {
              return a.cost < b.cost;
            });
  return set;
}

Result<MediatorPlanSet> Mediator::Plan(const TslQuery& query,
                                       size_t rewrite_parallelism,
                                       Tracer* tracer,
                                       MetricRegistry* metrics,
                                       const VirtualClock* deadline_clock,
                                       uint64_t deadline_ticks) const {
  RewriteOptions options;
  options.constraints = constraints_;
  options.parallelism = rewrite_parallelism;
  options.tracer = tracer;
  options.metrics = metrics;
  options.view_index = view_index_.get();
  if (deadline_clock != nullptr && deadline_ticks > 0) {
    options.should_stop = [deadline_clock, deadline_ticks] {
      return deadline_clock->now() >= deadline_ticks;
    };
  }
  ScopedSpan span(tracer, "mediator.plan_search");
  CountIf(metrics, "mediator.plan_searches");
  Result<MediatorPlanSet> set = PlanOverViews(query, views_, options);
  if (set.ok()) {
    span.Annotate("plans", static_cast<uint64_t>(set->size()));
    span.Annotate("truncated", set->truncated ? "true" : "false");
  }
  return set;
}

uint64_t Mediator::EffectiveNow(const ExecContext& ctx) {
  const uint64_t now = ctx.clock->now();
  const uint64_t overlap = ctx.report->hedge_overlap_ticks;
  return now >= overlap ? now - overlap : 0;
}

bool Mediator::QueryDeadlineExceeded(const ExecContext& ctx) {
  return ctx.deadline_ticks > 0 && EffectiveNow(ctx) >= ctx.deadline_ticks;
}

namespace {

/// The effective end-to-end deadline: the earlier of the per-query retry
/// budget (relative to now, converted here) and the admission deadline
/// stamped by the serving layer (already absolute on the shared clock).
uint64_t EffectiveDeadline(const ExecutionPolicy& policy,
                           const VirtualClock* clock) {
  uint64_t deadline = AbsoluteDeadlineTicks(
      clock->now(), policy.retry.per_query_deadline_ticks);
  if (policy.admission_deadline_ticks > 0 &&
      (deadline == 0 || policy.admission_deadline_ticks < deadline)) {
    deadline = policy.admission_deadline_ticks;
  }
  return deadline;
}

}  // namespace

void Mediator::InitContext(const ExecutionPolicy& policy, ExecContext* ctx) {
  ctx->retry = &policy.retry;
  ctx->deadline_ticks = EffectiveDeadline(policy, ctx->clock);
  ctx->tracer = policy.tracer;
  ctx->metrics = policy.metrics;
  ctx->resilience = policy.resilience;
  ctx->degrade_on_deadline = policy.degrade_on_deadline &&
                             policy.allow_degraded;
}

Result<WrapperResult> Mediator::HedgeFetch(const Capability& partner,
                                           const std::string& primary_view,
                                           const SourceCatalog& catalog,
                                           const ExecContext& ctx) const {
  Result<WrapperResult> fetched = ctx.wrapper->Fetch(partner, catalog);
  if (fetched.ok()) {
    // Partner views are α-equivalent over the same source, so the
    // materialized bytes are the answer's either way; evaluation looks the
    // data up under the primary view's name.
    fetched->data.set_name(primary_view);
  }
  return fetched;
}

Result<WrapperResult> Mediator::FetchWithRetry(const Capability& capability,
                                               const SourceCatalog& catalog,
                                               const ExecContext& ctx) const {
  const std::string& view_name = capability.view.name;
  const std::string source = SourceOfView(view_name);
  FetchRecord* record = ctx.report->RecordFor(source, view_name);
  ScopedSpan fetch_span(ctx.tracer, "mediator.fetch");
  fetch_span.Annotate("view", view_name);
  fetch_span.Annotate("source", source);
  ResilienceRegistry* res = ctx.resilience;

  // Feeds a fetch outcome back into the shared registry (breaker windows
  // and hedge-latency history) and surfaces any state transition.
  auto record_outcome = [&](const std::string& endpoint, bool ok,
                            uint64_t latency_ticks) {
    if (res == nullptr) return;
    BreakerEvent event = ok ? res->RecordSuccess(endpoint, latency_ticks)
                            : res->RecordFailure(endpoint);
    if (event.opened) {
      fetch_span.Event(StrCat("breaker opened: ", endpoint));
      CountIf(ctx.metrics, "breaker.opened");
    }
    if (event.closed) {
      fetch_span.Event(StrCat("breaker closed: ", endpoint));
      CountIf(ctx.metrics, "breaker.closed");
    }
  };

  // Circuit-breaker admission: one decision per fetch, so a half-open
  // probe admits the whole retried call and its outcome decides whether
  // the breaker closes or re-opens.
  if (res != nullptr && res->breakers_enabled()) {
    BreakerDecision decision = res->Admit(view_name);
    if (decision.half_opened) {
      fetch_span.Event(StrCat("breaker half-open: ", view_name));
      CountIf(ctx.metrics, "breaker.half_opened");
    }
    if (!decision.allowed) {
      // Short-circuit: the endpoint is known dead; spend no attempts, no
      // backoff, and no deadline budget on it. Unavailable routes the view
      // into the regular dead-view failover/degraded path.
      record->short_circuited = true;
      ++ctx.report->breaker_short_circuits;
      fetch_span.Annotate("short_circuited", "true");
      CountIf(ctx.metrics, "breaker.short_circuits");
      return Status::Unavailable(StrCat("circuit breaker open for view ",
                                        view_name, " of source ", source));
    }
  }

  // Hedge eligibility: enabled, and this view has α-equivalent replica
  // endpoints to fail over to. At most one backup per fetch.
  const std::vector<std::string>* partners = nullptr;
  if (res != nullptr && res->hedging_enabled()) {
    auto it = hedge_partners_.find(view_name);
    if (it != hedge_partners_.end()) partners = &it->second;
  }
  bool hedged = false;

  const size_t max_attempts = std::max<size_t>(ctx.retry->max_attempts, 1);
  Status last = Status::Unavailable(
      StrCat("source ", source, " unreachable"));
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (QueryDeadlineExceeded(ctx)) {
      fetch_span.Event("query deadline exceeded before attempt");
      CountIf(ctx.metrics, "mediator.fetch_deadline_aborts");
      return Status::DeadlineExceeded(
          StrCat("request deadline (t=", ctx.deadline_ticks,
                 ") exceeded before attempt ", attempt, " against ",
                 source));
    }
    const uint64_t started = ctx.clock->now();
    // The hedge trigger is fixed *before* the primary is issued (as a live
    // system would arm a timer): the primary's own latency must not move
    // the percentile that decides whether to hedge it.
    const uint64_t hedge_delay =
        partners != nullptr ? res->HedgeDelayTicks(view_name) : 0;
    CountIf(ctx.metrics, "mediator.fetch_attempts");
    if (attempt > 1) CountIf(ctx.metrics, "mediator.retries");
    Result<WrapperResult> fetched = ctx.wrapper->Fetch(capability, catalog);
    const uint64_t elapsed = ctx.clock->now() - started;
    Status outcome = fetched.ok() ? Status::OK() : fetched.status();
    if (outcome.ok() && ctx.retry->per_call_deadline_ticks > 0 &&
        elapsed > ctx.retry->per_call_deadline_ticks) {
      // The reply arrived after the caller stopped listening: a timeout,
      // not a success, however complete the data was.
      outcome = Status::DeadlineExceeded(
          StrCat("view ", view_name, " took ", elapsed,
                 " tick(s); the per-call deadline is ",
                 ctx.retry->per_call_deadline_ticks));
    }
    record->attempts.push_back(AttemptRecord{started, outcome, 0});
    fetch_span.Event(StrCat("attempt ", attempt, ": ",
                            outcome.ok()
                                ? "ok"
                                : StatusCodeToString(outcome.code())));
    record_outcome(view_name, outcome.ok(), elapsed);

    // Hedge: in a live system the backup fires while the primary is still
    // pending, once the wait passes the endpoint's recent latency
    // percentile. The virtual clock is monotonic and shared, so the backup
    // runs after the primary here and the concurrency is reconstructed
    // arithmetically: backup issue time = started + delay, both completion
    // times are compared, and the overlap is subtracted from all later
    // deadline math via EffectiveNow.
    if (partners != nullptr && !hedged && elapsed > hedge_delay &&
        (outcome.ok() || IsRetryableFailure(outcome))) {
      const Capability* partner_cap = nullptr;
      for (const std::string& partner_name : *partners) {
        const Capability* candidate = FindCapability(partner_name);
        if (candidate == nullptr) continue;
        if (res->breakers_enabled() && !res->Admit(partner_name).allowed) {
          CountIf(ctx.metrics, "breaker.short_circuits");
          continue;  // the backup endpoint is known dead too
        }
        partner_cap = candidate;
        break;
      }
      if (partner_cap != nullptr) {
        hedged = true;
        const std::string& partner_name = partner_cap->view.name;
        ++ctx.report->hedges_issued;
        fetch_span.Event(StrCat("hedge issued -> ", partner_name, " (delay ",
                                hedge_delay, ")"));
        CountIf(ctx.metrics, "mediator.hedges_issued");
        const uint64_t backup_started = ctx.clock->now();
        Result<WrapperResult> backup =
            HedgeFetch(*partner_cap, view_name, catalog, ctx);
        const uint64_t backup_elapsed = ctx.clock->now() - backup_started;
        Status backup_outcome = backup.ok() ? Status::OK() : backup.status();
        if (backup_outcome.ok() && ctx.retry->per_call_deadline_ticks > 0 &&
            backup_elapsed > ctx.retry->per_call_deadline_ticks) {
          backup_outcome = Status::DeadlineExceeded(
              StrCat("hedge to view ", partner_name, " took ",
                     backup_elapsed, " tick(s); the per-call deadline is ",
                     ctx.retry->per_call_deadline_ticks));
        }
        FetchRecord* partner_record =
            ctx.report->RecordFor(source, partner_name);
        // RecordFor may grow the fetches vector; the primary's record
        // pointer from the loop head is invalid past this point.
        record = ctx.report->RecordFor(source, view_name);
        partner_record->attempts.push_back(
            AttemptRecord{backup_started, backup_outcome, 0});
        partner_record->succeeded =
            partner_record->succeeded || backup_outcome.ok();
        record_outcome(partner_name, backup_outcome.ok(), backup_elapsed);
        // Modeled times relative to the primary's start: the backup was
        // issued at `hedge_delay` and completed at hedge_delay + its own
        // latency; the race resolves on those, ties to the primary.
        const uint64_t backup_done = hedge_delay + backup_elapsed;
        uint64_t completion;  // modeled end of the whole hedged fetch
        bool backup_wins;
        if (outcome.ok() && backup_outcome.ok()) {
          backup_wins = backup_done < elapsed;
          completion = std::min(elapsed, backup_done);
        } else if (outcome.ok()) {
          backup_wins = false;
          completion = elapsed;
        } else if (backup_outcome.ok()) {
          backup_wins = true;
          completion = backup_done;
        } else {
          backup_wins = false;
          completion = std::max(elapsed, backup_done);
        }
        // The clock ran primary + backup back to back; credit back the
        // ticks where they would have overlapped.
        ctx.report->hedge_overlap_ticks +=
            (elapsed + backup_elapsed) - completion;
        if (backup_wins) {
          ++ctx.report->hedge_wins;
          record->succeeded = true;
          record->truncated = record->truncated || !backup->complete;
          record->hedged_to = partner_name;
          fetch_span.Event(StrCat("hedge won: ", partner_name));
          CountIf(ctx.metrics, "mediator.hedge_wins");
          if (!backup->complete) {
            fetch_span.Annotate("truncated", "true");
            CountIf(ctx.metrics, "mediator.fetches_truncated");
          }
          CountIf(ctx.metrics, "mediator.fetches_ok");
          ObserveIf(ctx.metrics, "mediator.fetch_attempts_per_call",
                    attempt);
          return backup;
        }
        fetch_span.Event("hedge lost");
      }
    }

    if (outcome.ok()) {
      record->succeeded = true;
      record->truncated = record->truncated || !fetched->complete;
      if (!fetched->complete) {
        fetch_span.Annotate("truncated", "true");
        CountIf(ctx.metrics, "mediator.fetches_truncated");
      }
      CountIf(ctx.metrics, "mediator.fetches_ok");
      ObserveIf(ctx.metrics, "mediator.fetch_attempts_per_call", attempt);
      return fetched;
    }
    last = outcome;
    if (!IsRetryableFailure(outcome)) {
      CountIf(ctx.metrics, "mediator.fetch_permanent_failures");
      return outcome;
    }
    if (attempt < max_attempts) {
      uint64_t backoff = ctx.retry->BackoffAfterAttempt(attempt, ctx.rng);
      if (ctx.deadline_ticks > 0) {
        // Never sleep past the request deadline: a zero or expired budget
        // fails fast at the next loop head without waiting at all, and a
        // nearly-spent one waits only the remainder.
        backoff = std::min(
            backoff, RemainingTicks(EffectiveNow(ctx), ctx.deadline_ticks));
      }
      if (backoff > 0) {
        ctx.clock->Advance(backoff);
        record->attempts.back().backoff_ticks = backoff;
        ctx.report->backoff_ticks_total += backoff;
        fetch_span.Event(StrCat("backoff ", backoff, " tick(s)"));
        CountIf(ctx.metrics, "mediator.backoff_ticks", backoff);
      }
    }
  }
  fetch_span.Annotate("exhausted", "true");
  CountIf(ctx.metrics, "mediator.fetches_exhausted");
  return last;
}

Result<Mediator::PlanExecution> Mediator::RunPlan(
    const MediatorPlan& plan, const SourceCatalog& catalog,
    const ExecContext& ctx, std::string* failed_view) const {
  failed_view->clear();
  SourceCatalog view_results;
  PlanExecution exec;
  for (const std::string& view_name : plan.views_used) {
    const Capability* cap = FindCapability(view_name);
    if (cap == nullptr) {
      return Status::NotFound(StrCat("unknown capability view ", view_name));
    }
    Result<WrapperResult> fetched = FetchWithRetry(*cap, catalog, ctx);
    if (!fetched.ok()) {
      if (IsRetryableFailure(fetched.status())) {
        *failed_view = view_name;
      }
      return fetched.status();
    }
    exec.any_truncated = exec.any_truncated || !fetched->complete;
    view_results.Put(std::move(fetched->data));
  }
  // Collect + consolidate at the mediator: evaluate the rewriting over the
  // wrapper results (fusion merges per-source fragments by oid).
  TSLRW_ASSIGN_OR_RETURN(
      exec.answer,
      ExecuteRules(TslRuleSet::Single(plan.rewriting), view_results, ctx));
  return exec;
}

Result<OemDatabase> Mediator::ExecuteRules(const TslRuleSet& rules,
                                           const SourceCatalog& view_results,
                                           const ExecContext& ctx) const {
  std::shared_ptr<const IrProgram> program;
  {
    ScopedSpan compile_span(ctx.tracer, "plan.compile");
    PlanCompiler compiler(ctx.metrics);
    TSLRW_ASSIGN_OR_RETURN(program, compiler.Compile(rules));
    compile_span.Annotate("ops", static_cast<uint64_t>(program->ops.size()));
  }
  ScopedSpan exec_span(ctx.tracer, "plan.exec_ir");
  exec_span.Annotate("ops", static_cast<uint64_t>(program->ops.size()));
  IrExecOptions ir;
  ir.answer_name = ctx.answer_name;
  ir.metrics = ctx.metrics;
  return ExecuteIr(*program, view_results, ir);
}

Result<OemDatabase> Mediator::Execute(const MediatorPlan& plan,
                                      const SourceCatalog& catalog) const {
  return Execute(plan, catalog, ExecutionPolicy{}, nullptr);
}

Result<OemDatabase> Mediator::Execute(const MediatorPlan& plan,
                                      const SourceCatalog& catalog,
                                      const ExecutionPolicy& policy,
                                      ExecutionReport* report) const {
  CatalogWrapper catalog_wrapper;
  VirtualClock local_clock;
  DeterministicRng rng(policy.seed);
  ExecutionReport local_report;
  ExecContext ctx;
  ctx.wrapper = policy.wrapper != nullptr ? policy.wrapper : &catalog_wrapper;
  ctx.clock = policy.clock != nullptr ? policy.clock : &local_clock;
  ctx.rng = &rng;
  ctx.report = report != nullptr ? report : &local_report;
  ctx.answer_name = plan.rewriting.name.empty() ? "answer"
                                                : plan.rewriting.name;
  InitContext(policy, &ctx);
  ++ctx.report->plans_attempted;
  CountIf(ctx.metrics, "mediator.plans_attempted");
  std::string failed_source;
  TSLRW_ASSIGN_OR_RETURN(PlanExecution exec,
                         RunPlan(plan, catalog, ctx, &failed_source));
  ctx.report->completeness = exec.any_truncated ? Completeness::kPartial
                                                : Completeness::kComplete;
  ctx.report->finished_at_ticks = EffectiveNow(ctx);
  return std::move(exec.answer);
}

RewriteOptions Mediator::PlanningOptions(const ExecutionPolicy& policy,
                                         const VirtualClock* clock,
                                         uint64_t deadline_ticks) const {
  RewriteOptions options;
  options.constraints = constraints_;
  options.strict_limits = policy.strict;
  options.parallelism = policy.rewrite_parallelism;
  options.tracer = policy.tracer;
  options.metrics = policy.metrics;
  // The index declines any view set it was not built over (CoversViews),
  // so replans over live-view subsets take the full scan automatically and
  // stay byte-identical.
  options.view_index = view_index_.get();
  if (deadline_ticks > 0) {
    options.should_stop = [clock, deadline_ticks] {
      return clock->now() >= deadline_ticks;
    };
  }
  return options;
}

Result<DegradedAnswer> Mediator::Answer(const TslQuery& query,
                                        const SourceCatalog& catalog,
                                        const ExecutionPolicy& policy) const {
  // The local clock must span both planning and execution so a per-query
  // deadline covers the whole Answer, as before the Plan/Execute split.
  // (The clock only advances on backoff waits and slow-source faults, so
  // recomputing the deadline in AnswerWithPlans lands on the same tick.)
  VirtualClock local_clock;
  ExecutionPolicy effective = policy;
  if (effective.clock == nullptr) effective.clock = &local_clock;
  const uint64_t deadline_ticks =
      EffectiveDeadline(effective, effective.clock);
  RewriteOptions plan_options =
      PlanningOptions(effective, effective.clock, deadline_ticks);
  ScopedSpan plan_span(effective.tracer, "mediator.plan_search");
  CountIf(effective.metrics, "mediator.plan_searches");
  TSLRW_ASSIGN_OR_RETURN(MediatorPlanSet plans,
                         PlanOverViews(query, views_, plan_options));
  plan_span.Annotate("plans", static_cast<uint64_t>(plans.size()));
  plan_span.Annotate("truncated", plans.truncated ? "true" : "false");
  plan_span.EndNow();
  return AnswerWithPlans(query, plans, catalog, effective);
}

Result<DegradedAnswer> Mediator::AnswerWithPlans(
    const TslQuery& query, const MediatorPlanSet& plans,
    const SourceCatalog& catalog, const ExecutionPolicy& policy) const {
  CatalogWrapper catalog_wrapper;
  VirtualClock local_clock;
  DeterministicRng rng(policy.seed);
  ExecutionReport report;
  ExecContext ctx;
  ctx.wrapper = policy.wrapper != nullptr ? policy.wrapper : &catalog_wrapper;
  ctx.clock = policy.clock != nullptr ? policy.clock : &local_clock;
  ctx.rng = &rng;
  ctx.report = &report;
  ctx.answer_name = query.name.empty() ? "answer" : query.name;
  InitContext(policy, &ctx);
  ScopedSpan answer_span(ctx.tracer, "mediator.answer");
  answer_span.Annotate("plans", static_cast<uint64_t>(plans.size()));
  CountIf(ctx.metrics, "mediator.answers");

  // Options for the failover re-plan over live views; also where a strict
  // caller learns that a cached plan list was itself truncated (Answer
  // would have failed inside the initial search).
  RewriteOptions plan_options =
      PlanningOptions(policy, ctx.clock, ctx.deadline_ticks);
  report.plan_search_truncated = plans.truncated;
  report.plan_search = plans.search;
  if (policy.strict && plans.truncated) {
    return Status::ResourceExhausted(
        "plan search was truncated and strict mode forbids serving from a "
        "shortened plan list");
  }
  if (plans.empty()) {
    if (plans.truncated && QueryDeadlineExceeded(ctx)) {
      // The plan search itself was cut short by the request deadline: the
      // absence of plans is budget exhaustion, not "no plan exists" — fall
      // into §7 rather than report a (possibly wrong) NotFound, or, with
      // degradation disabled, fail fast with the honest status.
      if (ctx.degrade_on_deadline) {
        report.deadline_degraded = true;
        CountIf(ctx.metrics, "mediator.deadline_degraded");
        answer_span.Annotate("completeness", "deadline-degraded");
        return DegradedFallback(query, catalog, ctx, {}, std::move(report));
      }
      return Status::DeadlineExceeded(
          "request deadline expired during plan search");
    }
    return Status::NotFound(
        "no capability-conformant plan answers this query");
  }

  // Liveness is tracked per capability view — one wrapper endpoint each —
  // so replicated sources (two descriptions exporting equivalent views
  // over the same database) fail over independently. The report
  // aggregates dead views back to source names.
  std::set<std::string> dead;
  Status last_failure;
  std::optional<DegradedAnswer> answered;
  // Set when the request deadline expired mid-execution and
  // degrade_on_deadline routes the rest of the request into §7 instead of
  // erroring out.
  bool deadline_hit = false;
  // Failover loop: walk a cheapest-first plan list, skipping plans that
  // touch a view already declared dead. Returns non-OK only on hard
  // (non-failover) errors; "list exhausted" is OK with `answered` unset.
  auto try_plans = [&](const std::vector<MediatorPlan>& list) -> Status {
    for (const MediatorPlan& plan : list) {
      bool touches_dead = false;
      for (const std::string& view : plan.views_used) {
        if (dead.count(view) > 0) {
          touches_dead = true;
          break;
        }
      }
      if (touches_dead) {
        ++report.plans_skipped;
        CountIf(ctx.metrics, "mediator.plans_skipped");
        answer_span.Event(
            StrCat("plan ", plan.rewriting.name, " skipped: dead view"));
        continue;
      }
      if (QueryDeadlineExceeded(ctx)) {
        if (ctx.degrade_on_deadline) {
          deadline_hit = true;
          return Status::OK();  // stop attempting; degrade below
        }
        return Status::DeadlineExceeded(
            StrCat("request deadline (t=", ctx.deadline_ticks,
                   ") exceeded during plan failover"));
      }
      ++report.plans_attempted;
      CountIf(ctx.metrics, "mediator.plans_attempted");
      ScopedSpan attempt_span(ctx.tracer, "mediator.plan_attempt");
      attempt_span.Annotate("plan", plan.rewriting.name);
      attempt_span.Annotate("cost", static_cast<uint64_t>(plan.cost));
      std::string failed_view;
      Result<PlanExecution> run = RunPlan(plan, catalog, ctx, &failed_view);
      if (run.ok()) {
        attempt_span.Annotate("outcome", "ok");
        DegradedAnswer answer;
        answer.result = std::move(run->answer);
        answer.completeness = run->any_truncated ? Completeness::kPartial
                                                 : Completeness::kComplete;
        answered = std::move(answer);
        return Status::OK();
      }
      if (!failed_view.empty() && !QueryDeadlineExceeded(ctx)) {
        dead.insert(failed_view);
        last_failure = run.status();
        attempt_span.Annotate("outcome",
                              StrCat("failover: view ", failed_view, " dead"));
        CountIf(ctx.metrics, "mediator.failovers");
        continue;  // failover: try the next plan
      }
      if (QueryDeadlineExceeded(ctx) && ctx.degrade_on_deadline) {
        if (!failed_view.empty()) {
          dead.insert(failed_view);
          last_failure = run.status();
        }
        attempt_span.Annotate("outcome", "deadline");
        deadline_hit = true;
        return Status::OK();  // stop attempting; degrade below
      }
      attempt_span.Annotate("outcome",
                            StatusCodeToString(run.status().code()));
      return run.status();  // hard error, or the query budget is gone
    }
    return Status::OK();
  };

  TSLRW_RETURN_NOT_OK(try_plans(plans.plans));

  // The list is exhausted: re-plan over the live views only. With a
  // truncated first search this can surface plans never enumerated; it is
  // also the natural point to notice nothing total is left.
  if (!answered.has_value() && !deadline_hit && !dead.empty()) {
    std::vector<TslQuery> live_views;
    for (const SourceDescription& sd : sources_) {
      for (const Capability& cap : sd.capabilities) {
        if (dead.count(cap.view.name) == 0) live_views.push_back(cap.view);
      }
    }
    if (!live_views.empty()) {
      report.replanned = true;
      CountIf(ctx.metrics, "mediator.replans");
      ScopedSpan replan_span(ctx.tracer, "mediator.replan");
      replan_span.Annotate("live_views",
                           static_cast<uint64_t>(live_views.size()));
      TSLRW_ASSIGN_OR_RETURN(
          MediatorPlanSet replanned,
          PlanOverViews(query, live_views, plan_options));
      replan_span.Annotate("plans", static_cast<uint64_t>(replanned.size()));
      replan_span.EndNow();
      report.plan_search_truncated =
          report.plan_search_truncated || replanned.truncated;
      report.plan_search.Add(replanned.search);
      TSLRW_RETURN_NOT_OK(try_plans(replanned.plans));
    }
  }

  if (answered.has_value()) {
    report.failover = report.plans_attempted + report.plans_skipped > 1;
    report.completeness = answered->completeness;
    report.unreachable_sources = SourcesOfViews(dead);
    report.finished_at_ticks = EffectiveNow(ctx);
    answered->unreachable_sources = report.unreachable_sources;
    answer_span.Annotate("completeness",
                         CompletenessToString(answered->completeness));
    if (report.failover) {
      answer_span.Annotate("failover", "true");
      CountIf(ctx.metrics, "mediator.answers_with_failover");
    }
    CountIf(ctx.metrics,
            answered->completeness == Completeness::kComplete
                ? "mediator.answers_complete"
                : "mediator.answers_partial");
    answered->report = std::move(report);
    return std::move(*answered);
  }

  if (deadline_hit) {
    // Budget exhausted mid-request: whatever is still reachable within §7
    // becomes the answer (possibly empty), graded kDegraded — a resilient
    // server answers late-budget requests with less, not with an error.
    report.deadline_degraded = true;
    CountIf(ctx.metrics, "mediator.deadline_degraded");
    answer_span.Annotate("completeness", "deadline-degraded");
    return DegradedFallback(query, catalog, ctx, std::move(dead),
                            std::move(report));
  }
  if (!policy.allow_degraded) {
    answer_span.Annotate("completeness", "refused");
    CountIf(ctx.metrics, "mediator.answers_refused");
    return last_failure.ok()
               ? Status::Unavailable("every total plan touches a dead source")
               : last_failure;
  }
  answer_span.Annotate("completeness", "degraded-fallback");
  return DegradedFallback(query, catalog, ctx, std::move(dead),
                          std::move(report));
}

Result<DegradedAnswer> Mediator::DegradedFallback(
    const TslQuery& query, const SourceCatalog& catalog,
    const ExecContext& ctx, std::set<std::string> dead,
    ExecutionReport report) const {
  // \S7's escape hatch: no total plan survives, but the live views still
  // admit sound, maximally-contained answers — return their union instead
  // of nothing.
  ScopedSpan degraded_span(ctx.tracer, "mediator.degraded_fallback");
  CountIf(ctx.metrics, "mediator.degraded_fallbacks");
  std::vector<TslQuery> live_views;
  for (const SourceDescription& sd : sources_) {
    for (const Capability& cap : sd.capabilities) {
      if (dead.count(cap.view.name) == 0) live_views.push_back(cap.view);
    }
  }
  ContainedRewritingResult contained;
  if (!live_views.empty()) {
    RewriteOptions options;
    options.constraints = constraints_;
    options.require_total = true;  // only view conditions are executable
    if (ctx.deadline_ticks > 0) {
      const VirtualClock* clock = ctx.clock;
      const uint64_t deadline = ctx.deadline_ticks;
      options.should_stop = [clock, deadline] {
        return clock->now() >= deadline;
      };
    }
    TSLRW_ASSIGN_OR_RETURN(
        contained, FindMaximallyContainedRewriting(query, live_views,
                                                   options));
  }

  // Fetch each view the contained rules need, once; sources that die here
  // take their rules down with them (the union shrinks, soundness holds).
  std::set<std::string> needed;
  for (const TslQuery& rule : contained.rewriting.rules) {
    for (const Condition& c : rule.body) needed.insert(c.source);
  }
  SourceCatalog view_results;
  std::set<std::string> fetched;
  bool any_truncated = false;
  for (const std::string& view_name : needed) {
    const Capability* cap = FindCapability(view_name);
    if (cap == nullptr || dead.count(view_name) > 0) continue;
    Result<WrapperResult> result = FetchWithRetry(*cap, catalog, ctx);
    if (result.ok()) {
      any_truncated = any_truncated || !result->complete;
      view_results.Put(std::move(result->data));
      fetched.insert(view_name);
      continue;
    }
    if (IsRetryableFailure(result.status()) &&
        (!QueryDeadlineExceeded(ctx) || ctx.degrade_on_deadline)) {
      // An exhausted budget behaves like a dead endpoint here: the rules
      // needing this view drop out of the union and soundness holds. With
      // degrade_on_deadline off, a deadline failure still aborts.
      dead.insert(view_name);
      continue;
    }
    return result.status();
  }
  TslRuleSet live_rules;
  bool dropped_rules = false;
  for (const TslQuery& rule : contained.rewriting.rules) {
    bool live = true;
    for (const Condition& c : rule.body) {
      if (fetched.count(c.source) == 0) {
        live = false;
        break;
      }
    }
    if (live) {
      live_rules.rules.push_back(rule);
    } else {
      dropped_rules = true;
    }
  }

  OemDatabase result(ctx.answer_name);
  if (!live_rules.rules.empty()) {
    TSLRW_ASSIGN_OR_RETURN(result,
                           ExecuteRules(live_rules, view_results, ctx));
  }
  DegradedAnswer answer;
  answer.result = std::move(result);
  // The union can still be equivalent to the query (several contained
  // rules covering it together) — then nothing was actually lost.
  bool provably_complete = contained.equivalent && !dropped_rules &&
                           !any_truncated && !contained.truncated;
  answer.completeness = provably_complete ? Completeness::kComplete
                                          : Completeness::kDegraded;
  answer.unreachable_sources = SourcesOfViews(dead);
  report.completeness = answer.completeness;
  report.unreachable_sources = answer.unreachable_sources;
  report.finished_at_ticks = EffectiveNow(ctx);
  degraded_span.Annotate("contained_rules",
                         static_cast<uint64_t>(
                             contained.rewriting.rules.size()));
  degraded_span.Annotate("live_rules",
                         static_cast<uint64_t>(live_rules.rules.size()));
  degraded_span.Annotate("completeness",
                         CompletenessToString(answer.completeness));
  CountIf(ctx.metrics, answer.completeness == Completeness::kComplete
                           ? "mediator.answers_complete"
                           : "mediator.answers_degraded");
  answer.report = std::move(report);
  return answer;
}

}  // namespace tslrw
