#include "service/server.h"

#include <utility>

#include "catalog/diff.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tslrw {

std::string MaintenanceReport::ToString() const {
  if (full_flush) {
    return StrCat("full flush (", flush_reason, "), ", entries_invalidated,
                  " entries dropped");
  }
  if (noop) {
    return StrCat("no-op (identical catalogs), ", entries_retained,
                  " entries kept");
  }
  return StrCat("selective: ", delta_summary, "; invalidated ",
                entries_invalidated, "/", entries_examined, ", retained ",
                entries_retained);
}

namespace {

/// Owns the CatalogWrapper + FaultInjector pair for one request.
class FaultInjectingWrapper : public Wrapper {
 public:
  FaultInjectingWrapper(uint64_t seed, VirtualClock* clock,
                        const std::map<std::string, FaultSchedule>& schedules)
      : injector_(&base_, seed, clock) {
    for (const auto& [key, schedule] : schedules) {
      injector_.SetSchedule(key, schedule);
    }
  }

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    return injector_.Fetch(capability, catalog);
  }

 private:
  CatalogWrapper base_;
  FaultInjector injector_;
};

}  // namespace

WrapperFactory MakeFaultInjectingWrapperFactory(
    std::map<std::string, FaultSchedule> schedules) {
  auto shared = std::make_shared<const std::map<std::string, FaultSchedule>>(
      std::move(schedules));
  return [shared](VirtualClock* clock,
                  uint64_t seed) -> std::unique_ptr<Wrapper> {
    return std::make_unique<FaultInjectingWrapper>(seed, clock, *shared);
  };
}

QueryServer::QueryServer(Mediator mediator, SourceCatalog catalog,
                         ServerOptions options,
                         WrapperFactory wrapper_factory)
    : options_(std::move(options)),
      wrapper_factory_(std::move(wrapper_factory)),
      resilience_(options_.resilience),
      pool_(ThreadPool::Options{options_.threads, options_.queue_capacity,
                                /*lazy_spawn=*/false, options_.metrics}) {
  auto first = std::make_shared<Snapshot>();
  first->mediator = std::make_shared<const Mediator>(std::move(mediator));
  first->catalog = std::make_shared<const SourceCatalog>(std::move(catalog));
  first->plan_cache = std::make_shared<PlanCache>(CacheOptions());
  snapshot_ = std::move(first);
}

QueryServer::~QueryServer() { Shutdown(); }

PlanCache::Options QueryServer::CacheOptions() const {
  PlanCache::Options cache;
  cache.capacity = options_.plan_cache_capacity;
  cache.shards = options_.plan_cache_shards;
  return cache;
}

std::shared_ptr<const QueryServer::Snapshot> QueryServer::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void QueryServer::Publish(std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

Result<std::future<Result<ServeResponse>>> QueryServer::Submit(
    TslQuery query, ServeOptions serve) {
  auto task = std::make_shared<std::packaged_task<Result<ServeResponse>()>>(
      [this, query = std::move(query), serve] {
        return Answer(query, serve);
      });
  std::future<Result<ServeResponse>> future = task->get_future();
  Status admitted = pool_.TrySubmit([task] { (*task)(); });
  if (!admitted.ok()) {
    rejected_.fetch_add(1);
    CountIf(options_.metrics, "serve.rejected");
    return admitted;
  }
  accepted_.fetch_add(1);
  CountIf(options_.metrics, "serve.accepted");
  return future;
}

Result<ServeResponse> QueryServer::Answer(const TslQuery& query,
                                          const ServeOptions& serve) const {
  // Snapshot isolation: everything this request reads is resolved here,
  // once; concurrent mutations publish new snapshots without touching it.
  const std::shared_ptr<const Snapshot> snap = snapshot();

  // Per-request execution state: its own clock and wrapper, so requests
  // never share mutable fault/retry machinery and every answer is a pure
  // function of (query, seed, snapshot). The clock is declared before the
  // request span so every span closes while it is still alive.
  VirtualClock clock;
  if (serve.tracer != nullptr) serve.tracer->set_clock(&clock);
  ScopedSpan request_span(serve.tracer, "serve.request");
  CountIf(options_.metrics, "serve.requests");
  // End-to-end deadline, stamped at admission on this request's clock:
  // every stage below — the cold plan search included — draws from the one
  // budget.
  const uint64_t deadline_budget = serve.deadline_ticks != 0
                                       ? serve.deadline_ticks
                                       : options_.request_deadline_ticks;
  const uint64_t admission_deadline =
      AbsoluteDeadlineTicks(clock.now(), deadline_budget);
  PlanCacheKey key = MakePlanCacheKey(query);
  bool computed_here = false;
  // The snapshot's generation rides along so a search admitted against a
  // retired snapshot can neither publish stale plans after a swap nor
  // capture coalescing traffic from the new snapshot.
  Result<PlanCache::PlanSetPtr> plans = snap->plan_cache->LookupOrCompute(
      key, snap->plan_generation,
      [this, &snap, &key, &computed_here, &serve, &clock,
       admission_deadline]() -> Result<MediatorPlanSet> {
        computed_here = true;
        return snap->mediator->Plan(key.canonical,
                                    options_.rewrite_parallelism,
                                    serve.tracer, options_.metrics, &clock,
                                    admission_deadline);
      });
  if (computed_here && admission_deadline > 0 && plans.ok() &&
      (*plans)->truncated && clock.now() >= admission_deadline) {
    // This request's budget cut the search short; the shortened plan list
    // is fine for *this* answer (§7 degrades if needed) but must not be
    // served to later, better-funded requests.
    snap->plan_cache->Invalidate(key);
    CountIf(options_.metrics, "serve.plan_cache_deadline_invalidations");
  }
  if (!plans.ok()) {
    failed_.fetch_add(1);
    CountIf(options_.metrics, "serve.failed");
    request_span.Annotate("outcome", "plan-search-error");
    return plans.status();
  }
  request_span.Annotate("plan_cache",
                        computed_here ? "miss" : "hit");
  CountIf(options_.metrics,
          computed_here ? "serve.plan_cache_misses" : "serve.plan_cache_hits");

  std::unique_ptr<Wrapper> wrapper;
  ExecutionPolicy policy;
  policy.retry = options_.retry;
  policy.allow_degraded = options_.allow_degraded;
  policy.strict = options_.strict;
  policy.rewrite_parallelism = options_.rewrite_parallelism;
  policy.seed = serve.seed;
  policy.clock = &clock;
  policy.tracer = serve.tracer;
  policy.metrics = options_.metrics;
  policy.resilience = &resilience_;
  policy.admission_deadline_ticks = admission_deadline;
  if (wrapper_factory_ != nullptr) {
    wrapper = wrapper_factory_(&clock, serve.seed);
    policy.wrapper = wrapper.get();
  }
  Result<DegradedAnswer> answer =
      snap->mediator->AnswerWithPlans(query, **plans, *snap->catalog, policy);
  if (!answer.ok()) {
    failed_.fetch_add(1);
    CountIf(options_.metrics, "serve.failed");
    request_span.Annotate("outcome",
                          StatusCodeToString(answer.status().code()));
    return answer.status();
  }
  completed_.fetch_add(1);
  CountIf(options_.metrics, "serve.completed");
  request_span.Annotate("outcome",
                        CompletenessToString(answer->completeness));
  ServeResponse response;
  response.answer = std::move(answer).value();
  response.plan_cache_hit = !computed_here;
  response.plan_search = (*plans)->search;
  response.plans = *plans;
  return response;
}

void QueryServer::UpdateCatalog(OemDatabase db) {
  std::lock_guard<std::mutex> writer(mutate_mu_);
  const std::shared_ptr<const Snapshot> current = snapshot();
  auto catalog = std::make_shared<SourceCatalog>(*current->catalog);
  catalog->Put(std::move(db));
  auto next = std::make_shared<Snapshot>(*current);
  next->catalog = std::move(catalog);
  Publish(std::move(next));
  catalog_swaps_.fetch_add(1);
}

void QueryServer::ReplaceCatalog(SourceCatalog catalog) {
  std::lock_guard<std::mutex> writer(mutate_mu_);
  const std::shared_ptr<const Snapshot> current = snapshot();
  auto next = std::make_shared<Snapshot>(*current);
  next->catalog = std::make_shared<const SourceCatalog>(std::move(catalog));
  Publish(std::move(next));
  catalog_swaps_.fetch_add(1);
}

MaintenanceReport QueryServer::ReplaceMediator(Mediator mediator) {
  std::lock_guard<std::mutex> writer(mutate_mu_);
  const std::shared_ptr<const Snapshot> current = snapshot();
  const CatalogDelta delta = ComputeCatalogDelta(
      current->mediator->sources(), current->mediator->constraints(),
      mediator.sources(), mediator.constraints());
  MaintenanceReport report;
  report.delta_summary = delta.ToString();
  ScopedSpan maint_span(options_.maintenance_tracer, "maint.invalidate");
  maint_span.Annotate("delta", report.delta_summary);

  auto next = std::make_shared<Snapshot>();
  next->mediator = std::make_shared<const Mediator>(std::move(mediator));
  next->catalog = current->catalog;
  // The cache object survives the swap — entries the delta cannot affect
  // keep serving, and the hit/miss counters stay monotone. Stale inserts
  // and stale coalescing are fenced by the generation carried on the
  // snapshot (plan_cache.h).
  next->plan_cache = current->plan_cache;
  PlanCache& cache = *next->plan_cache;
  report.entries_examined = cache.size();

  const InvalidationDecider decider(delta, next->mediator->sources(),
                                    next->mediator->constraints());
  if (options_.maintenance == MaintenanceMode::kFullFlush ||
      decider.full_flush()) {
    report.full_flush = true;
    report.flush_reason = options_.maintenance == MaintenanceMode::kFullFlush
                              ? "full-flush maintenance mode"
                              : decider.flush_reason();
    report.entries_invalidated = report.entries_examined;
    cache.Flush();
    maint_full_flushes_.fetch_add(1);
    CountIf(options_.metrics, "maint.full_flushes");
  } else if (decider.no_op()) {
    // Identical catalogs: every entry (and every in-flight search) is
    // exact as-is; do not even start a new generation.
    report.noop = true;
    report.entries_retained = report.entries_examined;
    maint_noop_applies_.fetch_add(1);
    CountIf(options_.metrics, "maint.noop_applies");
  } else {
    cache.BeginGeneration();
    report.entries_invalidated = cache.InvalidateMatching(
        [&decider](const std::string&, const MediatorPlanSet& plans) {
          return decider.ShouldInvalidate(plans.footprint);
        });
    report.entries_retained =
        report.entries_examined - report.entries_invalidated;
    maint_selective_applies_.fetch_add(1);
    CountIf(options_.metrics, "maint.selective_applies");
  }
  maint_entries_examined_.fetch_add(report.entries_examined);
  maint_entries_invalidated_.fetch_add(report.entries_invalidated);
  maint_entries_retained_.fetch_add(report.entries_retained);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("maint.entries_examined")
        ->Increment(report.entries_examined);
    options_.metrics->GetCounter("maint.entries_invalidated")
        ->Increment(report.entries_invalidated);
    options_.metrics->GetCounter("maint.entries_retained")
        ->Increment(report.entries_retained);
  }
  maint_span.Annotate("mode", report.full_flush
                                  ? "full-flush"
                                  : (report.noop ? "noop" : "selective"));
  maint_span.Annotate("examined",
                      static_cast<uint64_t>(report.entries_examined));
  maint_span.Annotate("invalidated",
                      static_cast<uint64_t>(report.entries_invalidated));
  maint_span.Annotate("retained",
                      static_cast<uint64_t>(report.entries_retained));

  next->plan_generation = cache.generation();
  Publish(std::move(next));
  mediator_swaps_.fetch_add(1);
  return report;
}

void QueryServer::InvalidatePlans() {
  std::lock_guard<std::mutex> writer(mutate_mu_);
  const std::shared_ptr<const Snapshot> current = snapshot();
  // Flush in place: the cache object (and its hit/miss/coalesced counters)
  // survives, so Statsz deltas across an invalidation stay monotone. The
  // old code rebuilt the PlanCache here and silently zeroed them.
  current->plan_cache->Flush();
  auto next = std::make_shared<Snapshot>(*current);
  next->plan_generation = current->plan_cache->generation();
  Publish(std::move(next));
}

ServerStats QueryServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load();
  stats.rejected = rejected_.load();
  stats.completed = completed_.load();
  stats.failed = failed_.load();
  stats.catalog_swaps = catalog_swaps_.load();
  stats.mediator_swaps = mediator_swaps_.load();
  stats.maintenance.selective_applies = maint_selective_applies_.load();
  stats.maintenance.full_flushes = maint_full_flushes_.load();
  stats.maintenance.noop_applies = maint_noop_applies_.load();
  stats.maintenance.entries_examined = maint_entries_examined_.load();
  stats.maintenance.entries_invalidated = maint_entries_invalidated_.load();
  stats.maintenance.entries_retained = maint_entries_retained_.load();
  stats.threads = pool_.threads();
  stats.queue_depth = pool_.queue_depth();
  stats.queue_capacity = pool_.queue_capacity();
  const std::shared_ptr<const Snapshot> snap = snapshot();
  stats.plan_cache = snap->plan_cache->stats();
  stats.plan_cache_shards = snap->plan_cache->ShardStats();
  stats.retry_after_queued = stats.queue_depth;
  stats.breakers = resilience_.Snapshot();
  return stats;
}

std::string QueryServer::Statsz() const {
  std::string out = stats().ToString();
  if (options_.metrics != nullptr) {
    out += "metrics:\n";
    out += options_.metrics->ToText();
  }
  return out;
}

void QueryServer::Shutdown() { pool_.Shutdown(); }

}  // namespace tslrw
