#ifndef TSLRW_SERVICE_SERVER_H_
#define TSLRW_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "maint/invalidate.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "mediator/retry.h"
#include "mediator/wrapper.h"
#include "oem/database.h"
#include "service/canonical.h"
#include "service/plan_cache.h"
#include "service/stats.h"
#include "runtime/thread_pool.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief How a mediator swap treats the plan cache (docs/SERVING.md
/// "Incremental maintenance").
enum class MaintenanceMode : uint8_t {
  /// Diff old vs new catalog (catalog/diff.h) and invalidate only the
  /// cached plan sets whose dependency footprint the delta can affect;
  /// everything else survives the swap verbatim. Differentially tested
  /// byte-identical to kFullFlush (src/testing/maint_differential.h).
  kSelective,
  /// The pre-maintenance behavior: every swap flushes the whole cache.
  kFullFlush,
};

/// \brief What one maintenance pass (mediator swap or InvalidatePlans) did
/// to the plan cache; returned by ReplaceMediator for operator surfacing.
struct MaintenanceReport {
  bool full_flush = false;
  bool noop = false;  ///< the delta was empty; nothing was touched
  std::string flush_reason;  ///< why a selective pass fell back to a flush
  std::string delta_summary;  ///< CatalogDelta::ToString()
  size_t entries_examined = 0;
  size_t entries_invalidated = 0;
  size_t entries_retained = 0;

  /// e.g. `selective: +0 -0 ~1 views, constraints unchanged; invalidated
  /// 3/128, retained 125` or `full flush (constraints changed), 128
  /// entries dropped`.
  std::string ToString() const;
};

/// \brief Serving-layer knobs. The defaults suit a small interactive
/// deployment; the load driver and benchmarks sweep them.
struct ServerOptions {
  /// Worker threads executing requests.
  size_t threads = 4;
  /// Bounded request queue; a full queue rejects with kResourceExhausted
  /// (admission control), so overload degrades instead of OOMing.
  size_t queue_capacity = 128;
  size_t plan_cache_capacity = 256;
  size_t plan_cache_shards = 8;
  /// Execution knobs applied to every request. Per-request wrapper and
  /// clock are built by the server (see WrapperFactory); seed comes from
  /// ServeOptions.
  RetryPolicy retry;
  bool allow_degraded = true;
  bool strict = false;
  /// Verification workers inside each cold plan search and each failover
  /// re-plan (RewriteOptions::parallelism semantics: 1, the default, =
  /// inline on the request thread, 0 = hardware concurrency). Cached plans
  /// are byte-identical for every value, so this only changes cold-miss
  /// latency.
  size_t rewrite_parallelism = 1;
  /// Optional server-wide metric sink (not owned; must outlive the
  /// server): thread-pool admission, per-request outcomes, plan-cache
  /// hits/misses, and every mediator/rewriter counter of the requests.
  /// Counters are lock-free and shared across request threads — reads are
  /// monotonic per counter. Null disables metrics.
  MetricRegistry* metrics = nullptr;
  /// Circuit-breaker and hedged-fetch policy (both off by default). The
  /// server owns one ResilienceRegistry built from this, shared by every
  /// request and surviving snapshot swaps — endpoint history is about the
  /// endpoints, not about any one catalog version.
  ResiliencePolicy resilience;
  /// Default end-to-end tick budget stamped on every request at admission
  /// (0 = unlimited): plan search, fetches, retry backoff, and hedges all
  /// draw from it, and an exhausted budget degrades the answer per §7
  /// instead of erroring. ServeOptions::deadline_ticks overrides per
  /// request.
  uint64_t request_deadline_ticks = 0;
  /// Plan-cache treatment on mediator swaps (see MaintenanceMode).
  MaintenanceMode maintenance = MaintenanceMode::kSelective;
  /// Optional span sink for maintenance passes (not owned): each
  /// ReplaceMediator opens a `maint.invalidate` span annotated with the
  /// delta and the examined/invalidated/retained counts. Null disables.
  Tracer* maintenance_tracer = nullptr;
};

/// \brief Per-request knobs.
struct ServeOptions {
  /// Seed for the request's DeterministicRng and wrapper factory: the same
  /// (query, seed, snapshot) always reproduces the same answer, however
  /// many requests run concurrently.
  uint64_t seed = 0;
  /// Optional per-request span tree (not owned). Each request drives its
  /// own tracer on its own virtual clock, so the span *content* for a
  /// (query, seed, snapshot) triple is deterministic regardless of which
  /// worker thread serves it; only cache-hit attribution can differ when
  /// requests race a cold plan search. Null disables tracing.
  Tracer* tracer = nullptr;
  /// Per-request end-to-end tick budget; 0 = use
  /// ServerOptions::request_deadline_ticks.
  uint64_t deadline_ticks = 0;
};

/// \brief One served answer plus serving-layer metadata.
struct ServeResponse {
  DegradedAnswer answer;
  /// The rewriting-plan list came from the cache (hit or coalesced wait)
  /// rather than a fresh plan search.
  bool plan_cache_hit = false;
  /// Rewrite-search counters for the plan list this answer used. On a cold
  /// miss these describe the search this request just paid for; on a hit
  /// they replay the original search's numbers (the cache stores them with
  /// the plans), attributing the saved work.
  PlanSearchStats plan_search;
  /// The immutable plan list the answer executed (shared with the cache).
  /// The differential maintenance harness compares these across the
  /// selective and full-flush arms; plan_search/plan_cache_hit only tell
  /// half the story.
  std::shared_ptr<const MediatorPlanSet> plans;
};

/// \brief Builds the per-request Wrapper (and may capture the per-request
/// VirtualClock, e.g. for slow-source faults). Called once per request from
/// a worker thread; each returned wrapper is used by exactly one request,
/// so implementations need no internal synchronization. Null factory =>
/// the built-in CatalogWrapper.
using WrapperFactory =
    std::function<std::unique_ptr<Wrapper>(VirtualClock* clock,
                                           uint64_t seed)>;

/// \brief The standard faulty-catalog factory: each request gets a fresh
/// CatalogWrapper decorated by a FaultInjector running \p schedules (keys
/// are source or capability-view names, as in FaultInjector::SetSchedule).
/// Fresh injector + seeded RNG per request means every serving replays
/// deterministically from (query, seed, snapshot). The shell, the load
/// driver, and the benchmarks all build their fault setups through this.
WrapperFactory MakeFaultInjectingWrapperFactory(
    std::map<std::string, FaultSchedule> schedules);

/// \brief A thread-safe serving layer in front of the mediator (the
/// "stream of client queries" deployment of \S1 Fig. 2): a fixed thread
/// pool with admission control, a sharded single-flight plan cache keyed by
/// canonical query, and snapshot isolation for catalog/mediator mutations.
///
/// Concurrency model (details in docs/SERVING.md):
///  - Requests run on the pool; each takes an immutable Snapshot
///    (mediator + catalog + plan-cache generation) at start and never sees
///    a mutation mid-flight.
///  - Mutations (UpdateCatalog, ReplaceMediator) build a new Snapshot and
///    publish it with a shared_ptr swap; writers are serialized, readers
///    never block writers beyond the pointer swap.
///  - The plan cache is generation-scoped: catalog data changes keep it
///    (plans depend only on views), capability changes start a fresh one.
class QueryServer {
 public:
  /// \param mediator the planning/execution core (Mediator::Make result).
  /// \param catalog initial source data; snapshot-swapped by UpdateCatalog.
  QueryServer(Mediator mediator, SourceCatalog catalog,
              ServerOptions options = {},
              WrapperFactory wrapper_factory = nullptr);
  /// Drains admitted requests, then joins the workers.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Admits \p query to the pool. Fails fast with kResourceExhausted (plus
  /// a retry-after hint) when the queue is full; on success the future
  /// resolves to the request's outcome.
  Result<std::future<Result<ServeResponse>>> Submit(TslQuery query,
                                                    ServeOptions serve = {});

  /// The synchronous request path (what workers run): canonicalize, fetch
  /// or compute the plan list through the single-flight cache, execute via
  /// Mediator::AnswerWithPlans on this request's snapshot. Safe to call
  /// from any thread, including alongside Submit traffic.
  Result<ServeResponse> Answer(const TslQuery& query,
                               const ServeOptions& serve = {}) const;

  /// Adds or replaces one source database: copy-on-write on the catalog,
  /// then a snapshot swap. In-flight requests keep the old snapshot; the
  /// plan cache survives (plans do not depend on source data).
  void UpdateCatalog(OemDatabase db);

  /// Replaces the whole catalog (same swap discipline as UpdateCatalog).
  void ReplaceCatalog(SourceCatalog catalog);

  /// Replaces the mediator (new capability views): snapshot swap plus plan
  /// -cache maintenance per ServerOptions::maintenance — selective
  /// invalidation of only the entries the old-vs-new catalog delta can
  /// affect (the cache object, its counters, and every retained entry
  /// survive), or a full flush. The new mediator plans through the view
  /// index it built at Make. Returns what happened to the cache.
  MaintenanceReport ReplaceMediator(Mediator mediator);

  /// Starts a fresh plan-cache generation for the current mediator and
  /// drops every entry. Benchmarks use this for cold-cache runs. The cache
  /// object and its hit/miss/coalesced counters survive, so Statsz deltas
  /// across an invalidation stay monotone.
  void InvalidatePlans();

  ServerStats stats() const;

  /// The shared cross-request resilience state (breaker states, hedge
  /// latency windows). The chaos harness asserts recovery through it;
  /// `Reset()` re-closes every breaker.
  ResilienceRegistry& resilience() { return resilience_; }
  const ResilienceRegistry& resilience() const { return resilience_; }

  /// A `/statsz`-style plain-text dump: the ServerStats snapshot followed
  /// by every metric in ServerOptions::metrics (sorted by name). The load
  /// driver and the shell's `stats` command print this verbatim.
  std::string Statsz() const;

  /// Stops admitting, drains the queue, joins the workers. Idempotent.
  void Shutdown();

 private:
  /// What one request executes against, immutable once published.
  struct Snapshot {
    std::shared_ptr<const Mediator> mediator;
    std::shared_ptr<const SourceCatalog> catalog;
    /// Shared (not const): the cache synchronizes internally and is the
    /// one deliberately concurrent-mutable piece of a snapshot.
    std::shared_ptr<PlanCache> plan_cache;
    /// The plan-cache generation this snapshot's searches are admitted
    /// under. A search begun against a retired snapshot carries a stale
    /// generation, so the cache rejects its insert and refuses to coalesce
    /// new-snapshot requests onto it (plan_cache.h).
    uint64_t plan_generation = 0;
  };

  std::shared_ptr<const Snapshot> snapshot() const;
  void Publish(std::shared_ptr<const Snapshot> next);
  PlanCache::Options CacheOptions() const;

  ServerOptions options_;
  WrapperFactory wrapper_factory_;
  /// Cross-request breaker/hedge state; mutable because serving a request
  /// (const Answer) legitimately evolves endpoint history.
  mutable ResilienceRegistry resilience_;

  mutable std::mutex snapshot_mu_;  ///< guards the snapshot_ pointer only
  std::shared_ptr<const Snapshot> snapshot_;
  std::mutex mutate_mu_;  ///< serializes snapshot builders (writers)

  mutable std::atomic<uint64_t> accepted_{0};
  mutable std::atomic<uint64_t> rejected_{0};
  mutable std::atomic<uint64_t> completed_{0};
  mutable std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> catalog_swaps_{0};
  std::atomic<uint64_t> mediator_swaps_{0};
  std::atomic<uint64_t> maint_selective_applies_{0};
  std::atomic<uint64_t> maint_full_flushes_{0};
  std::atomic<uint64_t> maint_noop_applies_{0};
  std::atomic<uint64_t> maint_entries_examined_{0};
  std::atomic<uint64_t> maint_entries_invalidated_{0};
  std::atomic<uint64_t> maint_entries_retained_{0};

  /// Last member: destroyed (and therefore drained+joined) first, while
  /// the snapshot and counters its tasks use are still alive.
  ThreadPool pool_;
};

}  // namespace tslrw

#endif  // TSLRW_SERVICE_SERVER_H_
