#ifndef TSLRW_SERVICE_PLAN_CACHE_H_
#define TSLRW_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "mediator/mediator.h"
#include "service/canonical.h"
#include "service/stats.h"

namespace tslrw {

/// \brief A sharded, LRU cache of rewriting-plan lists keyed by canonical
/// query, with request coalescing (single flight).
///
/// The cached artifact is the MediatorPlanSet — the output of the
/// exponential \S5.1 plan search — not the materialized answer: answers
/// depend on source data and per-request fault luck, plans only on the
/// query and the capability views ("the rewriting algorithm only needs the
/// query and the cached query statements"). Entries are immutable
/// shared_ptrs, so a hit hands the caller a reference the cache can evict
/// under without invalidating.
///
/// Coalescing: concurrent lookups of the same key block on one in-flight
/// computation instead of N duplicate searches; at most one plan search per
/// distinct canonical query is ever running. A failed computation
/// propagates its Status to every coalesced waiter and caches nothing.
///
/// Thread safety: all public members may be called from any thread.
class PlanCache {
 public:
  struct Options {
    /// Total cached plan lists across all shards.
    size_t capacity = 256;
    /// Lock shards; 0 behaves as 1. Capacity is split evenly.
    size_t shards = 8;
  };

  using PlanSetPtr = std::shared_ptr<const MediatorPlanSet>;
  using ComputeFn = std::function<Result<MediatorPlanSet>()>;

  explicit PlanCache(const Options& options);

  /// Returns the cached plan list for \p key, or runs \p compute (once,
  /// however many callers race) and caches its result. \p compute runs
  /// without any cache lock held. The two-argument form computes under the
  /// cache's current generation; the serving layer passes its snapshot's
  /// generation explicitly so a request admitted against an old snapshot
  /// can neither insert a stale plan set after a swap nor coalesce onto a
  /// search that was started against a different snapshot (a stale
  /// in-flight computation is detached — it still serves its own waiters —
  /// and a fresh one is started).
  Result<PlanSetPtr> LookupOrCompute(const PlanCacheKey& key,
                                     const ComputeFn& compute);
  Result<PlanSetPtr> LookupOrCompute(const PlanCacheKey& key,
                                     uint64_t generation,
                                     const ComputeFn& compute);

  /// Drops the entry for \p key, if cached. The serving layer uses this
  /// when a cold search came back truncated because the *requesting*
  /// query's deadline expired mid-search: such a shortened plan list must
  /// not be served to later, better-funded requests.
  void Invalidate(const PlanCacheKey& key);

  /// Drops every cached entry (in-flight computations finish and insert
  /// normally). Counters and the generation are preserved.
  void Clear();

  /// Runs \p pred over every cached entry (under the owning shard's lock)
  /// and drops the entries it returns true for; returns how many were
  /// dropped. Counters survive. \p pred must not call back into the cache.
  size_t InvalidateMatching(
      const std::function<bool(const std::string& key,
                               const MediatorPlanSet& plans)>& pred);

  /// Starts a new entry generation and returns it. Computations begun
  /// under an earlier generation still finish and answer their waiters,
  /// but no longer insert into the LRU, and later lookups no longer
  /// coalesce onto them — the fence that makes same-cache-object snapshot
  /// swaps safe (docs/SERVING.md "Incremental maintenance").
  uint64_t BeginGeneration();

  /// The current generation (monotone; starts at 0).
  uint64_t generation() const { return generation_.load(); }

  /// Full flush that keeps the counters: BeginGeneration + Clear. The fix
  /// for the Statsz-monotonicity bug where invalidation rebuilt the cache
  /// object and zeroed per-shard hit/miss/coalesced counts.
  void Flush();

  PlanCacheStats stats() const;

  /// Per-lock-shard counters, index = shard (fingerprint % shards).
  /// QueryServer::Statsz prints these; the aggregate stats() is their
  /// sum. The in-flight gauges are cache-global and reported only by
  /// stats().
  std::vector<PlanCacheStats> ShardStats() const;

  size_t size() const;

 private:
  /// One single-flight rendezvous: the owner computes, waiters block on
  /// done_cv and read status/plans.
  struct InFlight {
    std::mutex mu;
    std::condition_variable done_cv;
    bool done = false;
    Status status;
    PlanSetPtr plans;
    /// The generation the owning computation was admitted under; set once
    /// before the flight is published, read under the shard lock.
    uint64_t generation = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used; `index` points into this list.
    std::list<std::pair<std::string, PlanSetPtr>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, PlanSetPtr>>::iterator>
        index;
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t coalesced = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return shards_[fingerprint % shards_.size()];
  }

  const size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> inflight_now_{0};
  std::atomic<uint64_t> inflight_peak_{0};
  std::atomic<uint64_t> generation_{0};
};

}  // namespace tslrw

#endif  // TSLRW_SERVICE_PLAN_CACHE_H_
