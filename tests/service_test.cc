#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fixtures.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "service/canonical.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "runtime/thread_pool.h"
#include "tsl/canonical.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

// --- fixtures (the bibliographic mediator of mediator_test) -----------------

SourceCatalog BiblioCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database s1 {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Constraints"> <v2 venue "VLDB"> <y2 year "1997">
      }>
      <a3 publication {
        <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1993">
      }>
    })"));
  catalog.Put(MustParseDb(R"(
    database s2 {
      <b1 publication {
        <u1 title "Wrappers"> <w1 venue "SIGMOD"> <x1 year "1997">
      }>
      <b2 publication {
        <u2 title "Warehouses"> <w2 venue "SIGMOD"> <x2 year "1996">
      }>
    })"));
  return catalog;
}

Mediator MakeBiblioMediator() {
  Capability y97;
  y97.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  Capability dump;
  dump.view = MustParse(
      "<dump(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "Dump2");
  auto mediator = Mediator::Make(
      {SourceDescription{"s1", {y97}}, SourceDescription{"s2", {dump}}});
  EXPECT_TRUE(mediator.ok()) << mediator.status();
  return std::move(mediator).ValueOrDie();
}

TslQuery Sigmod97Query() {
  return MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod97");
}

/// α-equivalent rendering of Sigmod97Query: variables renamed, conditions
/// reordered. Same name, so even the answer-database name matches.
TslQuery Sigmod97QueryRenamed() {
  return MustParse(
      "<f(Pub) sigmod97 yes> :- "
      "<Pub publication {<Ven venue \"SIGMOD\">}>@s1 AND "
      "<Pub publication {<Yr year \"1997\">}>@s1",
      "Sigmod97");
}

TslQuery DumpQuery() {
  return MustParse(
      "<f(P) all97 yes> :- <P publication {<U year \"1997\">}>@s2", "All97");
}

MediatorPlanSet TrivialPlans(const std::string& view) {
  MediatorPlanSet set;
  MediatorPlan plan;
  plan.views_used = {view};
  plan.cost = 1;
  set.plans.push_back(std::move(plan));
  return set;
}

PlanCacheKey KeyFor(std::string_view text) {
  return MakePlanCacheKey(MustParse(text));
}

ServerOptions SmallServer(size_t threads, size_t queue_capacity) {
  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = queue_capacity;
  return options;
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryAdmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(ThreadPool::Options{4, 64});
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }).ok());
    }
  }  // destructor drains and joins
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, RejectsWithResourceExhaustedWhenQueueIsFull) {
  ThreadPool pool(ThreadPool::Options{1, 1});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  // Occupy the single worker...
  ASSERT_TRUE(pool.TrySubmit([&entered, release_future] {
                    entered.set_value();
                    release_future.wait();
                  })
                  .ok());
  entered.get_future().wait();  // the blocker is running, not queued
  // ...fill the queue...
  std::atomic<bool> queued_ran{false};
  ASSERT_TRUE(
      pool.TrySubmit([&queued_ran] { queued_ran.store(true); }).ok());
  // ...and the next submission is pushed back, not buffered.
  Status rejected = pool.TrySubmit([] {});
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted) << rejected;
  EXPECT_NE(rejected.message().find("retry"), std::string::npos) << rejected;

  release.set_value();
  pool.Shutdown();
  EXPECT_TRUE(queued_ran.load());  // admitted before shutdown => ran
}

TEST(ThreadPoolTest, RejectsWithUnavailableAfterShutdown) {
  ThreadPool pool(ThreadPool::Options{1, 4});
  pool.Shutdown();
  Status late = pool.TrySubmit([] {});
  EXPECT_EQ(late.code(), StatusCode::kUnavailable) << late;
}

// --- plan cache -------------------------------------------------------------

TEST(PlanCacheTest, CountsHitsMissesAndEvictions) {
  PlanCache::Options options;
  options.capacity = 2;
  options.shards = 1;  // one shard so the eviction order is exact
  PlanCache cache(options);

  PlanCacheKey k1 = KeyFor("<f(P) a yes> :- <P p {<X l v1>}>@db");
  PlanCacheKey k2 = KeyFor("<f(P) a yes> :- <P p {<X l v2>}>@db");
  PlanCacheKey k3 = KeyFor("<f(P) a yes> :- <P p {<X l v3>}>@db");
  auto compute = [] { return Result<MediatorPlanSet>(TrivialPlans("V")); };

  ASSERT_TRUE(cache.LookupOrCompute(k1, compute).ok());  // miss
  ASSERT_TRUE(cache.LookupOrCompute(k1, compute).ok());  // hit
  ASSERT_TRUE(cache.LookupOrCompute(k2, compute).ok());  // miss
  ASSERT_TRUE(cache.LookupOrCompute(k3, compute).ok());  // miss, evicts k1
  ASSERT_TRUE(cache.LookupOrCompute(k1, compute).ok());  // miss again

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, AlphaEquivalentQueriesShareOneEntry) {
  PlanCache cache(PlanCache::Options{});
  int runs = 0;
  auto compute = [&runs] {
    ++runs;
    return Result<MediatorPlanSet>(TrivialPlans("V"));
  };
  ASSERT_TRUE(
      cache.LookupOrCompute(KeyFor("<f(P) a Z> :- <P p {<X l Z>}>@db"),
                            compute)
          .ok());
  ASSERT_TRUE(
      cache.LookupOrCompute(KeyFor("<f(Q) a W> :- <Q p {<Y l W>}>@db"),
                            compute)
          .ok());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, FailedComputationsPropagateAndAreNotCached) {
  PlanCache cache(PlanCache::Options{});
  PlanCacheKey key = KeyFor("<f(P) a yes> :- <P p {<X l v>}>@db");
  auto fail = [] {
    return Result<MediatorPlanSet>(Status::Unavailable("planner down"));
  };
  auto first = cache.LookupOrCompute(key, fail);
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  // The failure was not cached: the next lookup computes again.
  int runs = 0;
  auto succeed = [&runs] {
    ++runs;
    return Result<MediatorPlanSet>(TrivialPlans("V"));
  };
  ASSERT_TRUE(cache.LookupOrCompute(key, succeed).ok());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, ConcurrentLookupsCoalesceIntoOneComputation) {
  PlanCache cache(PlanCache::Options{});
  PlanCacheKey key = KeyFor("<f(P) a yes> :- <P p {<X l v>}>@db");

  constexpr int kWaiters = 6;
  std::promise<void> compute_entered;
  std::promise<void> compute_release;
  std::shared_future<void> release = compute_release.get_future().share();
  std::atomic<int> compute_runs{0};
  auto blocking_compute = [&] {
    compute_runs.fetch_add(1);
    compute_entered.set_value();
    release.wait();
    return Result<MediatorPlanSet>(TrivialPlans("V"));
  };

  std::thread owner([&] {
    auto result = cache.LookupOrCompute(key, blocking_compute);
    EXPECT_TRUE(result.ok());
  });
  compute_entered.get_future().wait();  // the flight is registered

  std::vector<std::thread> waiters;
  auto never_runs = [&] {
    ADD_FAILURE() << "coalesced waiter recomputed the plans";
    return Result<MediatorPlanSet>(TrivialPlans("V"));
  };
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      auto result = cache.LookupOrCompute(key, never_runs);
      EXPECT_TRUE(result.ok());
    });
  }
  // Wait until every waiter has latched onto the in-flight computation;
  // `coalesced` is incremented under the shard lock before blocking.
  while (cache.stats().coalesced < static_cast<uint64_t>(kWaiters)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  compute_release.set_value();
  owner.join();
  for (std::thread& t : waiters) t.join();

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(compute_runs.load(), 1);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.inflight_peak, 1u);
  EXPECT_EQ(stats.inflight_now, 0u);
}

// --- query server: correctness ----------------------------------------------

TEST(QueryServerTest, AnswersMatchTheDirectMediator) {
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = Sigmod97Query();

  auto direct = mediator.Answer(query, catalog);
  ASSERT_TRUE(direct.ok()) << direct.status();

  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  auto served = server.Answer(query);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(served->answer.result.Equals(direct->result))
      << served->answer.result.ToString();
  EXPECT_EQ(served->answer.completeness, direct->completeness);
  EXPECT_FALSE(served->plan_cache_hit);  // cold cache

  // An α-equivalent rendering reuses the cached plans and still produces
  // the identical answer.
  auto renamed = server.Answer(Sigmod97QueryRenamed());
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  EXPECT_TRUE(renamed->plan_cache_hit);
  EXPECT_TRUE(renamed->answer.result.Equals(direct->result))
      << renamed->answer.result.ToString();
}

TEST(QueryServerTest, SubmitResolvesFuturesOnThePool) {
  QueryServer server(MakeBiblioMediator(), BiblioCatalog(),
                     SmallServer(2, 32));
  std::vector<std::future<Result<ServeResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    auto submitted = server.Submit(i % 2 == 0 ? Sigmod97Query() : DumpQuery());
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->answer.complete());
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 8u);
  // Two distinct canonical queries; everything else coalesced or hit.
  EXPECT_EQ(stats.plan_cache.misses, 2u);
}

// --- query server: admission control ----------------------------------------

/// A wrapper that parks every Fetch until released, so requests occupy the
/// worker pool for as long as the test needs.
class GatedWrapper : public Wrapper {
 public:
  struct Gate {
    std::promise<void> first_entered;
    std::once_flag entered_once;
    std::shared_future<void> release;
  };

  explicit GatedWrapper(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    std::call_once(gate_->entered_once,
                   [this] { gate_->first_entered.set_value(); });
    gate_->release.wait();
    return base_.Fetch(capability, catalog);
  }

 private:
  std::shared_ptr<Gate> gate_;
  CatalogWrapper base_;
};

TEST(QueryServerTest, OverloadIsRejectedWithResourceExhausted) {
  auto gate = std::make_shared<GatedWrapper::Gate>();
  std::promise<void> release;
  gate->release = release.get_future().share();

  QueryServer server(MakeBiblioMediator(), BiblioCatalog(),
                     SmallServer(1, 1),
                     [gate](VirtualClock*, uint64_t) {
                       return std::make_unique<GatedWrapper>(gate);
                     });

  auto running = server.Submit(Sigmod97Query());
  ASSERT_TRUE(running.ok()) << running.status();
  gate->first_entered.get_future().wait();  // the worker is busy, not queued

  auto queued = server.Submit(Sigmod97Query());  // fills the queue
  ASSERT_TRUE(queued.ok()) << queued.status();

  auto rejected = server.Submit(Sigmod97Query());  // pushed back
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("retry"), std::string::npos)
      << rejected.status();

  release.set_value();
  auto first = std::move(running).ValueOrDie().get();
  auto second = std::move(queued).ValueOrDie().get();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan_cache_hit);  // coalesced or hit behind the first

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

// --- query server: determinism under concurrency and faults ------------------

/// Owns the CatalogWrapper + FaultInjector pair for one request, wiring the
/// same scripted schedules every time: answers become a pure function of
/// (query, seed, snapshot), which is what the stress test asserts.
class ScriptedWrapper : public Wrapper {
 public:
  ScriptedWrapper(uint64_t seed, VirtualClock* clock,
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

std::map<std::string, FaultSchedule> StressSchedules() {
  std::map<std::string, FaultSchedule> schedules;
  FaultSchedule blips;  // s1 drops two calls, then recovers: retries win
  blips.scripted = {Fault::Unavailable(), Fault::Unavailable()};
  schedules["s1"] = blips;
  FaultSchedule flaky;  // s2 fails each call with a seeded coin
  flaky.steady_state = Fault::Flaky(0.5);
  schedules["s2"] = flaky;
  return schedules;
}

ServerOptions StressOptions() {
  ServerOptions options;
  options.threads = 8;
  options.queue_capacity = 1024;  // large enough that nothing is rejected
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_ticks = 1;
  return options;
}

TEST(QueryServerTest, ConcurrentAnswersAreIdenticalToSingleThreadedRuns) {
  // N threads x M queries against a faulty catalog: every concurrent
  // answer must be bit-identical to the single-threaded mediator's answer
  // for the same (query, seed) — per-request wrappers and clocks make each
  // request a replay, and the plan cache must not change any outcome.
  const std::map<std::string, FaultSchedule> schedules = StressSchedules();
  const ServerOptions options = StressOptions();

  struct Case {
    TslQuery query;
    uint64_t seed;
    std::string expected;  // result rendering + completeness
  };
  std::vector<Case> cases;
  {
    Mediator reference = MakeBiblioMediator();
    SourceCatalog catalog = BiblioCatalog();
    std::vector<TslQuery> queries = {Sigmod97Query(), Sigmod97QueryRenamed(),
                                     DumpQuery()};
    for (const TslQuery& query : queries) {
      for (uint64_t seed = 0; seed < 4; ++seed) {
        VirtualClock clock;
        ScriptedWrapper wrapper(seed, &clock, schedules);
        ExecutionPolicy policy;
        policy.wrapper = &wrapper;
        policy.clock = &clock;
        policy.retry = options.retry;
        policy.seed = seed;
        auto expected = reference.Answer(query, catalog, policy);
        ASSERT_TRUE(expected.ok()) << expected.status();
        cases.push_back(Case{query, seed,
                             expected->result.ToString() + "\n#" +
                                 std::to_string(static_cast<int>(
                                     expected->completeness))});
      }
    }
  }

  QueryServer server(MakeBiblioMediator(), BiblioCatalog(), options,
                     [&schedules](VirtualClock* clock, uint64_t seed) {
                       return std::make_unique<ScriptedWrapper>(seed, clock,
                                                                schedules);
                     });

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;  // each thread walks all cases, offset per thread
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Case& c = cases[(static_cast<size_t>(t + round * 3)) %
                              cases.size()];
        ServeOptions serve;
        serve.seed = c.seed;
        auto response = server.Answer(c.query, serve);
        if (!response.ok()) {
          ADD_FAILURE() << response.status();
          mismatches.fetch_add(1);
          continue;
        }
        std::string got =
            response->answer.result.ToString() + "\n#" +
            std::to_string(static_cast<int>(response->answer.completeness));
        if (got != c.expected) {
          ADD_FAILURE() << "seed " << c.seed << " diverged:\n--- expected\n"
                        << c.expected << "\n--- got\n"
                        << got;
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Sigmod97Query and its renaming share one canonical form, so only two
  // distinct plan searches ever ran, and the single-flight invariant held:
  // the in-flight count never exceeded the number of distinct canonical
  // queries.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.plan_cache.misses, 2u) << stats.ToString();
  EXPECT_LE(stats.plan_cache.inflight_peak, 2u) << stats.ToString();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// --- query server: snapshot isolation ----------------------------------------

TEST(QueryServerTest, CatalogSwapsKeepThePlanCacheAndChangeAnswers) {
  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  TslQuery query = Sigmod97Query();

  auto before = server.Answer(query);
  ASSERT_TRUE(before.ok()) << before.status();
  const size_t roots_before = before->answer.result.roots().size();

  server.UpdateCatalog(MustParseDb(R"(
    database s1 {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a4 publication {
        <t4 title "Rewriting"> <v4 venue "SIGMOD"> <y4 year "1997">
      }>
    })"));

  auto after = server.Answer(query);
  ASSERT_TRUE(after.ok()) << after.status();
  // The new data is served, and the plans survived the swap: the second
  // request was a cache hit even though the catalog changed underneath.
  EXPECT_NE(after->answer.result.roots().size(), roots_before);
  EXPECT_TRUE(after->plan_cache_hit);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.catalog_swaps, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
}

TEST(QueryServerTest, MediatorSwapsStartAFreshPlanCacheGeneration) {
  // Under MaintenanceMode::kFullFlush every swap retires the whole cache,
  // even when the replacement mediator is identical.
  ServerOptions options;
  options.maintenance = MaintenanceMode::kFullFlush;
  QueryServer server(MakeBiblioMediator(), BiblioCatalog(), options);
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  auto warm = server.Answer(Sigmod97Query());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);

  MaintenanceReport report = server.ReplaceMediator(MakeBiblioMediator());
  EXPECT_TRUE(report.full_flush);
  auto cold = server.Answer(Sigmod97Query());
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);  // cached plans named retired views
  EXPECT_EQ(server.stats().mediator_swaps, 1u);
}

TEST(QueryServerTest, IdenticalMediatorSwapIsAMaintenanceNoop) {
  // Selective maintenance (the default) diffs the catalogs: swapping in a
  // byte-identical mediator is a no-op and every cached plan survives.
  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  ASSERT_TRUE(server.Answer(DumpQuery()).ok());

  MaintenanceReport report = server.ReplaceMediator(MakeBiblioMediator());
  EXPECT_TRUE(report.noop) << report.ToString();
  EXPECT_FALSE(report.full_flush) << report.ToString();
  EXPECT_EQ(report.entries_invalidated, 0u) << report.ToString();

  auto warm = server.Answer(Sigmod97Query());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  auto warm2 = server.Answer(DumpQuery());
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(warm2->plan_cache_hit);
  // The swap still happened: the new mediator object is serving.
  EXPECT_EQ(server.stats().mediator_swaps, 1u);
  EXPECT_EQ(server.stats().maintenance.noop_applies, 1u);
}

TEST(QueryServerTest, SelectiveSwapInvalidatesOnlyAffectedEntries) {
  // Change only the s2 view: the Sigmod97 entry (which depends on Y97
  // over s1 alone) must survive, while the DumpQuery entry (planned over
  // the edited view) must be invalidated.
  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  ASSERT_TRUE(server.Answer(DumpQuery()).ok());

  Capability y97;
  y97.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  Capability dump;  // body gains a year filter: a real semantic change
  dump.view = MustParse(
      "<dump(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<X' Y' Z'>}>@s2 AND "
      "<P' publication {<U' year \"1997\">}>@s2",
      "Dump2");
  auto changed = Mediator::Make(
      {SourceDescription{"s1", {y97}}, SourceDescription{"s2", {dump}}});
  ASSERT_TRUE(changed.ok()) << changed.status();

  MaintenanceReport report =
      server.ReplaceMediator(std::move(changed).ValueOrDie());
  EXPECT_FALSE(report.full_flush) << report.ToString();
  EXPECT_FALSE(report.noop) << report.ToString();
  EXPECT_EQ(report.entries_examined, 2u) << report.ToString();
  EXPECT_EQ(report.entries_invalidated, 1u) << report.ToString();
  EXPECT_EQ(report.entries_retained, 1u) << report.ToString();

  auto retained = server.Answer(Sigmod97Query());
  ASSERT_TRUE(retained.ok());
  EXPECT_TRUE(retained->plan_cache_hit);
  auto invalidated = server.Answer(DumpQuery());
  ASSERT_TRUE(invalidated.ok());
  EXPECT_FALSE(invalidated->plan_cache_hit);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.maintenance.selective_applies, 1u) << stats.ToString();
  EXPECT_EQ(stats.maintenance.entries_retained, 1u) << stats.ToString();
  EXPECT_EQ(stats.maintenance.entries_invalidated, 1u) << stats.ToString();
}

TEST(QueryServerTest, EditChainRetainsOnlyWhatAFreshSearchReproduces) {
  // Entry E (Sigmod97Query) consults Y97 only. Three swaps in a row: an
  // edit of the unconsulted Dump2, whose s2 body cannot map into E's s1
  // query; Y97 republished with renamed variables; and a real edit of
  // Y97's body. After each swap E is served from the cache exactly when
  // the swap cannot change it, and the served answer and plans match a
  // fresh search over the swapped-in catalog.
  auto capability = [](std::string_view text, std::string name) {
    Capability cap;
    cap.view = MustParse(text, std::move(name));
    return cap;
  };
  const Capability y97 = capability(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  const Capability y97_renamed = capability(
      "<y97(Q') pub {<A' B' C'>}> :- "
      "<Q' publication {<W' year \"1997\">}>@s1 AND "
      "<Q' publication {<A' B' C'>}>@s1",
      "Y97");
  const Capability y97_all = capability(
      "<y97(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  const Capability dump_1997 = capability(
      "<dump(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<X' Y' Z'>}>@s2 AND "
      "<P' publication {<U' year \"1997\">}>@s2",
      "Dump2");
  auto make = [](const Capability& over_s1, const Capability& over_s2) {
    auto mediator = Mediator::Make({SourceDescription{"s1", {over_s1}},
                                    SourceDescription{"s2", {over_s2}}});
    EXPECT_TRUE(mediator.ok()) << mediator.status();
    return std::move(mediator).ValueOrDie();
  };
  auto render = [](const ServeResponse& response) {
    std::string out = response.answer.result.ToString();
    for (const MediatorPlan& plan : response.plans->plans) {
      out += "\n" + plan.ToString();
    }
    return out;
  };

  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  struct Edit {
    Capability over_s1;
    bool retained;
  };
  const Edit edits[] = {{y97, true}, {y97_renamed, true}, {y97_all, false}};
  for (const Edit& edit : edits) {
    MaintenanceReport report =
        server.ReplaceMediator(make(edit.over_s1, dump_1997));
    EXPECT_FALSE(report.full_flush) << report.ToString();
    EXPECT_EQ(report.entries_retained, edit.retained ? 1u : 0u)
        << report.ToString();
    auto served = server.Answer(Sigmod97Query());
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->plan_cache_hit, edit.retained) << report.ToString();

    QueryServer fresh(make(edit.over_s1, dump_1997), BiblioCatalog());
    auto expected = fresh.Answer(Sigmod97Query());
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(render(*served), render(*expected)) << report.ToString();
  }
}

TEST(QueryServerTest, InvalidatePlansKeepsCacheCountersMonotonic) {
  // Regression: InvalidatePlans used to rebuild the cache object, zeroing
  // the per-shard hit/miss/coalesced counters and making Statsz rates run
  // backwards. A flush must drop entries, not history.
  QueryServer server(MakeBiblioMediator(), BiblioCatalog());
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  auto warm = server.Answer(Sigmod97Query());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  ASSERT_EQ(server.stats().plan_cache.hits, 1u);
  ASSERT_EQ(server.stats().plan_cache.misses, 1u);

  server.InvalidatePlans();

  PlanCacheStats after = server.stats().plan_cache;
  EXPECT_EQ(after.hits, 1u);    // survived the flush
  EXPECT_EQ(after.misses, 1u);  // survived the flush
  EXPECT_EQ(after.entries, 0u);  // ...but the entries did not

  auto cold = server.Answer(Sigmod97Query());
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_EQ(server.stats().plan_cache.misses, 2u);
  EXPECT_EQ(server.stats().plan_cache.hits, 1u);
}

TEST(QueryServerTest, StatszExposesPerCacheShardLines) {
  ServerOptions options;
  options.threads = 1;
  options.plan_cache_shards = 4;
  MetricRegistry metrics;
  options.metrics = &metrics;
  QueryServer server(MakeBiblioMediator(), BiblioCatalog(), options);
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());
  ASSERT_TRUE(server.Answer(Sigmod97Query()).ok());  // a hit

  // The per-cache-shard breakdown sums to the aggregate.
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.plan_cache_shards.size(), 4u);
  uint64_t hits = 0, misses = 0;
  size_t entries = 0;
  for (const PlanCacheStats& cache_shard : stats.plan_cache_shards) {
    hits += cache_shard.hits;
    misses += cache_shard.misses;
    entries += cache_shard.entries;
  }
  EXPECT_EQ(hits, stats.plan_cache.hits);
  EXPECT_EQ(misses, stats.plan_cache.misses);
  EXPECT_EQ(entries, stats.plan_cache.entries);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);

  const std::string statsz = server.Statsz();
  EXPECT_NE(statsz.find("cache shard 0:"), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("metrics:"), std::string::npos) << statsz;
}

TEST(QueryServerTest, RequestsUnderConcurrentSwapsSeeAConsistentSnapshot) {
  // Readers hammer the server while a writer republishes the catalog;
  // every answer must match one of the two catalog states, never a blend.
  QueryServer server(MakeBiblioMediator(), BiblioCatalog(),
                     SmallServer(4, 256));
  TslQuery query = Sigmod97Query();

  auto old_answer = server.Answer(query);
  ASSERT_TRUE(old_answer.ok()) << old_answer.status();
  const std::string old_rendering = old_answer->answer.result.ToString();

  SourceCatalog next_catalog = BiblioCatalog();
  {
    OemDatabase grown = MustParseDb(R"(
      database s1 {
        <a1 publication {
          <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
        }>
        <a2 publication {
          <t2 title "Constraints"> <v2 venue "VLDB"> <y2 year "1997">
        }>
        <a3 publication {
          <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1993">
        }>
        <a4 publication {
          <t4 title "Rewriting"> <v4 venue "SIGMOD"> <y4 year "1997">
        }>
      })");
    next_catalog.Put(grown);
  }
  QueryServer reference(MakeBiblioMediator(), std::move(next_catalog));
  auto new_answer = reference.Answer(query);
  ASSERT_TRUE(new_answer.ok()) << new_answer.status();
  const std::string new_rendering = new_answer->answer.result.ToString();
  ASSERT_NE(old_rendering, new_rendering);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_renderings{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto response = server.Answer(query);
        if (!response.ok()) {
          ADD_FAILURE() << response.status();
          bad_renderings.fetch_add(1);
          return;
        }
        const std::string got = response->answer.result.ToString();
        if (got != old_rendering && got != new_rendering) {
          bad_renderings.fetch_add(1);
        }
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    server.UpdateCatalog(MustParseDb(R"(
      database s1 {
        <a1 publication {
          <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
        }>
        <a2 publication {
          <t2 title "Constraints"> <v2 venue "VLDB"> <y2 year "1997">
        }>
        <a3 publication {
          <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1993">
        }>
        <a4 publication {
          <t4 title "Rewriting"> <v4 venue "SIGMOD"> <y4 year "1997">
        }>
      })"));
    server.UpdateCatalog(*BiblioCatalog().Find("s1").ValueOrDie());
  }
  server.UpdateCatalog(*BiblioCatalog().Find("s1").ValueOrDie());
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_renderings.load(), 0);
  EXPECT_EQ(server.stats().catalog_swaps, 41u);
}

}  // namespace
}  // namespace tslrw
