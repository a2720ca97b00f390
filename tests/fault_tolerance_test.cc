#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fixtures.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "mediator/retry.h"
#include "mediator/wrapper.h"
#include "rewrite/rewriter.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

// --- fixtures ---------------------------------------------------------------

/// The bibliographic catalog of mediator_test, reused for fault scenarios.
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

Capability Year97Capability() {
  Capability cap;
  cap.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  return cap;
}

Capability DumpCapability() {
  Capability cap;
  cap.view = MustParse(
      "<dump(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "Dump2");
  return cap;
}

Mediator MakeBiblioMediator() {
  SourceDescription s1{"s1", {Year97Capability()}};
  SourceDescription s2{"s2", {DumpCapability()}};
  auto mediator = Mediator::Make({s1, s2});
  EXPECT_TRUE(mediator.ok()) << mediator.status();
  return std::move(mediator).ValueOrDie();
}

/// One source `lib` wrapped by two equivalent endpoints (replicas): the
/// query can be answered through either mirror's view.
Mediator MakeMirroredMediator() {
  Capability a;
  a.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorA");
  Capability b;
  b.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorB");
  auto mediator = Mediator::Make(
      {SourceDescription{"lib", {a}}, SourceDescription{"lib", {b}}});
  EXPECT_TRUE(mediator.ok()) << mediator.status();
  return std::move(mediator).ValueOrDie();
}

SourceCatalog LibCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database lib {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue "VLDB"> <y2 year "1996">
      }>
    })"));
  return catalog;
}

TslQuery Sigmod97Query() {
  return MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod97");
}

TslQuery PairsQuery() {
  return MustParse(
      "<f(P,R) pair yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<R publication {<W year \"1997\">}>@s2",
      "Pairs");
}

std::set<std::string> RootKeys(const OemDatabase& db) {
  std::set<std::string> keys;
  for (const Oid& root : db.roots()) keys.insert(root.ToString());
  return keys;
}

bool IsSubset(const std::set<std::string>& small,
              const std::set<std::string>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// --- retry / backoff on the virtual clock -----------------------------------

TEST(RetryPolicyTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ticks = 2;
  policy.multiplier = 2.0;
  policy.max_backoff_ticks = 10;
  EXPECT_EQ(policy.BackoffAfterAttempt(1, nullptr), 2u);
  EXPECT_EQ(policy.BackoffAfterAttempt(2, nullptr), 4u);
  EXPECT_EQ(policy.BackoffAfterAttempt(3, nullptr), 8u);
  EXPECT_EQ(policy.BackoffAfterAttempt(4, nullptr), 10u);  // capped
  EXPECT_EQ(policy.BackoffAfterAttempt(5, nullptr), 10u);
  // Past the attempt budget there is no wait: the failure is final.
  EXPECT_EQ(policy.BackoffAfterAttempt(6, nullptr), 0u);
}

TEST(RetryPolicyTest, JitterIsDeterministicPerSeed) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ticks = 100;
  policy.jitter = 0.5;
  DeterministicRng rng_a(42);
  DeterministicRng rng_b(42);
  DeterministicRng rng_c(7);
  std::vector<uint64_t> a, b, c;
  for (size_t attempt = 1; attempt <= 3; ++attempt) {
    a.push_back(policy.BackoffAfterAttempt(attempt, &rng_a));
    b.push_back(policy.BackoffAfterAttempt(attempt, &rng_b));
    c.push_back(policy.BackoffAfterAttempt(attempt, &rng_c));
  }
  EXPECT_EQ(a, b);  // same seed, same waits
  EXPECT_NE(a, c);  // different seed, different jitter draws
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t base = policy.BackoffAfterAttempt(i + 1, nullptr);
    EXPECT_LE(a[i], base);
    EXPECT_GE(a[i], static_cast<uint64_t>(static_cast<double>(base) *
                                          (1.0 - policy.jitter)));
  }
}

TEST(RetryPolicyTest, RetryableFailureClassification) {
  EXPECT_TRUE(IsRetryableFailure(Status::Unavailable("down")));
  EXPECT_TRUE(IsRetryableFailure(Status::DeadlineExceeded("slow")));
  EXPECT_FALSE(IsRetryableFailure(Status::NotFound("missing")));
  EXPECT_FALSE(IsRetryableFailure(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsRetryableFailure(Status::OK()));
}

TEST(FaultToleranceTest, RetryRecoversFromTransientBlips) {
  // s1 drops the first two calls, then recovers; three attempts suffice
  // and the answer is indistinguishable from the fault-free run.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = Sigmod97Query();

  auto fault_free = mediator.Answer(query, catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/1, &clock);
  FaultSchedule blips;
  blips.scripted = {Fault::Unavailable(), Fault::Unavailable()};
  injector.SetSchedule("s1", blips);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 3;
  policy.retry.initial_backoff_ticks = 1;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->complete()) << answer->report.ToString();
  EXPECT_TRUE(answer->result.Equals(fault_free->result));
  EXPECT_FALSE(answer->report.failover);
  EXPECT_GT(answer->report.backoff_ticks_total, 0u);
  ASSERT_EQ(answer->report.fetches.size(), 1u);
  EXPECT_EQ(answer->report.fetches[0].attempts.size(), 3u)
      << answer->report.ToString();
}

// --- plan failover ----------------------------------------------------------

TEST(FaultToleranceTest, FailoverToEquivalentReplica) {
  // Two equivalent endpoints serve `lib`; a scripted fault kills MirrorA
  // for good. Answer fails over to MirrorB and returns the same
  // consolidated result as the fault-free run.
  Mediator mediator = MakeMirroredMediator();
  SourceCatalog catalog = LibCatalog();
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<V venue \"SIGMOD\">}>@lib", "Q");

  auto fault_free = mediator.Answer(query, catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();
  ASSERT_EQ(fault_free->result.roots().size(), 1u);

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/3, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("MirrorA", dead);  // view-keyed: one endpoint only

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 2;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->complete()) << answer->report.ToString();
  EXPECT_TRUE(answer->result.Equals(fault_free->result))
      << answer->result.ToString();
  // The source itself is still reachable through the live mirror.
  EXPECT_TRUE(answer->unreachable_sources.empty())
      << answer->report.ToString();
  EXPECT_GE(answer->report.plans_attempted, 2u);
}

TEST(FaultToleranceTest, DeadSourcePlansAreSkippedNotRetried) {
  // Once MirrorA is declared dead, later plans touching it are skipped
  // without burning more attempts: the report distinguishes skips.
  Mediator mediator = MakeMirroredMediator();
  SourceCatalog catalog = LibCatalog();
  // Two conditions: plans exist via (MirrorA,MirrorA), (MirrorA,MirrorB),
  // (MirrorB,MirrorB), ... — several touch MirrorA.
  TslQuery query = MustParse(
      "<f(P) out yes> :- "
      "<P publication {<V venue \"SIGMOD\">}>@lib AND "
      "<P publication {<U year \"1997\">}>@lib",
      "Q2");

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/3, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("MirrorA", dead);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 2;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->complete());
  EXPECT_TRUE(answer->report.failover);
  // MirrorA was attempted exactly once (2 attempts in one fetch), then
  // every other plan touching it was skipped outright.
  size_t mirror_a_attempts = 0;
  for (const FetchRecord& fetch : answer->report.fetches) {
    if (fetch.view == "MirrorA") mirror_a_attempts += fetch.attempts.size();
  }
  EXPECT_EQ(mirror_a_attempts, 2u) << answer->report.ToString();
  EXPECT_GE(answer->report.plans_skipped, 1u) << answer->report.ToString();
}

// --- degradation ------------------------------------------------------------

TEST(FaultToleranceTest, AllTotalPlansDeadYieldsDegradedAnswer) {
  // The Pairs query needs both s1 and s2; killing s1 leaves no total plan.
  // The degraded answer is flagged incomplete, names the dead source, and
  // its objects are a subset of the fault-free answer.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = PairsQuery();

  auto fault_free = mediator.Answer(query, catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();
  ASSERT_EQ(fault_free->result.roots().size(), 2u);

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/5, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("s1", dead);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 2;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->completeness, Completeness::kDegraded)
      << answer->report.ToString();
  EXPECT_FALSE(answer->complete());
  EXPECT_EQ(answer->unreachable_sources,
            std::vector<std::string>{"s1"});
  EXPECT_TRUE(
      IsSubset(RootKeys(answer->result), RootKeys(fault_free->result)));
}

TEST(FaultToleranceTest, DegradedDisabledPropagatesTheFailure) {
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/5, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("s1", dead);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 2;
  policy.allow_degraded = false;
  auto answer = mediator.Answer(PairsQuery(), catalog, policy);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsUnavailable()) << answer.status();
}

TEST(FaultToleranceTest, TruncatedFeedYieldsPartialSubset) {
  // s1 replies, but with only one root: the answer is flagged partial and
  // is a strict subset of the fault-free run.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = MustParse(
      "<f(P) y97 yes> :- <P publication {<U year \"1997\">}>@s1", "Y97All");

  auto fault_free = mediator.Answer(query, catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();
  ASSERT_EQ(fault_free->result.roots().size(), 2u);  // a1 and a2

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/9, &clock);
  FaultSchedule truncated;
  truncated.steady_state = Fault::Truncated(1);
  injector.SetSchedule("s1", truncated);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->completeness, Completeness::kPartial)
      << answer->report.ToString();
  EXPECT_LT(answer->result.roots().size(),
            fault_free->result.roots().size());
  EXPECT_TRUE(
      IsSubset(RootKeys(answer->result), RootKeys(fault_free->result)));
  ASSERT_EQ(answer->report.fetches.size(), 1u);
  EXPECT_TRUE(answer->report.fetches[0].truncated);
}

TEST(FaultToleranceTest, PerQueryDeadlineAbortsInsteadOfWaiting) {
  // s1 burns 10 virtual ticks per call against a 4-tick per-call deadline
  // and a 5-tick query budget: the execution aborts deterministically with
  // DeadlineExceeded, no wall-clock involved.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/2, &clock);
  FaultSchedule slow;
  slow.steady_state = Fault::SlowBy(10);
  injector.SetSchedule("s1", slow);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 3;
  policy.retry.per_call_deadline_ticks = 4;
  policy.retry.per_query_deadline_ticks = 5;
  policy.degrade_on_deadline = false;
  auto answer = mediator.Answer(Sigmod97Query(), catalog, policy);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded()) << answer.status();
}

TEST(FaultToleranceTest, ExhaustedDeadlineDegradesByDefault) {
  // Same exhausted budget, default policy: instead of erroring, the answer
  // degrades per \S7 — sound (a subset of the fault-free answer, possibly
  // empty), flagged incomplete, and the report says the deadline did it.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();

  auto fault_free = mediator.Answer(Sigmod97Query(), catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/2, &clock);
  FaultSchedule slow;
  slow.steady_state = Fault::SlowBy(10);
  injector.SetSchedule("s1", slow);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 3;
  policy.retry.per_call_deadline_ticks = 4;
  policy.retry.per_query_deadline_ticks = 5;
  auto answer = mediator.Answer(Sigmod97Query(), catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->completeness, Completeness::kDegraded)
      << answer->report.ToString();
  EXPECT_TRUE(answer->report.deadline_degraded) << answer->report.ToString();
  EXPECT_TRUE(
      IsSubset(RootKeys(answer->result), RootKeys(fault_free->result)));
}

TEST(FaultToleranceTest, SlowSourceWithinDeadlinesStillAnswers) {
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/2, &clock);
  FaultSchedule slow;
  slow.steady_state = Fault::SlowBy(3);
  injector.SetSchedule("s1", slow);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.per_call_deadline_ticks = 5;
  policy.retry.per_query_deadline_ticks = 100;
  auto answer = mediator.Answer(Sigmod97Query(), catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->complete());
  EXPECT_EQ(answer->report.finished_at_ticks, 3u)
      << answer->report.ToString();
}

// --- determinism ------------------------------------------------------------

TEST(FaultToleranceTest, SameSeedSameExecutionReport) {
  // Flaky faults draw from the injector's seeded RNG; with identical
  // seeds the whole execution — answer and report — replays identically.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = PairsQuery();

  auto run = [&](uint64_t seed) {
    CatalogWrapper base;
    VirtualClock clock;
    FaultInjector injector(&base, seed, &clock);
    FaultSchedule flaky;
    flaky.steady_state = Fault::Flaky(0.5);
    injector.SetSchedule("s1", flaky);
    injector.SetSchedule("s2", flaky);
    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.seed = seed;
    policy.retry.max_attempts = 2;
    policy.retry.jitter = 0.5;
    return mediator.Answer(query, catalog, policy);
  };

  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto first = run(seed);
    auto second = run(seed);
    ASSERT_EQ(first.ok(), second.ok()) << "seed " << seed;
    if (!first.ok()) continue;
    EXPECT_EQ(first->report.ToString(), second->report.ToString())
        << "seed " << seed;
    EXPECT_TRUE(first->result.Equals(second->result)) << "seed " << seed;
    EXPECT_EQ(first->completeness, second->completeness) << "seed " << seed;
  }
}

TEST(FaultToleranceTest, RandomizedFaultsNeverInventObjects) {
  // Property: under any seeded fault schedule, a successful answer only
  // contains objects from the fault-free answer (soundness under faults).
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = PairsQuery();

  auto fault_free = mediator.Answer(query, catalog);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status();
  const std::set<std::string> truth = RootKeys(fault_free->result);

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    CatalogWrapper base;
    VirtualClock clock;
    FaultInjector injector(&base, seed, &clock);
    // Drive fault selection off the seed too, so the sweep covers flaky,
    // truncated, and slow behavior on both sources.
    FaultSchedule s1_faults;
    s1_faults.steady_state =
        seed % 3 == 0 ? Fault::Truncated(seed % 2) : Fault::Flaky(0.4);
    FaultSchedule s2_faults;
    s2_faults.steady_state =
        seed % 4 == 0 ? Fault::SlowBy(1) : Fault::Flaky(0.3);
    injector.SetSchedule("s1", s1_faults);
    injector.SetSchedule("s2", s2_faults);

    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.seed = seed;
    policy.retry.max_attempts = 2;
    auto answer = mediator.Answer(query, catalog, policy);
    ASSERT_TRUE(answer.ok()) << "seed " << seed << ": " << answer.status();
    EXPECT_TRUE(IsSubset(RootKeys(answer->result), truth))
        << "seed " << seed << "\n"
        << answer->report.ToString();
    if (answer->complete()) {
      EXPECT_TRUE(answer->result.Equals(fault_free->result))
          << "seed " << seed;
    }
  }
}

// --- scripted schedules pin the report exactly ------------------------------

TEST(FaultToleranceTest, ScriptedBlipsYieldExactReportNumbers) {
  // Two scripted drops then recovery, backoff 1 then 2 ticks, no jitter:
  // every counter in the report is determined by the schedule, so assert
  // them all exactly.
  Mediator mediator = MakeBiblioMediator();
  SourceCatalog catalog = BiblioCatalog();

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/1, &clock);
  FaultSchedule blips;
  blips.scripted = {Fault::Unavailable(), Fault::Unavailable()};
  injector.SetSchedule("s1", blips);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 3;
  policy.retry.initial_backoff_ticks = 1;
  policy.retry.jitter = 0.0;
  policy.rewrite_parallelism = 1;  // inline verification: no pool batches
  auto answer = mediator.Answer(Sigmod97Query(), catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();

  const ExecutionReport& report = answer->report;
  EXPECT_EQ(answer->completeness, Completeness::kComplete);
  EXPECT_TRUE(answer->unreachable_sources.empty());
  EXPECT_EQ(report.plans_attempted, 1u);
  EXPECT_EQ(report.plans_skipped, 0u);
  EXPECT_FALSE(report.replanned);
  EXPECT_FALSE(report.failover);
  // Backoffs 1 and 2 ticks; the third attempt succeeds at t=3 and no
  // further virtual time passes.
  EXPECT_EQ(report.backoff_ticks_total, 3u) << report.ToString();
  EXPECT_EQ(report.finished_at_ticks, 3u) << report.ToString();
  ASSERT_EQ(report.fetches.size(), 1u);
  const FetchRecord& fetch = report.fetches[0];
  EXPECT_EQ(fetch.source, "s1");
  EXPECT_EQ(fetch.view, "Y97");
  EXPECT_TRUE(fetch.succeeded);
  EXPECT_FALSE(fetch.truncated);
  ASSERT_EQ(fetch.attempts.size(), 3u);
  EXPECT_EQ(fetch.attempts[0].at_ticks, 0u);
  EXPECT_TRUE(fetch.attempts[0].outcome.IsUnavailable());
  EXPECT_EQ(fetch.attempts[0].backoff_ticks, 1u);
  EXPECT_EQ(fetch.attempts[1].at_ticks, 1u);
  EXPECT_EQ(fetch.attempts[1].backoff_ticks, 2u);
  EXPECT_EQ(fetch.attempts[2].at_ticks, 3u);
  EXPECT_TRUE(fetch.attempts[2].outcome.ok());

  // The plan search behind the answer: the Sigmod97 query has exactly one
  // total rewriting over Y97. The second candidate is dominated by it and
  // never verified, and the one tested candidate meets empty memos, so no
  // memo hit is possible.
  const PlanSearchStats& search = report.plan_search;
  EXPECT_EQ(search.candidates_generated, 2u);
  EXPECT_EQ(search.candidates_tested, 1u);
  EXPECT_EQ(search.chase_cache_hits, 0u);
  EXPECT_EQ(search.equiv_cache_hits, 0u);
  EXPECT_EQ(search.batches_dispatched, 0u);
  EXPECT_FALSE(report.plan_search_truncated);
}

TEST(FaultToleranceTest, AllReplicasDeadReportsDegradedGrade) {
  // Both mirrors of `lib` are dead. Deadness is tracked per capability
  // view, so MirrorB's plan is still *attempted* (not skipped) after
  // MirrorA dies; once both views are dead no live view remains, the
  // replan step is moot, and the \S7 fallback produces a degraded answer
  // naming the dead source.
  Mediator mediator = MakeMirroredMediator();
  SourceCatalog catalog = LibCatalog();
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<V venue \"SIGMOD\">}>@lib", "Q");

  CatalogWrapper base;
  VirtualClock clock;
  FaultInjector injector(&base, /*seed=*/4, &clock);
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  injector.SetSchedule("lib", dead);  // source-keyed: every endpoint

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ticks = 1;
  policy.retry.jitter = 0.0;
  auto answer = mediator.Answer(query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();

  EXPECT_EQ(answer->completeness, Completeness::kDegraded)
      << answer->report.ToString();
  EXPECT_EQ(answer->unreachable_sources, std::vector<std::string>{"lib"});
  EXPECT_EQ(answer->result.roots().size(), 0u);
  const ExecutionReport& report = answer->report;
  EXPECT_EQ(report.plans_attempted, 2u) << report.ToString();
  EXPECT_EQ(report.plans_skipped, 0u) << report.ToString();
  // With every view dead there is nothing to replan over: the flag stays
  // false and the fallback fires directly.
  EXPECT_FALSE(report.replanned) << report.ToString();
  // One 1-tick backoff inside each of the two exhausted fetches.
  EXPECT_EQ(report.backoff_ticks_total, 2u) << report.ToString();
  EXPECT_EQ(report.finished_at_ticks, 2u) << report.ToString();
  ASSERT_EQ(report.fetches.size(), 2u);
  EXPECT_EQ(report.fetches[0].view, "MirrorA");
  EXPECT_EQ(report.fetches[1].view, "MirrorB");
  for (const FetchRecord& fetch : report.fetches) {
    EXPECT_FALSE(fetch.succeeded);
    EXPECT_EQ(fetch.attempts.size(), 2u);
  }
}

// --- strict limits (no silent truncation) -----------------------------------

TEST(FaultToleranceTest, TruncatedPlanSearchIsFlagged) {
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<V venue \"SIGMOD\">}>@lib", "Q");
  Capability cap;
  cap.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib", "M");
  std::vector<TslQuery> views{cap.view};

  RewriteOptions options;
  options.max_candidates = 0;  // cut the search off immediately
  auto result = RewriteQuery(query, views, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->rewritings.empty());

  options.strict_limits = true;
  auto strict = RewriteQuery(query, views, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsResourceExhausted()) << strict.status();
}

TEST(FaultToleranceTest, BudgetHookStopsTheSearch) {
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<V venue \"SIGMOD\">}>@lib", "Q");
  Capability cap;
  cap.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib", "M");

  RewriteOptions options;
  options.should_stop = [] { return true; };  // budget exhausted up front
  auto result = RewriteQuery(query, {cap.view}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->rewritings.empty());
}

}  // namespace
}  // namespace tslrw
