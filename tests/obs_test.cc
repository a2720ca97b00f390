// The observability layer itself: metric semantics (lock-free counters,
// power-of-two histogram buckets, registry snapshots), span-tree
// well-formedness (Validate as the arbiter), the null-tracer discipline
// instrumented code relies on, and the integration points — mediator
// retry/fault events in spans, server counters staying exact under
// concurrent load (run under TSan in CI).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/virtual_clock.h"
#include "eval/evaluator.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oem/parser.h"
#include "rewrite/rewriter.h"
#include "service/server.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);

  Gauge gauge;
  gauge.Set(7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.value(), -3);
}

TEST(MetricsTest, HistogramBucketContract) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);

  EXPECT_EQ(Histogram::BucketRange(0), std::make_pair(uint64_t{0},
                                                      uint64_t{0}));
  EXPECT_EQ(Histogram::BucketRange(1), std::make_pair(uint64_t{1},
                                                      uint64_t{1}));
  EXPECT_EQ(Histogram::BucketRange(4), std::make_pair(uint64_t{8},
                                                      uint64_t{15}));
  EXPECT_EQ(Histogram::BucketRange(64).second, UINT64_MAX);
  // Ranges tile the axis: every bucket starts right after its predecessor.
  for (size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketRange(i).first,
              Histogram::BucketRange(i - 1).second + 1);
  }

  Histogram hist;
  hist.Observe(0);
  hist.Observe(9);
  hist.Observe(12);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 21u);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(4), 2u);
}

TEST(MetricsTest, RegistryHandlesAreStableAndSnapshotsSorted) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("z.late");
  EXPECT_EQ(registry.GetCounter("z.late"), c);  // same name, same storage
  registry.GetCounter("a.early")->Increment(5);
  registry.GetGauge("depth")->Set(3);
  registry.GetHistogram("lat")->Observe(100);
  c->Increment(2);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.early");  // sorted by name
  EXPECT_EQ(snap.counters[0].second, 5u);
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.histograms[0].buckets.size(), 1u);
  EXPECT_EQ(snap.histograms[0].buckets[0].first,
            Histogram::BucketIndex(100));

  std::string text = registry.ToText();
  EXPECT_NE(text.find("a.early 5"), std::string::npos) << text;
  EXPECT_NE(text.find("depth 3"), std::string::npos) << text;
  EXPECT_NE(text.find("lat count=1 sum=100"), std::string::npos) << text;
}

TEST(MetricsTest, NullRegistryHelpersAreNoOps) {
  CountIf(nullptr, "x");  // must not crash
  ObserveIf(nullptr, "x", 1);
  MetricRegistry registry;
  CountIf(&registry, "never", 0);  // zero delta does not even register
  EXPECT_EQ(registry.ToText(), "");
}

TEST(MetricsTest, ConcurrentCountersStayExact) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* counter = registry.GetCounter("shared");
      Histogram* hist = registry.GetHistogram("samples");
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(static_cast<uint64_t>(i % 7));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared")->value(),
            uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.GetHistogram("samples")->count(),
            uint64_t{kThreads} * kPerThread);
}

TEST(TracerTest, SpanTreeStructureAndDump) {
  VirtualClock clock;
  Tracer tracer(&clock);
  int root = tracer.Begin("root");
  clock.Advance(1);
  {
    ScopedSpan child(&tracer, "child");
    child.Annotate("k", "v");
    child.Annotate("n", uint64_t{7});
    clock.Advance(2);
    child.Event("blip");
  }
  tracer.Annotate(root, "outcome", "ok");
  clock.Advance(1);
  tracer.End(root);

  EXPECT_TRUE(tracer.Validate().ok()) << tracer.Validate().ToString();
  std::vector<TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].start_ticks, 1u);
  EXPECT_EQ(spans[1].end_ticks, 3u);

  EXPECT_EQ(tracer.ToText(),
            "trace (2 spans)\n"
            "- root [0..4] outcome=ok\n"
            "  - child [1..3] k=v n=7\n"
            "    @3 blip\n");
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"child\",\"cat\":\"tslrw\",\"ph\":\"X\","
                      "\"ts\":1,\"dur\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":3"), std::string::npos) << json;
}

TEST(TracerTest, ValidateCatchesUnclosedAndOverflowingSpans) {
  {
    VirtualClock clock;
    Tracer tracer(&clock);
    tracer.Begin("dangling");
    Status status = tracer.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("never closed"), std::string::npos);
  }
  {
    // A child that outlives its parent: the parent's End comes first, so
    // the child's interval overflows the parent's.
    VirtualClock clock;
    Tracer tracer(&clock);
    int parent = tracer.Begin("parent");
    int child = tracer.Begin("child");
    tracer.End(parent);
    clock.Advance(5);
    tracer.End(child);
    Status status = tracer.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("overflows parent"),
              std::string::npos);
  }
}

TEST(TracerTest, NullTracerDisciplineIsSafe) {
  ScopedSpan span(nullptr, "anything");
  span.Annotate("k", "v");
  span.Event("e");
  span.EndNow();
  EXPECT_EQ(span.handle(), -1);
}

TEST(TracerTest, EventHereAttachesToInnermostOpenSpanOnly) {
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.EventHere("dropped: nothing open");
  int outer = tracer.Begin("outer");
  int inner = tracer.Begin("inner");
  tracer.EventHere("hits inner");
  tracer.End(inner);
  tracer.EventHere("hits outer");
  tracer.End(outer);

  std::vector<TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[0].events.size(), 1u);
  EXPECT_EQ(spans[0].events[0].text, "hits outer");
  ASSERT_EQ(spans[1].events.size(), 1u);
  EXPECT_EQ(spans[1].events[0].text, "hits inner");
}

TEST(TracerTest, JsonEscapesAnnotationAndNameText) {
  Tracer tracer(nullptr);  // null clock: all timestamps 0
  int span = tracer.Begin("quote\"backslash\\");
  tracer.Annotate(span, "key", "line\nbreak\ttab");
  tracer.End(span);
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("quote\\\"backslash\\\\"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos) << json;
}

TEST(TracerTest, WallTimeIsRenderedOnlyWhenRequested) {
  VirtualClock clock;
  Tracer silent(&clock);
  Tracer timed(&clock, /*record_wall_time=*/true);
  {
    ScopedSpan a(&silent, "work");
    ScopedSpan b(&timed, "work");
  }
  EXPECT_EQ(silent.ToText().find("wall_us"), std::string::npos);
  EXPECT_NE(timed.ToText().find("wall_us"), std::string::npos);
}

// --- Integration: the instrumented pipeline ---------------------------

Capability DumpCapability(const std::string& view_name,
                          const std::string& source) {
  Capability cap;
  auto parsed = ParseTslQuery(
      StrCat("<d(P') p {<X' Y' Z'>}> :- <P' p {<X' Y' Z'>}>@", source),
      view_name);
  cap.view = std::move(parsed).ValueOrDie();
  return cap;
}

SourceCatalog SmallCatalog() {
  SourceCatalog catalog;
  catalog.Put(ParseOemDatabase(
                  "database db { <p1 p { <n1 name ann> }> }")
                  .ValueOrDie());
  return catalog;
}

TEST(ObsIntegrationTest, MediatorTraceShowsRetriesFaultsAndFailover) {
  SourceCatalog catalog = SmallCatalog();
  auto mediator = Mediator::Make({SourceDescription{
      "db", {DumpCapability("Dump", "db")}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  auto query =
      ParseTslQuery("<f(P) out yes> :- <P p {<X name ann>}>@db", "Q");
  ASSERT_TRUE(query.ok());

  VirtualClock clock;
  Tracer tracer(&clock);
  MetricRegistry metrics;
  CatalogWrapper base;
  FaultInjector injector(&base, /*seed=*/3, &clock);
  injector.set_tracer(&tracer);
  FaultSchedule blips;
  blips.scripted = {Fault::Unavailable(), Fault::Unavailable()};
  injector.SetSchedule("db", blips);

  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = &clock;
  policy.retry.max_attempts = 3;
  policy.retry.initial_backoff_ticks = 1;
  policy.tracer = &tracer;
  policy.metrics = &metrics;
  auto answer = mediator->Answer(*query, catalog, policy);
  ASSERT_TRUE(answer.ok()) << answer.status();

  ASSERT_TRUE(tracer.Validate().ok()) << tracer.Validate().ToString();
  std::string text = tracer.ToText();
  EXPECT_NE(text.find("mediator.plan_search"), std::string::npos) << text;
  EXPECT_NE(text.find("- rewrite "), std::string::npos) << text;
  EXPECT_NE(text.find("mediator.fetch"), std::string::npos) << text;
  // The FaultInjector's events land inside the fetch span, interleaved
  // with the retry attempts, all on the same virtual timeline.
  EXPECT_NE(text.find("fault: db call 1 unavailable"), std::string::npos)
      << text;
  EXPECT_NE(text.find("attempt 1: Unavailable"), std::string::npos) << text;
  EXPECT_NE(text.find("backoff 1 tick(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("attempt 3: ok"), std::string::npos) << text;

  EXPECT_EQ(metrics.GetCounter("mediator.retries")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("mediator.fetch_attempts")->value(), 3u);
  EXPECT_EQ(metrics.GetCounter("mediator.answers_complete")->value(), 1u);
}

TEST(ObsIntegrationTest, RewriteStageHistogramsReconcileWithVerifyTime) {
  // Each stage of RewriteQuery outside the candidate loop observes one
  // sample per search, and the search overhead is exactly the verification
  // wall time the chase, compose and \S4 step timers leave. Every \S4 test
  // that runs is timed and a memo hit times nothing, so the equiv samples
  // plus the verdict hits account for every tested candidate.
  std::vector<TslQuery> views;
  std::vector<std::string> arms;
  for (int i = 0; i < 3; ++i) {
    arms.push_back(StrCat("<P rec {<X", i, " l", i, " u", i, ">}>@db"));
    views.push_back(
        ParseTslQuery(StrCat("<v", i, "(P') o", i, " {<w", i,
                             "(X') m U'>}> :- <P' rec {<X' l", i, " U'>}>@db"),
                      StrCat("V", i))
            .ValueOrDie());
  }
  TslQuery query = ParseTslQuery(
                       StrCat("<f(P) out yes> :- ", Join(arms, " AND ")), "Q")
                       .ValueOrDie();
  MetricRegistry metrics;
  RewriteOptions options;
  options.metrics = &metrics;
  constexpr int kSearches = 2;
  size_t tested = 0;
  size_t equiv_hits = 0;
  for (int i = 0; i < kSearches; ++i) {
    auto result = RewriteQuery(query, views, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->rewritings.empty());
    tested += result->candidates_tested;
    equiv_hits += result->equiv_cache_hits;
  }
  for (const char* name :
       {"rewrite.phase.inputs_us", "rewrite.phase.mappings_us",
        "rewrite.phase.tester_us", "rewrite.phase.search_overhead_us",
        "rewrite.verify_us"}) {
    EXPECT_EQ(metrics.GetHistogram(name)->count(), uint64_t{kSearches})
        << name;
  }
  auto sum = [&metrics](const char* name) {
    return metrics.GetHistogram(name)->sum();
  };
  EXPECT_EQ(sum("rewrite.phase.search_overhead_us") +
                sum("rewrite.phase.chase_us") +
                sum("rewrite.phase.compose_us") +
                sum("rewrite.phase.equiv_us"),
            sum("rewrite.verify_us"));
  EXPECT_EQ(metrics.GetHistogram("rewrite.phase.equiv_us")->count() +
                equiv_hits,
            tested);
}

TEST(ObsIntegrationTest, ServerCountersStayConsistentUnderLoad) {
  auto mediator = Mediator::Make({SourceDescription{
      "db", {DumpCapability("Dump", "db")}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  MetricRegistry metrics;
  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 256;
  options.metrics = &metrics;
  QueryServer server(std::move(mediator).value(), SmallCatalog(), options);

  auto query =
      ParseTslQuery("<f(P) out yes> :- <P p {<X name ann>}>@db", "Q");
  ASSERT_TRUE(query.ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        ServeOptions serve;
        serve.seed = static_cast<uint64_t>(c) * 100 + static_cast<uint64_t>(r);
        auto submitted = server.Submit(*query, serve);
        if (!submitted.ok()) continue;  // admission control may reject
        auto response = std::move(submitted).value().get();
        if (response.ok()) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Shutdown();

  const uint64_t requests = metrics.GetCounter("serve.requests")->value();
  const uint64_t completed = metrics.GetCounter("serve.completed")->value();
  const uint64_t failed = metrics.GetCounter("serve.failed")->value();
  EXPECT_EQ(completed, ok.load());
  EXPECT_EQ(requests, completed + failed);
  EXPECT_EQ(metrics.GetCounter("serve.accepted")->value(), requests);
  // Every cache lookup was a hit or a miss, one per request.
  EXPECT_EQ(metrics.GetCounter("serve.plan_cache_hits")->value() +
                metrics.GetCounter("serve.plan_cache_misses")->value(),
            requests);
  EXPECT_EQ(metrics.GetCounter("pool.tasks_run")->value(), requests);
  EXPECT_EQ(metrics.GetGauge("pool.queue_depth")->value(), 0);
}

TEST(ObsIntegrationTest, ServedEvalMetricsMatchTheTreeWalker) {
  // The mediator executes plans on the compiled IR; its eval.* metrics must
  // read what Evaluate reports for the same plan over the same view data.
  SourceCatalog catalog;
  catalog.Put(ParseOemDatabase("database db { "
                               "<p1 p { <n1 name ann> <n2 name bo> }> "
                               "<p2 p { <n3 name ann> }> }")
                  .ValueOrDie());
  const Capability dump = DumpCapability("Dump", "db");
  auto query = ParseTslQuery("<f(X) out N> :- <P p {<X name N>}>@db", "Q");
  ASSERT_TRUE(query.ok());

  MetricRegistry served;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &served;
  QueryServer server(
      Mediator::Make({SourceDescription{"db", {dump}}}).ValueOrDie(), catalog,
      options);
  auto submitted = server.Submit(*query, ServeOptions{});
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  auto response = std::move(submitted).value().get();
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->answer.complete());
  server.Shutdown();

  auto mediator = Mediator::Make({SourceDescription{"db", {dump}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  auto plans = mediator->Plan(*query);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_FALSE(plans->empty());
  SourceCatalog view_results;
  view_results.Put(MaterializeView(dump.view, catalog).ValueOrDie());
  MetricRegistry reference;
  EvalOptions eval;
  eval.metrics = &reference;
  ASSERT_TRUE(Evaluate(plans->front().rewriting, view_results, eval).ok());

  for (const char* counter : {"eval.rules", "eval.roots_emitted"}) {
    EXPECT_EQ(served.GetCounter(counter)->value(),
              reference.GetCounter(counter)->value())
        << counter;
  }
  const Histogram* served_rows = served.GetHistogram("eval.assignments");
  const Histogram* reference_rows =
      reference.GetHistogram("eval.assignments");
  EXPECT_EQ(served_rows->count(), 1u);
  EXPECT_EQ(served_rows->count(), reference_rows->count());
  EXPECT_EQ(served_rows->sum(), reference_rows->sum());
  EXPECT_GT(served_rows->sum(), 1u);
}

}  // namespace
}  // namespace tslrw
