// Byte-identity of indexed rewriting: for every query, RewriteQuery
// probing a view index must return exactly the RewriteResult of the full
// scan — same rewritings in the same order, same counters, same truncation
// flag, same footprint facts — and a mediator, which always plans through
// the index it built at Make, must plan and answer exactly as the full
// scan and the reference evaluator do, also under injected faults.
// docs/CATALOG.md states the argument; this suite pins it across fixture,
// DTD-constrained, and seeded-random catalogs.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/compiler.h"
#include "constraints/dtd.h"
#include "eval/evaluator.h"
#include "common/string_util.h"
#include "fixtures.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "mediator/wrapper.h"
#include "obs/metrics.h"
#include "rewrite/rewriter.h"
#include "rewrite/view_index.h"
#include "testing/random_rules.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

/// Every observable field of a RewriteResult, rendered. Two results with
/// equal renderings are byte-identical for the caller. The shared-work
/// diagnostics (cache hits, batches) are scheduling-dependent and outside
/// the determinism guarantee, so they stay out.
std::string JoinSet(const std::set<std::string>& keys) {
  return JoinMapped(keys, ",", [](const std::string& k) { return k; });
}

std::string Render(const RewriteResult& result) {
  std::string out;
  for (const TslQuery& q : result.rewritings) {
    out += q.ToString();
    out += "\n";
  }
  out += "mappings=" + std::to_string(result.mappings_found);
  out += " generated=" + std::to_string(result.candidates_generated);
  out += " tested=" + std::to_string(result.candidates_tested);
  out += result.truncated ? " truncated" : "";
  out += "\nviews_touched=" + JoinSet(result.views_touched);
  out += "\nfired_constraints=" + JoinSet(result.fired_constraints);
  return out;
}

/// Checks RewriteQuery(query) probing \p index renders identically to the
/// full scan. Returns the probe's skip count so callers can assert pruning
/// actually happened.
uint64_t ExpectProbeMatchesFullScan(const TslQuery& query,
                                    const std::vector<TslQuery>& views,
                                    const StructuralConstraints* constraints,
                                    const ViewIndex& index,
                                    const std::string& which) {
  RewriteOptions plain;
  plain.constraints = constraints;
  auto full = RewriteQuery(query, views, plain);

  MetricRegistry metrics;
  RewriteOptions indexed = plain;
  indexed.view_index = &index;
  indexed.metrics = &metrics;
  auto fast = RewriteQuery(query, views, indexed);

  EXPECT_EQ(full.ok(), fast.ok())
      << which << ": " << full.status() << " vs " << fast.status();
  if (full.ok() && fast.ok()) {
    EXPECT_EQ(Render(*full), Render(*fast)) << which << ": "
                                            << query.ToString();
  }
  EXPECT_EQ(metrics.GetCounter("catalog.index_misses")->value(), 0u) << which;
  return metrics.GetCounter("catalog.index_views_skipped")->value();
}

/// Probes two indexes over \p views against the full scan: the one a
/// Mediator builds at Make and the compiled catalog's. Returns the
/// Make-time index's skip count.
uint64_t ExpectIndexedMatchesFullScan(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const StructuralConstraints* constraints) {
  const uint64_t skipped = ExpectProbeMatchesFullScan(
      query, views, constraints, ViewIndex::Build(views, constraints),
      "built");

  auto catalog = CompileCatalog(DescribeViews(views), constraints);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  if (!catalog.ok()) return skipped;
  ExpectProbeMatchesFullScan(query, views, constraints, catalog->index(),
                             "compiled");
  return skipped;
}

TEST(CatalogEquivalenceTest, PaperFixtureSuite) {
  std::vector<TslQuery> views = {
      MustParse(testing::kV1, "V1"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' other {<X' l0 Z'>}>@db",
                "Unrelated"),
  };
  uint64_t skipped = 0;
  skipped += ExpectIndexedMatchesFullScan(MustParse(testing::kQ3, "Q3"),
                                          views, nullptr);
  skipped += ExpectIndexedMatchesFullScan(MustParse(testing::kQ5, "Q5"),
                                          views, nullptr);
  // The `other`-rooted view cannot map into a `p`-rooted query: the index
  // must actually prune it, not just match by accident.
  EXPECT_GT(skipped, 0u);
}

TEST(CatalogEquivalenceTest, DtdConstrainedSuite) {
  auto dtd = Dtd::Parse(
      "<!ELEMENT root (leaf)> <!ELEMENT leaf CDATA>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).ValueOrDie());
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' leaf Z'>}>@db",
                "Leaf"),
      // Proven empty by the chase (one leaf per root, conflicting tails):
      // the compiled index drops it exactly as the full scan does.
      MustParse("<v(P') vout yes> :- "
                "<P' root {<X1' leaf va>}>@db AND "
                "<P' root {<X2' leaf vb>}>@db",
                "Empty"),
  };
  TslQuery fused = MustParse(
      "<f(P) out Z> :- "
      "<P root {<X1 leaf Z>}>@db AND <P root {<X2 leaf va>}>@db",
      "QF");
  TslQuery simple =
      MustParse("<f(P) out Z> :- <P root {<X leaf Z>}>@db", "QS");
  ExpectIndexedMatchesFullScan(fused, views, &constraints);
  ExpectIndexedMatchesFullScan(simple, views, &constraints);
}

TEST(CatalogEquivalenceTest, SeededRandomSuite) {
  uint64_t skipped = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    testing::RandomRules rules(seed, /*num_labels=*/3, /*num_values=*/3,
                               "root");
    std::vector<TslQuery> views = {
        rules.View("V0", "db"),
        rules.CopyView("V1", "db"),
        rules.DeepView("V2", "db"),
        rules.View("V3", "db"),
        rules.DeepView("V4", "db"),
    };
    TslQuery query = rules.Query("Q", "db");
    skipped +=
        ExpectIndexedMatchesFullScan(query, views, nullptr);
  }
  // Across 25 seeds the signature probe must have pruned something:
  // a probe that admits everything would trivially pass the identity
  // checks above without testing the pruning path at all.
  EXPECT_GT(skipped, 0u);
}

// --- mediator integration: identical plans, identical degradation -----------

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
    })"));
  catalog.Put(MustParseDb(R"(
    database s2 {
      <b1 publication {
        <u1 title "Wrappers"> <w1 venue "SIGMOD"> <x1 year "1997">
      }>
    })"));
  return catalog;
}

std::vector<SourceDescription> BiblioSources() {
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
  return {SourceDescription{"s1", {y97}}, SourceDescription{"s2", {dump}}};
}

TslQuery Sigmod97Query() {
  return MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod97");
}

std::string RenderAnswer(const DegradedAnswer& answer) {
  std::string out = answer.result.ToString();
  out += "completeness=";
  out += CompletenessToString(answer.completeness);
  for (const std::string& s : answer.unreachable_sources) {
    out += " unreachable:" + s;
  }
  out += "\n";
  out += answer.report.ToString();
  return out;
}

std::vector<TslQuery> ViewsOf(const std::vector<SourceDescription>& sources) {
  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) views.push_back(cap.view);
  }
  return views;
}

/// A plan search's observable output, rendered: the rewritings (sorted —
/// the mediator orders plans by cost), the search counters, and the
/// footprint the maintenance layer keys on.
std::string RenderSearch(std::vector<std::string> rewritings,
                         size_t generated, size_t tested,
                         const std::set<std::string>& views_touched,
                         const std::set<std::string>& fired_constraints) {
  std::sort(rewritings.begin(), rewritings.end());
  std::string out = Join(rewritings, "\n");
  out += "\ngenerated=" + std::to_string(generated);
  out += " tested=" + std::to_string(tested);
  out += "\nviews_touched=" + JoinSet(views_touched);
  out += "\nfired_constraints=" + JoinSet(fired_constraints);
  return out;
}

/// The mediator's plan set for \p query must render exactly as the full
/// scan's total rewritings over the same capability views.
void ExpectPlansMatchFullScan(const Mediator& mediator,
                              const TslQuery& query) {
  RewriteOptions options;
  options.constraints = mediator.constraints();
  options.require_total = true;
  auto full = RewriteQuery(query, ViewsOf(mediator.sources()), options);
  ASSERT_TRUE(full.ok()) << full.status();
  std::vector<std::string> full_rewritings;
  for (const TslQuery& rw : full->rewritings) {
    full_rewritings.push_back(rw.ToString());
  }

  MetricRegistry metrics;
  auto plans = mediator.Plan(query, 1, nullptr, &metrics);
  ASSERT_TRUE(plans.ok()) << plans.status();
  std::vector<std::string> planned;
  for (const MediatorPlan& plan : plans->plans) {
    planned.push_back(plan.rewriting.ToString());
  }
  EXPECT_EQ(RenderSearch(planned, plans->search.candidates_generated,
                         plans->search.candidates_tested,
                         plans->footprint.view_names,
                         plans->footprint.fired_constraints),
            RenderSearch(full_rewritings, full->candidates_generated,
                         full->candidates_tested, full->views_touched,
                         full->fired_constraints));
  EXPECT_EQ(plans->truncated, full->truncated);
  // The search really went through the mediator's own index.
  EXPECT_EQ(metrics.GetCounter("catalog.index_probes")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("catalog.index_misses")->value(), 0u);
}

TEST(CatalogEquivalenceTest, MediatorAnswersIdenticallyThroughTheIndex) {
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  SourceCatalog catalog = BiblioCatalog();
  TslQuery query = Sigmod97Query();
  ExpectPlansMatchFullScan(*mediator, query);

  auto answer = mediator->Answer(query, catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->complete());
  auto expected = Evaluate(query, catalog, {.answer_name = query.name});
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(answer->result.Equals(*expected))
      << answer->result.ToString() << "\nvs\n" << expected->ToString();
}

TEST(CatalogEquivalenceTest, DegradedAnswersAreIdenticalUnderFaults) {
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  SourceCatalog catalog = BiblioCatalog();
  // With s1 dead every plan fails over into the \S7 fallback: the
  // mediator must walk the full scan's plans, declare the same source
  // dead, and stay sound against the reference evaluator — and a replay
  // under the same seed must render byte for byte the same.
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<U year \"1997\">}>@s1",
      "Q97");
  ExpectPlansMatchFullScan(*mediator, query);
  auto expected = Evaluate(query, catalog, {.answer_name = query.name});
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto run = [&]() -> std::optional<DegradedAnswer> {
      CatalogWrapper base;
      VirtualClock clock;
      FaultInjector injector(&base, seed, &clock);
      FaultSchedule dead;
      dead.steady_state = Fault::Unavailable();
      injector.SetSchedule("s1", dead);
      ExecutionPolicy policy;
      policy.wrapper = &injector;
      policy.clock = &clock;
      policy.seed = seed;
      policy.retry.max_attempts = 2;
      policy.retry.initial_backoff_ticks = 1;
      auto answer = mediator->Answer(query, catalog, policy);
      EXPECT_TRUE(answer.ok()) << answer.status();
      if (!answer.ok()) return std::nullopt;
      return std::move(answer).value();
    };
    std::optional<DegradedAnswer> a = run();
    std::optional<DegradedAnswer> b = run();
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(RenderAnswer(*a), RenderAnswer(*b)) << "seed " << seed;
    EXPECT_EQ(a->completeness, Completeness::kDegraded) << "seed " << seed;
    EXPECT_EQ(a->unreachable_sources, std::vector<std::string>{"s1"});
    // Sound: every root served is a root of the reference answer.
    for (const Term& root : a->result.roots()) {
      EXPECT_NE(expected->Find(root), nullptr)
          << "seed " << seed << ": " << root.ToString();
    }
  }
}

}  // namespace
}  // namespace tslrw
