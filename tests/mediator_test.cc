#include "mediator/mediator.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/dtd.h"
#include "eval/evaluator.h"
#include "fixtures.h"
#include "mediator/cache.h"
#include "obs/metrics.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

/// Two bibliographic sources with different publications (the Fig. 1/2
/// integration scenario). Source s1 only supports year-filtered queries;
/// source s2 exports everything.
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

/// s1's interface: only year-1997 queries (a fixed-constant capability).
/// The view republishes matching publications with all their subobjects.
Capability Year97Capability() {
  Capability cap;
  cap.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  return cap;
}

/// s2's interface: any publication dump.
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

TEST(MediatorTest, ValidationCatchesBadDescriptions) {
  Capability unnamed = Year97Capability();
  unnamed.view.name.clear();
  EXPECT_FALSE(
      Mediator::Make({SourceDescription{"s1", {unnamed}}}).ok());

  Capability foreign = Year97Capability();
  EXPECT_FALSE(
      Mediator::Make({SourceDescription{"s2", {foreign}}}).ok());

  Capability dup = Year97Capability();
  EXPECT_FALSE(Mediator::Make({SourceDescription{
                   "s1", {Year97Capability(), dup}}})
                   .ok());

  Capability ghost_param = Year97Capability();
  ghost_param.bound_variables = {"Nope'"};
  EXPECT_FALSE(
      Mediator::Make({SourceDescription{"s1", {ghost_param}}}).ok());
}

TEST(MediatorTest, Sigmod97RunningExample) {
  // The \S1 running example: all "SIGMOD 97" publications. s1 can only be
  // asked for year=1997; the SIGMOD filter runs at the mediator, expressed
  // as a condition over the view's output.
  Mediator mediator = MakeBiblioMediator();
  TslQuery query = MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod97");
  auto plans = mediator.Plan(query);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_GE(plans->size(), 1u);
  EXPECT_EQ(plans->front().views_used, std::vector<std::string>{"Y97"});

  SourceCatalog catalog = BiblioCatalog();
  auto answer = mediator.Execute(plans->front(), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Only a1 ("Views", SIGMOD, 1997) qualifies in s1.
  EXPECT_EQ(answer->roots().size(), 1u);
  EXPECT_NE(answer->Find(Term::MakeFunc("f", {Term::MakeAtom("a1")})),
            nullptr);

  // Cross-check against evaluating the user query on the raw source.
  auto direct = Evaluate(query, catalog, {.answer_name = "direct"});
  ASSERT_TRUE(direct.ok());
  OemDatabase renamed = *answer;
  renamed.set_name("direct");
  EXPECT_TRUE(renamed.Equals(*direct));
}

TEST(MediatorTest, QueryOutsideCapabilitiesHasNoPlan) {
  // s1 cannot answer year-1993 queries: its only capability fixes 1997.
  Mediator mediator = MakeBiblioMediator();
  TslQuery query = MustParse(
      "<f(P) sigmod93 yes> :- "
      "<P publication {<U year \"1993\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod93");
  auto plans = mediator.Plan(query);
  ASSERT_TRUE(plans.ok()) << plans.status();
  EXPECT_TRUE(plans->empty());
  auto answer = mediator.Answer(query, BiblioCatalog());
  EXPECT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsNotFound());
}

TEST(MediatorTest, PlansSortedByCost) {
  // Against s2's dump capability, both single-view plans and any larger
  // ones are found; the cheapest comes first.
  Mediator mediator = MakeBiblioMediator();
  TslQuery query = MustParse(
      "<f(P) s2pub yes> :- <P publication {<W venue \"SIGMOD\">}>@s2",
      "S2Pubs");
  auto plans = mediator.Plan(query);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_GE(plans->size(), 1u);
  for (size_t i = 1; i < plans->size(); ++i) {
    EXPECT_LE((*plans)[i - 1].cost, (*plans)[i].cost);
  }
}

TEST(MediatorTest, ParameterizedCapabilityRequiresConstant) {
  // s2 also offers "publications with venue = $W": the parameter surfaces
  // through the head Skolem and must be instantiated by the rewriting.
  Capability by_venue;
  by_venue.view = MustParse(
      "<bv(P',W') pub {<X' Y' Z'>}> :- "
      "<P' publication {<V' venue W'>}>@s2 AND "
      "<P' publication {<X' Y' Z'>}>@s2",
      "ByVenue");
  by_venue.bound_variables = {"W'"};
  auto mediator = Mediator::Make({SourceDescription{"s2", {by_venue}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();

  // Constant venue: the parameter is bound; a plan exists.
  TslQuery constant = MustParse(
      "<f(P) out yes> :- <P publication {<V venue \"SIGMOD\">}>@s2", "C");
  auto plans = mediator->Plan(constant);
  ASSERT_TRUE(plans.ok()) << plans.status();
  EXPECT_GE(plans->size(), 1u);

  // Venue left variable: the source cannot run the template; no plan.
  TslQuery open = MustParse(
      "<f(P,W) out W> :- <P publication {<V venue W>}>@s2", "O");
  auto open_plans = mediator->Plan(open);
  ASSERT_TRUE(open_plans.ok()) << open_plans.status();
  EXPECT_TRUE(open_plans->empty());
}

TEST(MediatorTest, ConsolidatesAcrossSources) {
  // A two-source query joins nothing but unions per-source answers under
  // distinct Skolem oids.
  Mediator mediator = MakeBiblioMediator();
  TslQuery query = MustParse(
      "<f(P,R) pair yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<R publication {<W year \"1997\">}>@s2",
      "Pairs");
  auto answer = mediator.Answer(query, BiblioCatalog());
  ASSERT_TRUE(answer.ok()) << answer.status();
  // a1, a2 from s1 x b1 from s2 = 2 pairs.
  EXPECT_EQ(answer->result.roots().size(), 2u);
  EXPECT_TRUE(answer->complete()) << answer->report.ToString();
  EXPECT_TRUE(answer->unreachable_sources.empty());
}

// --- Cached queries (\S1, Lore scenario) ------------------------------------

TEST(QueryCacheTest, AnswersFromCacheWithoutTouchingBase) {
  SourceCatalog catalog = BiblioCatalog();
  QueryCache cache;
  // Cache "all SIGMOD publications" (with their subobjects).
  TslQuery sigmod_all = MustParse(
      "<c(P') sig {<X' Y' Z'>}> :- "
      "<P' publication {<V' venue \"SIGMOD\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "SigmodCache");
  ASSERT_TRUE(cache.InsertAndMaterialize(sigmod_all, catalog).ok());
  EXPECT_EQ(cache.size(), 1u);

  // "SIGMOD 97" filters the cached result for 1997 — the paper's \S1
  // cached-query illustration.
  TslQuery query = MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<V venue \"SIGMOD\">}>@s1 AND "
      "<P publication {<U year \"1997\">}>@s1",
      "Sigmod97");
  SourceCatalog empty;  // prove base data is not needed
  auto answer = cache.TryAnswer(query, empty, /*allow_base_fallback=*/false);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->from_cache);
  EXPECT_TRUE(answer->base_conditions.empty());  // a pure cache hit
  EXPECT_EQ(answer->result.roots().size(), 1u);  // only a1

  // Matches direct evaluation over the base.
  auto direct = Evaluate(query, catalog, {.answer_name = "answer"});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(answer->result.Equals(*direct));
}

TEST(QueryCacheTest, MissWithoutFallbackIsNotFound) {
  QueryCache cache;
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<U year \"1997\">}>@s1", "Q");
  auto answer =
      cache.TryAnswer(query, BiblioCatalog(), /*allow_base_fallback=*/false);
  EXPECT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsNotFound());
}

TEST(QueryCacheTest, MissWithFallbackEvaluatesBase) {
  QueryCache cache;
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P publication {<U year \"1997\">}>@s1", "Q");
  auto answer =
      cache.TryAnswer(query, BiblioCatalog(), /*allow_base_fallback=*/true);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(answer->from_cache);
  EXPECT_EQ(answer->result.roots().size(), 2u);  // a1, a2
  // Full fallback: every condition ran against base data.
  ASSERT_EQ(answer->base_conditions.size(), query.body.size());
  EXPECT_EQ(answer->base_conditions[0].source, "s1");
}

TEST(QueryCacheTest, PartialRewritingReportsBaseConditions) {
  // The cache covers the s1 half of the query; the s2 condition has no
  // cached statement and must run against base data. The answer says so.
  SourceCatalog catalog = BiblioCatalog();
  QueryCache cache;
  TslQuery sigmod_all = MustParse(
      "<c(P') sig {<X' Y' Z'>}> :- "
      "<P' publication {<V' venue \"SIGMOD\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "SigmodCache");
  ASSERT_TRUE(cache.InsertAndMaterialize(sigmod_all, catalog).ok());

  TslQuery query = MustParse(
      "<f(P,R) pair yes> :- "
      "<P publication {<V venue \"SIGMOD\">}>@s1 AND "
      "<R publication {<W year \"1997\">}>@s2",
      "Mixed");
  auto answer = cache.TryAnswer(query, catalog, /*allow_base_fallback=*/true);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_FALSE(answer->base_conditions.empty());
  for (const Condition& c : answer->base_conditions) {
    EXPECT_EQ(c.source, "s2") << c.ToString();
  }
  EXPECT_LT(answer->base_conditions.size(), answer->rewriting.body.size())
      << "the s1 side should have come from the cache";
}

TEST(MediatorTest, AnalyzerRefusesErrorLevelCapabilityViews) {
  // An unsafe capability view (head variable W' absent from the body)
  // would poison every plan using it; Make refuses with the analyzer's
  // coded diagnostics instead of failing later at rewrite time.
  Capability broken;
  broken.view =
      MustParse("<bad(P') out W'> :- <P' publication V'>@s1", "Bad");
  auto mediator = Mediator::Make({SourceDescription{"s1", {broken}}});
  ASSERT_FALSE(mediator.ok());
  EXPECT_EQ(mediator.status().code(), StatusCode::kIllFormedQuery);
  EXPECT_NE(mediator.status().message().find("TSL001"), std::string::npos)
      << mediator.status();
}

TEST(MediatorTest, MakeRefusesViewsUnsatisfiableUnderConstraints) {
  // Every error-level code comes from a per-rule pass, so Make refuses
  // without the cross-rule dead-view pass: TSL001 above, TSL006 here.
  // The person DTD gives `p` no `zebra` child, so this body can match no
  // conforming data; without the constraints it is satisfiable.
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).value());
  Capability zebra;
  zebra.view =
      MustParse("<z(P') out yes> :- <P' p {<Z' zebra u>}>@db", "Zebra");
  auto unsatisfiable =
      Mediator::Make({SourceDescription{"db", {zebra}}}, &constraints);
  ASSERT_FALSE(unsatisfiable.ok());
  EXPECT_EQ(unsatisfiable.status().code(), StatusCode::kIllFormedQuery);
  EXPECT_NE(unsatisfiable.status().message().find("TSL006"),
            std::string::npos)
      << unsatisfiable.status();
  EXPECT_TRUE(Mediator::Make({SourceDescription{"db", {zebra}}}).ok());
}

TEST(MediatorTest, MakeAcceptsInterchangeableViews) {
  // Two interchangeable capability views: each is dead given the other
  // (TSL104, which the offline analyzer reports), but warnings never
  // refuse the sources, and both views stay usable plans.
  Capability a;
  a.view = MustParse("<da(X') pub Z'> :- <X' publication Z'>@s1", "Da");
  Capability b;
  b.view = MustParse("<db(X') pub Z'> :- <X' publication Z'>@s1", "Db");
  auto mediator = Mediator::Make({SourceDescription{"s1", {a, b}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  auto plans = mediator->Plan(
      MustParse("<f(X') pub Z'> :- <X' publication Z'>@s1", "Q"));
  ASSERT_TRUE(plans.ok()) << plans.status();
  std::set<std::string> used;
  for (const MediatorPlan& plan : *plans) {
    used.insert(plan.views_used.begin(), plan.views_used.end());
  }
  EXPECT_EQ(used, (std::set<std::string>{"Da", "Db"}));
}

TEST(MediatorTest, HedgePartnersAreTheAlphaEquivalentReplicas) {
  auto cap = [](const std::string& text, const std::string& name,
                std::set<std::string> bound) {
    Capability c;
    c.view = MustParse(text, name);
    c.bound_variables = std::move(bound);
    return c;
  };
  const std::string y97 =
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1";
  // α-renamed and body-reordered; X' keeps its name so it can stay bound.
  const std::string mirror =
      "<y97(Q') pub {<X' B' C'>}> :- "
      "<Q' publication {<X' B' C'>}>@s1 AND "
      "<Q' publication {<W' year \"1997\">}>@s1";
  // Same condition α-keys and head as `wired`, but Z' no longer joins the
  // two conditions: only the in-group canonicalization tells them apart.
  const std::string wired =
      "<w(P') o yes> :- <P' a {<X' b Z'>}>@s1 AND <P' a {<Y' c Z'>}>@s1";
  const std::string unwired =
      "<w(P') o yes> :- <P' a {<X' b Z'>}>@s1 AND <P' a {<Y' c W'>}>@s1";
  std::string y96 = y97;
  y96.replace(y96.find("1997"), 4, "1996");
  auto mediator = Mediator::Make({SourceDescription{
      "s1",
      {cap(y97, "Y97", {}), cap(mirror, "Y97m", {}),
       cap(y97, "Y97x", {"X'"}), cap(mirror, "Y97mx", {"X'"}),
       cap(mirror, "Y97mb", {"B'"}), cap(y96, "Y96", {}),
       cap(wired, "Wired", {}), cap(unwired, "Unwired", {})}}});
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  using Partners = std::map<std::string, std::vector<std::string>>;
  EXPECT_EQ(mediator->hedge_partners(),
            (Partners{{"Y97", {"Y97m"}},
                      {"Y97m", {"Y97"}},
                      {"Y97mx", {"Y97x"}},
                      {"Y97x", {"Y97mx"}}}));
}

TEST(MediatorTest, PlanSearchSkipsFillerViewsThroughItsIndex) {
  // Five filler capabilities over s1 whose bodies need a label no
  // bibliography query mentions: the index built at Make proves they
  // admit no containment mapping, so the search never maps them — and
  // finds exactly the mappings the full scan finds.
  std::vector<Capability> s1_caps = {Year97Capability()};
  for (int i = 0; i < 5; ++i) {
    Capability filler;
    filler.view = MustParse(
        "<fill" + std::to_string(i) + "(P') pub {<X' Y' Z'>}> :- <P' filler" +
            std::to_string(i) + " {<X' Y' Z'>}>@s1",
        "Filler" + std::to_string(i));
    s1_caps.push_back(filler);
  }
  std::vector<SourceDescription> sources = {
      SourceDescription{"s1", s1_caps},
      SourceDescription{"s2", {DumpCapability()}}};
  auto mediator = Mediator::Make(sources);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  TslQuery query = MustParse(
      "<f(P) sigmod97 yes> :- "
      "<P publication {<U year \"1997\">}>@s1 AND "
      "<P publication {<V venue \"SIGMOD\">}>@s1",
      "Sigmod97");

  MetricRegistry metrics;
  auto plans = mediator->Plan(query, 1, nullptr, &metrics);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_GE(plans->size(), 1u);
  EXPECT_EQ(plans->front().views_used, std::vector<std::string>{"Y97"});
  EXPECT_EQ(metrics.GetCounter("catalog.index_probes")->value(), 1u);
  // The five fillers, plus Dump2, whose s2 body cannot map into an s1-only
  // query.
  EXPECT_EQ(metrics.GetCounter("catalog.index_views_skipped")->value(), 6u);
  EXPECT_EQ(metrics.GetCounter("catalog.index_views_admitted")->value(), 1u);

  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) views.push_back(cap.view);
  }
  RewriteOptions full_scan;
  full_scan.require_total = true;
  auto full = RewriteQuery(query, views, full_scan);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(metrics.GetCounter("rewrite.mappings_found")->value(),
            full->mappings_found);
  EXPECT_GT(full->mappings_found, 0u);
}

TEST(QueryCacheTest, InsertValidatesNames) {
  QueryCache cache;
  TslQuery unnamed = MustParse(testing::kV1);
  unnamed.name.clear();
  EXPECT_FALSE(cache.Insert(unnamed, OemDatabase("x")).ok());
  TslQuery named = MustParse(testing::kV1, "V1");
  EXPECT_FALSE(cache.Insert(named, OemDatabase("wrong")).ok());
  EXPECT_TRUE(cache.Insert(named, OemDatabase("V1")).ok());
}

}  // namespace
}  // namespace tslrw
