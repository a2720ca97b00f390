#include "maint/invalidate.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/diff.h"
#include "constraints/dtd.h"
#include "fixtures.h"
#include "maint/footprint.h"
#include "service/canonical.h"
#include "service/plan_cache.h"
#include "service/server.h"

namespace tslrw {
namespace {

using testing::MustParse;

Capability Cap(std::string_view text, std::string name) {
  Capability cap;
  cap.view = MustParse(text, std::move(name));
  return cap;
}

/// One source `db` with label-l0 and label-l1 copy views (the catalog the
/// decider tests mutate around).
Capability ViewA() {
  return Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l0 U'>}>@db", "VA");
}
Capability ViewB() {
  return Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l1 U'>}>@db", "VB");
}
/// ViewB with a genuinely different body (l2 instead of l1).
Capability ViewBEdited() {
  return Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l2 U'>}>@db", "VB");
}

std::vector<SourceDescription> Sources(std::vector<Capability> caps) {
  return {SourceDescription{"db", std::move(caps)}};
}

StructuralConstraints RecDtd() {
  auto dtd = Dtd::Parse("<!ELEMENT rec (l0*, l1*)> <!ELEMENT l0 CDATA>");
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return StructuralConstraints(std::move(dtd).ValueOrDie());
}

/// A captured footprint for a plan set computed against the delta's old
/// catalog whose search consulted only \p consulted and whose chased query
/// carries one \p body_label condition.
PlanFootprint FootprintOver(const std::set<std::string>& consulted,
                            std::string_view body_label) {
  PlanFootprint footprint;
  footprint.captured = true;
  footprint.view_names = consulted;
  footprint.query_sources = {"db"};
  footprint.chased_query = MustParse(
      std::string("<f(P) out yes> :- <P rec {<X ") + std::string(body_label) +
          " U>}>@db",
      "Q");
  return footprint;
}

// --- catalog deltas ---------------------------------------------------------

/// ViewA re-spelled with consistently renamed variables.
Capability ViewARenamed() {
  return Cap("<v(Q') o {<w(Y') m W'>}> :- <Q' rec {<Y' l0 W'>}>@db", "VA");
}

TEST(CatalogDeltaTest, AlphaRenamedViewDiffsEmpty) {
  CatalogDelta delta = ComputeCatalogDelta(Sources({ViewA(), ViewB()}),
                                           nullptr,
                                           Sources({ViewARenamed(), ViewB()}),
                                           nullptr);
  EXPECT_TRUE(delta.empty()) << delta.ToString();
  // The bound set is compared in the canonical alphabet, so a binding
  // re-spelled along with its variable is still the same view.
  Capability bound = ViewA();
  bound.bound_variables = {"U'"};
  Capability bound_renamed = ViewARenamed();
  bound_renamed.bound_variables = {"W'"};
  EXPECT_TRUE(ComputeCatalogDelta(Sources({bound}), nullptr,
                                  Sources({bound_renamed}), nullptr)
                  .empty());
}

TEST(CatalogDeltaTest, NameBodyAndBindingsAllDistinguish) {
  // Same rule, different capability name: one view leaves, another comes.
  Capability other_name =
      Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l0 U'>}>@db", "VZ");
  CatalogDelta renamed = ComputeCatalogDelta(Sources({ViewA()}), nullptr,
                                             Sources({other_name}), nullptr);
  EXPECT_EQ(renamed.added, std::vector<std::string>{"VZ"});
  EXPECT_EQ(renamed.removed, std::vector<std::string>{"VA"});
  EXPECT_TRUE(renamed.changed.empty());
  // Same name, different body label.
  Capability other_body = ViewB();
  other_body.view.name = "VA";
  CatalogDelta body = ComputeCatalogDelta(Sources({ViewA()}), nullptr,
                                          Sources({other_body}), nullptr);
  EXPECT_EQ(body.changed, std::vector<std::string>{"VA"}) << body.ToString();
  // Same rule, one variable now requires a binding.
  Capability bound = ViewA();
  bound.bound_variables = {"U'"};
  CatalogDelta bindings = ComputeCatalogDelta(Sources({ViewA()}), nullptr,
                                              Sources({bound}), nullptr);
  EXPECT_EQ(bindings.changed, std::vector<std::string>{"VA"})
      << bindings.ToString();
}

TEST(CatalogDeltaTest, DuplicateNamesAreFoldedByName) {
  // Both copies of VA fold into one identity, so the duplicate shows up as
  // a change of VA, not as an added or removed view.
  CatalogDelta duplicated =
      ComputeCatalogDelta(Sources({ViewA(), ViewB()}), nullptr,
                          Sources({ViewA(), ViewA(), ViewB()}), nullptr);
  EXPECT_TRUE(duplicated.added.empty());
  EXPECT_TRUE(duplicated.removed.empty());
  EXPECT_EQ(duplicated.changed, std::vector<std::string>{"VA"});
  // Two same-named views that differ only in catalog order and spelling
  // fold to the same identity.
  Capability other_va = ViewB();
  other_va.view.name = "VA";
  EXPECT_TRUE(ComputeCatalogDelta(Sources({ViewA(), other_va}), nullptr,
                                  Sources({other_va, ViewARenamed()}),
                                  nullptr)
                  .empty());
}

TEST(CatalogDeltaTest, IdenticalCatalogsDiffEmpty) {
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA(), ViewB()}), nullptr, Sources({ViewA(), ViewB()}),
      nullptr);
  EXPECT_TRUE(delta.empty()) << delta.ToString();
}

TEST(CatalogDeltaTest, ClassifiesAddedRemovedAndChanged) {
  CatalogDelta delta =
      ComputeCatalogDelta(Sources({ViewA(), ViewB()}), nullptr,
                          Sources({ViewBEdited(),
                                   Cap("<v(P') o {<w(X') m U'>}> :- "
                                       "<P' rec {<X' l3 U'>}>@db",
                                       "VC")}),
                          nullptr);
  EXPECT_EQ(delta.added, std::vector<std::string>{"VC"});
  EXPECT_EQ(delta.removed, std::vector<std::string>{"VA"});
  EXPECT_EQ(delta.changed, std::vector<std::string>{"VB"});
  EXPECT_FALSE(delta.constraints_changed);
  EXPECT_EQ(delta.ToString(), "+1 -1 ~1 views, constraints unchanged");
}

TEST(CatalogDeltaTest, ViewMovingBetweenSourceDescriptionsIsUnchanged) {
  std::vector<SourceDescription> split = {
      SourceDescription{"db", {ViewA()}},
      SourceDescription{"db2", {ViewB()}}};
  std::vector<SourceDescription> merged = {
      SourceDescription{"db", {ViewA(), ViewB()}},
      SourceDescription{"db2", {}}};
  EXPECT_TRUE(ComputeCatalogDelta(split, nullptr, merged, nullptr).empty());
}

TEST(CatalogDeltaTest, DeltaViewNamedLikeAReferencedSourceIsAHazard) {
  // The new view is *named* "db" — the source every body references. View
  // names form the constraint-exempt chase set, so this addition can
  // change the stored chase of untouched views: flagged for a full flush.
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA()}), nullptr,
      Sources({ViewA(),
               Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l1 U'>}>@db",
                   "db")}),
      nullptr);
  EXPECT_TRUE(delta.exempt_hazard) << delta.ToString();
  EXPECT_FALSE(delta.empty());
}

// --- the invalidation decider -----------------------------------------------

TEST(InvalidationDeciderTest, EmptyDeltaIsANoop) {
  CatalogDelta delta = ComputeCatalogDelta(Sources({ViewA()}), nullptr,
                                           Sources({ViewA()}), nullptr);
  InvalidationDecider decider(delta, Sources({ViewA()}), nullptr);
  EXPECT_TRUE(decider.no_op());
  EXPECT_FALSE(decider.full_flush());
  EXPECT_FALSE(decider.ShouldInvalidate(PlanFootprint{}));  // even uncaptured
}

TEST(InvalidationDeciderTest, ConstraintsChangeFlushesEverything) {
  StructuralConstraints dtd = RecDtd();
  CatalogDelta delta = ComputeCatalogDelta(Sources({ViewA()}), nullptr,
                                           Sources({ViewA()}), &dtd);
  ASSERT_TRUE(delta.constraints_changed);
  InvalidationDecider decider(delta, Sources({ViewA()}), &dtd);
  EXPECT_TRUE(decider.full_flush());
  EXPECT_EQ(decider.flush_reason(), "constraints changed");
  EXPECT_TRUE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, ExemptHazardFlushesEverything) {
  // A new view named like the source every body reads: view names form the
  // chase's constraint-exempt set, so untouched views' stored chases may no
  // longer be valid — per-entry reasoning is off the table.
  std::vector<SourceDescription> after = Sources(
      {ViewA(),
       Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' l1 U'>}>@db", "db")});
  CatalogDelta delta =
      ComputeCatalogDelta(Sources({ViewA()}), nullptr, after, nullptr);
  ASSERT_TRUE(delta.exempt_hazard);
  InvalidationDecider decider(delta, after, nullptr);
  EXPECT_TRUE(decider.full_flush());
  EXPECT_NE(decider.flush_reason().find("doubles as a source"),
            std::string::npos)
      << decider.flush_reason();
  EXPECT_TRUE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, RegexProbeViewFlushesEverything) {
  // A regex-path view makes every fresh plan search fail (§7 future work);
  // retaining entries would diverge from that failure, so the decider
  // refuses to reason per entry.
  std::vector<SourceDescription> after = Sources(
      {ViewA(),
       Cap("<v(P') o {<w(X') m U'>}> :- <P' rec {<X' ** U'>}>@db", "VR")});
  CatalogDelta delta =
      ComputeCatalogDelta(Sources({ViewA()}), nullptr, after, nullptr);
  ASSERT_EQ(delta.added.size(), 1u);
  InvalidationDecider decider(delta, after, nullptr);
  EXPECT_TRUE(decider.full_flush());
  EXPECT_NE(decider.flush_reason().find("regular path expressions"),
            std::string::npos)
      << decider.flush_reason();
  EXPECT_TRUE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, UnsatisfiableAddedViewIsSkippedNotProbed) {
  // Under <!ELEMENT rec (l0)> a rec has exactly one l0 child, so the added
  // view's two constant tails fuse and conflict: the chase proves it always
  // empty. An always-empty view can extend no cached plan — the decider
  // skips the probe instead of flushing, and warm entries survive.
  auto dtd = Dtd::Parse("<!ELEMENT rec (l0)>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).ValueOrDie());
  std::vector<SourceDescription> after = Sources(
      {ViewA(),
       Cap("<v(P') o {<w(X') m yes>}> :- <P' rec {<X1' l0 va>}>@db AND "
           "<P' rec {<X2' l0 vb>}>@db",
           "VE")});
  CatalogDelta delta = ComputeCatalogDelta(Sources({ViewA()}), &constraints,
                                           after, &constraints);
  ASSERT_FALSE(delta.constraints_changed);
  ASSERT_EQ(delta.added.size(), 1u);
  InvalidationDecider decider(delta, after, &constraints);
  EXPECT_FALSE(decider.full_flush());
  EXPECT_FALSE(decider.no_op());
  EXPECT_FALSE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, UncapturedFootprintsAreAlwaysInvalidated) {
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA(), ViewB()}), nullptr,
      Sources({ViewA(), ViewBEdited()}), nullptr);
  InvalidationDecider decider(delta, Sources({ViewA(), ViewBEdited()}),
                              nullptr);
  EXPECT_FALSE(decider.no_op());
  EXPECT_FALSE(decider.full_flush());
  EXPECT_TRUE(decider.ShouldInvalidate(PlanFootprint{}));
}

TEST(InvalidationDeciderTest, ConsultedViewWhoseIdentityChangedInvalidates) {
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA(), ViewB()}), nullptr,
      Sources({ViewA(), ViewBEdited()}), nullptr);
  InvalidationDecider decider(delta, Sources({ViewA(), ViewBEdited()}),
                              nullptr);
  // The search consulted VB, which the delta names as changed.
  EXPECT_TRUE(decider.ShouldInvalidate(FootprintOver({"VA", "VB"}, "l1")));
}

TEST(InvalidationDeciderTest, UnconsultedEditWithNoMappingIsRetained) {
  // VB's body changed from l1 to l2, but the entry's search consulted only
  // VA and its chased query has a single l0 condition: neither the old nor
  // the new VB body can map into it, so the plan set is provably
  // unchanged.
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA(), ViewB()}), nullptr,
      Sources({ViewA(), ViewBEdited()}), nullptr);
  InvalidationDecider decider(delta, Sources({ViewA(), ViewBEdited()}),
                              nullptr);
  EXPECT_FALSE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, AddedViewThatMapsIntoTheQueryInvalidates) {
  // A brand-new l0 view appears. The cached entry never consulted it, but
  // its body maps into the entry's chased l0 query — a fresh search would
  // find a new candidate atom, so the entry must go.
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA()}), nullptr,
      Sources({ViewA(),
               Cap("<u(P') o2 {<w(X') m U'>}> :- <P' rec {<X' l0 U'>}>@db",
                   "VNEW")}),
      nullptr);
  std::vector<SourceDescription> new_sources = Sources(
      {ViewA(),
       Cap("<u(P') o2 {<w(X') m U'>}> :- <P' rec {<X' l0 U'>}>@db", "VNEW")});
  InvalidationDecider decider(delta, new_sources, nullptr);
  EXPECT_TRUE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
  // ...while an entry over an l1-only query is untouched by the l0 view.
  EXPECT_FALSE(decider.ShouldInvalidate(FootprintOver({}, "l1")));
}

TEST(InvalidationDeciderTest, QueryReferencingADeltaViewNameInvalidates) {
  // The query's own body names the removed view as a source: its
  // constraint-exempt chase environment changed, whatever the plans were.
  CatalogDelta delta = ComputeCatalogDelta(Sources({ViewA(), ViewB()}),
                                           nullptr, Sources({ViewA()}),
                                           nullptr);
  InvalidationDecider decider(delta, Sources({ViewA()}), nullptr);
  PlanFootprint footprint = FootprintOver({"VA"}, "l0");
  footprint.query_sources = {"db", "VB"};
  EXPECT_TRUE(decider.ShouldInvalidate(footprint));
  // The same delta with a db-only query: VB was never consulted and is
  // gone, so nothing about the entry can change.
  EXPECT_FALSE(decider.ShouldInvalidate(FootprintOver({"VA"}, "l0")));
}

TEST(InvalidationDeciderTest, UnsatisfiableQueriesSurviveViewDeltas) {
  CatalogDelta delta = ComputeCatalogDelta(
      Sources({ViewA(), ViewB()}), nullptr,
      Sources({ViewA(), ViewBEdited()}), nullptr);
  InvalidationDecider decider(delta, Sources({ViewA(), ViewBEdited()}),
                              nullptr);
  PlanFootprint footprint = FootprintOver({}, "l0");
  footprint.query_unsatisfiable = true;
  EXPECT_FALSE(decider.ShouldInvalidate(footprint));
}

// --- plan-cache generations -------------------------------------------------

MediatorPlanSet PlansUsing(const std::string& view) {
  MediatorPlanSet set;
  MediatorPlan plan;
  plan.views_used = {view};
  plan.cost = 1;
  set.plans.push_back(std::move(plan));
  return set;
}

TEST(PlanCacheMaintTest, FlushKeepsCountersAndDropsEntries) {
  PlanCache cache(PlanCache::Options{8, 2});
  PlanCacheKey key = MakePlanCacheKey(
      MustParse("<f(P) out yes> :- <P rec {<X l0 U>}>@db", "Q"));
  auto compute = [] { return Result<MediatorPlanSet>(PlansUsing("VA")); };
  ASSERT_TRUE(cache.LookupOrCompute(key, compute).ok());  // miss
  ASSERT_TRUE(cache.LookupOrCompute(key, compute).ok());  // hit
  ASSERT_EQ(cache.stats().hits, 1u);

  const uint64_t before = cache.generation();
  cache.Flush();
  EXPECT_EQ(cache.generation(), before + 1);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 0u);
  ASSERT_TRUE(cache.LookupOrCompute(key, compute).ok());
  EXPECT_EQ(cache.stats().misses, 2u);  // really gone
}

TEST(PlanCacheMaintTest, StaleGenerationComputationsDoNotInsert) {
  PlanCache cache(PlanCache::Options{8, 1});
  PlanCacheKey key = MakePlanCacheKey(
      MustParse("<f(P) out yes> :- <P rec {<X l0 U>}>@db", "Q"));
  int computed = 0;
  auto compute = [&computed] {
    ++computed;
    return Result<MediatorPlanSet>(PlansUsing("VA"));
  };

  // A request admitted under the old generation computes after the fence:
  // it gets its own answer but must not populate the new generation.
  const uint64_t stale = cache.generation();
  cache.BeginGeneration();
  auto detached = cache.LookupOrCompute(key, stale, compute);
  ASSERT_TRUE(detached.ok());
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.stats().entries, 0u);

  auto fresh = cache.LookupOrCompute(key, cache.generation(), compute);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(computed, 2);  // the stale result was not served
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCacheMaintTest, InvalidateMatchingDropsOnlySelectedEntries) {
  PlanCache cache(PlanCache::Options{8, 2});
  PlanCacheKey qa = MakePlanCacheKey(
      MustParse("<f(P) out yes> :- <P rec {<X l0 U>}>@db", "QA"));
  PlanCacheKey qb = MakePlanCacheKey(
      MustParse("<f(P) out yes> :- <P rec {<X l1 U>}>@db", "QB"));
  ASSERT_TRUE(
      cache
          .LookupOrCompute(
              qa, [] { return Result<MediatorPlanSet>(PlansUsing("VA")); })
          .ok());
  ASSERT_TRUE(
      cache
          .LookupOrCompute(
              qb, [] { return Result<MediatorPlanSet>(PlansUsing("VB")); })
          .ok());

  size_t dropped = cache.InvalidateMatching(
      [](const std::string&, const MediatorPlanSet& plans) {
        return !plans.plans.empty() && !plans.plans[0].views_used.empty() &&
               plans.plans[0].views_used[0] == "VB";
      });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // QA still hits; QB recomputes.
  ASSERT_TRUE(cache
                  .LookupOrCompute(
                      qa,
                      []() -> Result<MediatorPlanSet> {
                        ADD_FAILURE() << "QA should have been retained";
                        return PlansUsing("VA");
                      })
                  .ok());
  int recomputed = 0;
  ASSERT_TRUE(cache
                  .LookupOrCompute(qb,
                                   [&recomputed] {
                                     ++recomputed;
                                     return Result<MediatorPlanSet>(
                                         PlansUsing("VB"));
                                   })
                  .ok());
  EXPECT_EQ(recomputed, 1);
}

// --- operator surfacing -----------------------------------------------------

TEST(MaintenanceReportTest, RendersEachOutcome) {
  MaintenanceReport flush;
  flush.full_flush = true;
  flush.flush_reason = "constraints changed";
  flush.entries_invalidated = 7;
  EXPECT_EQ(flush.ToString(),
            "full flush (constraints changed), 7 entries dropped");

  MaintenanceReport noop;
  noop.noop = true;
  noop.entries_retained = 3;
  EXPECT_EQ(noop.ToString(), "no-op (identical catalogs), 3 entries kept");

  MaintenanceReport selective;
  selective.delta_summary = "+0 -0 ~1 views, constraints unchanged";
  selective.entries_examined = 5;
  selective.entries_invalidated = 2;
  selective.entries_retained = 3;
  EXPECT_EQ(selective.ToString(),
            "selective: +0 -0 ~1 views, constraints unchanged; "
            "invalidated 2/5, retained 3");
}

TEST(MaintenanceStatsTest, RendersTotals) {
  MaintenanceStats stats;
  stats.selective_applies = 2;
  stats.full_flushes = 1;
  stats.noop_applies = 4;
  stats.entries_examined = 10;
  stats.entries_invalidated = 3;
  stats.entries_retained = 7;
  EXPECT_EQ(stats.ToString(),
            "maintenance: 2 selective, 1 full flush(es), 4 no-op(s); "
            "entries 10 examined, 3 invalidated, 7 retained");
}

}  // namespace
}  // namespace tslrw
