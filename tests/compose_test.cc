#include "rewrite/compose.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "equiv/equivalence.h"
#include "eval/evaluator.h"
#include "common/string_util.h"
#include "fixtures.h"
#include "tsl/normal_form.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

TEST(ComposeTest, Example31CompositionMatchesPaper) {
  // (V1)o(Q4)n must be equivalent to the paper's printed composition and,
  // by Example 3.1, to the original (Q3).
  TslQuery q4n = MustParse(testing::kQ4n, "Q4n");
  auto composed = ComposeWithViews(q4n, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  ASSERT_FALSE(composed->rules.empty());
  auto eq_paper = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kV1oQ4n, "ref")));
  ASSERT_TRUE(eq_paper.ok()) << eq_paper.status();
  EXPECT_TRUE(*eq_paper) << "composed:\n" << composed->ToString();
  auto eq_q3 = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kQ3, "Q3")));
  ASSERT_TRUE(eq_q3.ok());
  EXPECT_TRUE(*eq_q3);
}

TEST(ComposeTest, Example33CompositionGivesQ9NotQ7) {
  // (Q8) composes to (Q9), which is *not* equivalent to (Q7): the
  // name/value correspondence is lost (that is the point of Example 3.3).
  TslQuery q8 = MustParse(testing::kQ8, "Q8");
  auto composed = ComposeWithViews(q8, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  auto eq_q9 = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kQ9, "Q9")));
  ASSERT_TRUE(eq_q9.ok()) << eq_q9.status();
  EXPECT_TRUE(*eq_q9) << "composed:\n" << composed->ToString();
  auto eq_q7 = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kQ7, "Q7")));
  ASSERT_TRUE(eq_q7.ok());
  EXPECT_FALSE(*eq_q7);
}

TEST(ComposeTest, Example32CompositionEquivalentToQ5) {
  TslQuery q6 = MustParse(testing::kQ6, "Q6");
  auto composed = ComposeWithViews(q6, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  auto eq = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kQ5, "Q5")));
  ASSERT_TRUE(eq.ok()) << eq.status();
  EXPECT_TRUE(*eq) << "composed:\n" << composed->ToString();
}

TEST(ComposeTest, NonViewConditionsPassThrough) {
  TslQuery q = MustParse(
      "<f(P) out yes> :- <P p {<X l v>}>@db AND "
      "<g(P) p {<h(X) v leland>}>@V1");
  auto composed = ComposeWithViews(q, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  ASSERT_EQ(composed->rules.size(), 1u);
  int db_conditions = 0;
  for (const Condition& c : composed->rules[0].body) {
    EXPECT_EQ(c.source, "db");
    ++db_conditions;
  }
  EXPECT_GE(db_conditions, 2);
}

TEST(ComposeTest, NoViewReferencesIsIdentity) {
  TslQuery q3 = MustParse(testing::kQ3, "Q3");
  auto composed = ComposeWithViews(q3, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok());
  ASSERT_EQ(composed->rules.size(), 1u);
  EXPECT_EQ(composed->rules[0], ToNormalForm(q3));
}

TEST(ComposeTest, UnsatisfiablePathYieldsEmptyRuleSet) {
  // (V1)'s head has no `zzz`-labeled member: no unifier, no rules.
  TslQuery q = MustParse("<f(P) out yes> :- <g(P) p {<W zzz U>}>@V1");
  auto composed = ComposeWithViews(q, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  EXPECT_TRUE(composed->rules.empty());
}

TEST(ComposeTest, AmbiguousBranchYieldsUnionOfRules) {
  // <W M U> can unify with both head members of (V1): pr and v branches.
  TslQuery q = MustParse("<f(P,M) out M> :- <g(P) p {<W M U>}>@V1");
  auto composed = ComposeWithViews(q, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  EXPECT_EQ(composed->rules.size(), 2u);
}

TEST(ComposeTest, ViewVariablesRenamedApartPerInstance) {
  // Two conditions over (V1) must not share X'/Y'/Z' instances: the paper's
  // (V1)o(Q4)n has X' in one condition and X''/Y'' in the other.
  TslQuery q4n = MustParse(testing::kQ4n, "Q4n");
  auto composed = ComposeWithViews(q4n, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok());
  ASSERT_EQ(composed->rules.size(), 1u);
  // P joins the two pulled-in view bodies; the X' instances stay distinct,
  // so the composed body keeps two separate paths.
  EXPECT_EQ(composed->rules[0].body.size(), 2u);
}

TEST(ComposeTest, DeepPathIntoCopiedSubgraphPushedIntoViewBody) {
  // (Q6)'s path continues below h(X) whose value is the copied Z'; the
  // remaining <Z last stanford> must end up under Z' in the view body.
  TslQuery q6 = MustParse(testing::kQ6, "Q6");
  auto composed = ComposeWithViews(q6, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok());
  ASSERT_EQ(composed->rules.size(), 1u);
  bool found_deep = false;
  for (const Condition& c : composed->rules[0].body) {
    auto path = FlattenPath(c);
    ASSERT_TRUE(path.ok());
    if (path->depth() == 3 && path->tail.is_term() &&
        path->tail.term() == Term::MakeAtom("stanford")) {
      found_deep = true;
    }
  }
  EXPECT_TRUE(found_deep) << composed->ToString();
}

TEST(ComposeTest, CompositionAgreesWithMaterialization) {
  // Operational check: evaluating Q' over the materialized view equals
  // evaluating V o Q' over the base data.
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p { <n1 name leland> <g1 gender female> }>
      <p2 p { <n2 name jane> }>
    })"));
  TslQuery v1 = MustParse(testing::kV1, "V1");
  TslQuery q4 = MustParse(testing::kQ4, "Q4");
  auto composed = ComposeWithViews(q4, {v1});
  ASSERT_TRUE(composed.ok()) << composed.status();

  SourceCatalog with_view = catalog;
  auto view_db = MaterializeView(v1, catalog);
  ASSERT_TRUE(view_db.ok()) << view_db.status();
  with_view.Put(std::move(*view_db));

  auto over_view = Evaluate(q4, with_view, {.answer_name = "ans"});
  ASSERT_TRUE(over_view.ok()) << over_view.status();
  auto over_base = EvaluateRuleSet(*composed, catalog, {.answer_name = "ans"});
  ASSERT_TRUE(over_base.ok()) << over_base.status();
  EXPECT_TRUE(over_view->Equals(*over_base))
      << "over view:\n" << over_view->ToString()
      << "composed over base:\n" << over_base->ToString();
}

// A cache keeps its view list by reference, so it cannot be made over a
// temporary list.
static_assert(
    std::is_constructible_v<ComposeCache, const std::vector<TslQuery>&>);
static_assert(!std::is_constructible_v<ComposeCache, std::vector<TslQuery>>);

/// Composes every rewriting of \p rewritings twice through one shared
/// cache (the second round is all memo hits) and checks each result is
/// equivalent to composing that rewriting on its own.
void ExpectSharedCacheAgrees(const std::vector<TslQuery>& rewritings,
                             const std::vector<TslQuery>& views,
                             ComposeCache* cache) {
  for (int round = 0; round < 2; ++round) {
    for (const TslQuery& rw : rewritings) {
      auto shared = ComposeWithViews(rw, cache);
      ASSERT_TRUE(shared.ok()) << shared.status();
      auto alone = ComposeWithViews(rw, views);
      ASSERT_TRUE(alone.ok()) << alone.status();
      ASSERT_EQ(shared->rules.empty(), alone->rules.empty()) << rw.ToString();
      if (alone->rules.empty()) continue;
      auto eq = AreEquivalent(*shared, *alone);
      ASSERT_TRUE(eq.ok()) << eq.status();
      EXPECT_TRUE(*eq) << rw.ToString() << "\nshared:\n"
                       << shared->ToString() << "alone:\n"
                       << alone->ToString();
    }
  }
}

TEST(ComposeTest, SharedCacheComposesEveryStarCover) {
  // The covers of a k-arm star by per-arm views A<i> and the catch-all D,
  // as a rewriting search verifies them: one cache resolves each distinct
  // (condition, view) pair once, and every cover composes as it would
  // alone and answers like the cover over the materialized views.
  constexpr int k = 4;
  std::vector<TslQuery> views;
  for (int i = 0; i < k; ++i) {
    views.push_back(MustParse(StrCat("<a", i, "(P') oa", i, " {<wa", i,
                                     "(X') m U'>}> :- <P' rec {<X' l", i,
                                     " U'>}>@db"),
                              StrCat("A", i)));
  }
  views.push_back(
      MustParse("<d(P') rec {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@db", "D"));
  std::vector<TslQuery> covers;
  std::set<Condition> view_conditions;
  for (int mask = 0; mask < (1 << k); ++mask) {
    std::vector<std::string> body;
    for (int i = 0; i < k; ++i) {
      body.push_back((mask >> i & 1)
                         ? StrCat("<d(P) rec {<X", i, " l", i, " u>}>@D")
                         : StrCat("<a", i, "(P) oa", i, " {<wa", i, "(X", i,
                                  ") m u>}>@A", i));
    }
    covers.push_back(
        MustParse(StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "C"));
    for (const Condition& c : covers.back().body) view_conditions.insert(c);
  }
  ComposeCache cache(views);
  ExpectSharedCacheAgrees(covers, views, &cache);
  EXPECT_EQ(cache.size(), view_conditions.size());
  EXPECT_EQ(cache.size(), size_t{2 * k});

  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <r1 rec { <a1 l0 u> <a2 l1 u> <a3 l2 u> <a4 l3 u> }>
      <r2 rec { <b1 l0 u> <b2 l1 u> <b3 l2 w> <b4 l3 u> }>
      <r3 rec { <c1 l0 u> <c2 l1 u> <c3 l2 u> <c4 l3 u> <c5 l9 u> }>
    })"));
  SourceCatalog with_views = catalog;
  for (const TslQuery& v : views) {
    auto db = MaterializeView(v, catalog);
    ASSERT_TRUE(db.ok()) << db.status();
    with_views.Put(std::move(*db));
  }
  for (const TslQuery& cover : covers) {
    auto composed = ComposeWithViews(cover, &cache);
    ASSERT_TRUE(composed.ok()) << composed.status();
    auto over_views = Evaluate(cover, with_views, {.answer_name = "ans"});
    ASSERT_TRUE(over_views.ok()) << over_views.status();
    auto over_base =
        EvaluateRuleSet(*composed, catalog, {.answer_name = "ans"});
    ASSERT_TRUE(over_base.ok()) << over_base.status();
    EXPECT_EQ(over_views->roots().size(), 2u) << cover.ToString();
    EXPECT_TRUE(over_views->Equals(*over_base)) << cover.ToString();
  }
  EXPECT_EQ(cache.size(), size_t{2 * k});
}

TEST(ComposeTest, SharedCacheAgreesOnNonLocalUnifiers) {
  // (Q4)n composes to the paper's (V1)o(Q4)n. In R the rewriting's X meets
  // V1's Skolem term pp(P',Y'), so the unifier binds a rule variable that
  // the head also uses: R is resolved one condition at a time, and its
  // composition must answer like R over the materialized view.
  TslQuery v1 = MustParse(testing::kV1, "V1");
  TslQuery q4n = MustParse(testing::kQ4n, "Q4n");
  TslQuery r = MustParse(
      "<f(P,X) stanford yes> :- <g(P) p {<X pr Y>}>@V1 AND "
      "<g(P) p {<h(W) v leland>}>@V1",
      "R");
  const std::vector<TslQuery> views = {v1};
  ComposeCache cache(views);
  ExpectSharedCacheAgrees({q4n, r}, views, &cache);
  auto composed = ComposeWithViews(q4n, &cache);
  ASSERT_TRUE(composed.ok()) << composed.status();
  auto eq = AreEquivalent(
      *composed, TslRuleSet::Single(MustParse(testing::kV1oQ4n, "ref")));
  ASSERT_TRUE(eq.ok()) << eq.status();
  EXPECT_TRUE(*eq) << composed->ToString();

  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p { <n1 name leland> <g1 gender female> }>
      <p2 p { <n2 name jane> }>
    })"));
  SourceCatalog with_view = catalog;
  auto view_db = MaterializeView(v1, catalog);
  ASSERT_TRUE(view_db.ok()) << view_db.status();
  with_view.Put(std::move(*view_db));
  auto composed_r = ComposeWithViews(r, &cache);
  ASSERT_TRUE(composed_r.ok()) << composed_r.status();
  auto over_view = Evaluate(r, with_view, {.answer_name = "ans"});
  ASSERT_TRUE(over_view.ok()) << over_view.status();
  auto over_base =
      EvaluateRuleSet(*composed_r, catalog, {.answer_name = "ans"});
  ASSERT_TRUE(over_base.ok()) << over_base.status();
  EXPECT_EQ(over_view->roots().size(), 2u);
  EXPECT_TRUE(over_view->Equals(*over_base))
      << "composed:\n" << composed_r->ToString() << "over view:\n"
      << over_view->ToString() << "composed over base:\n"
      << over_base->ToString();
}

TEST(ComposeTest, SharedCacheAgreesOnCopyVariablePush) {
  // Example 3.2: (Q6)'s path continues below the copied Z', which is set
  // bound to the rest of the path; Q8 shares one of Q6's conditions.
  const std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  ComposeCache cache(views);
  ExpectSharedCacheAgrees(
      {MustParse(testing::kQ6, "Q6"), MustParse(testing::kQ8, "Q8")}, views,
      &cache);
  auto composed = ComposeWithViews(MustParse(testing::kQ6, "Q6"), &cache);
  ASSERT_TRUE(composed.ok()) << composed.status();
  auto eq = AreEquivalent(*composed,
                          TslRuleSet::Single(MustParse(testing::kQ5, "Q5")));
  ASSERT_TRUE(eq.ok()) << eq.status();
  EXPECT_TRUE(*eq) << composed->ToString();
}

TEST(ComposeTest, SharedCacheAgreesOnSetVariableTail) {
  // Example 3.4's shape over (V1): the head's set variable V lands on V1's
  // set-valued head object, so composition sets a rule variable's value.
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p { <u1 university stanford> <n1 name leland> }>
      <p2 p { <n2 name jane> }>
    })"));
  TslQuery v1 = MustParse(testing::kV1, "V1");
  TslQuery q = MustParse(
      "<f(P) \"Stan-student\" V> :- <g(P) p {<h(U) v stanford>}>@V1 AND "
      "<g(P) p V>@V1",
      "Q");
  const std::vector<TslQuery> views = {v1};
  ComposeCache cache(views);
  ExpectSharedCacheAgrees({q}, views, &cache);
  auto composed = ComposeWithViews(q, &cache);
  ASSERT_TRUE(composed.ok()) << composed.status();
  SourceCatalog with_view = catalog;
  auto view_db = MaterializeView(v1, catalog);
  ASSERT_TRUE(view_db.ok()) << view_db.status();
  with_view.Put(std::move(*view_db));
  auto over_view = Evaluate(q, with_view, {.answer_name = "ans"});
  ASSERT_TRUE(over_view.ok()) << over_view.status();
  auto over_base = EvaluateRuleSet(*composed, catalog, {.answer_name = "ans"});
  ASSERT_TRUE(over_base.ok()) << over_base.status();
  EXPECT_EQ(over_view->roots().size(), 1u);
  EXPECT_TRUE(over_view->Equals(*over_base))
      << "over view:\n" << over_view->ToString() << "composed over base:\n"
      << over_base->ToString();
}

TEST(ComposeTest, SharedCacheAgreesOnBranchyHeads) {
  // Each generic condition unifies with all three head branches: 3^2
  // resolvents per rewriting from two entries of three unifiers each.
  TslQuery view = MustParse(
      "<v(P') out {<w0(X0') m C0'> <w1(X1') m C1'> <w2(X2') m C2'>}> :- "
      "<P' rec {<X0' l0 C0'>}>@db AND <P' rec {<X1' l1 C1'>}>@db AND "
      "<P' rec {<X2' l2 C2'>}>@db",
      "V");
  TslQuery two = MustParse(
      "<f(P) out yes> :- <v(P) out {<W0 M0 U0>}>@V AND "
      "<v(P) out {<W1 M1 U1>}>@V",
      "Q2");
  TslQuery one = MustParse("<f(P) out yes> :- <v(P) out {<W0 M0 U0>}>@V",
                           "Q1");
  const std::vector<TslQuery> views = {view};
  ComposeCache cache(views);
  ExpectSharedCacheAgrees({two, one}, views, &cache);
  EXPECT_EQ(cache.size(), 2u);
  auto composed = ComposeWithViews(two, &cache);
  ASSERT_TRUE(composed.ok()) << composed.status();
  EXPECT_EQ(composed->rules.size(), 9u);
}

TEST(ComposeTest, SharedCacheAgreesOnViewsOverViews) {
  // V2 is defined over V1: the resolvent pulls in a V1 condition, which
  // goes back on the work list and gets its own entry.
  TslQuery v1 = MustParse(
      "<a(P') lvl1 {<aa(X') m U'>}> :- <P' rec {<X' l U'>}>@db", "V1");
  TslQuery v2 = MustParse(
      "<b(P'') lvl2 {<bb(X'') n U''>}> :- "
      "<a(P'') lvl1 {<aa(X'') m U''>}>@V1",
      "V2");
  TslQuery over_v2 =
      MustParse("<f(P) out yes> :- <b(P) lvl2 {<bb(X) n u>}>@V2", "Q");
  TslQuery mixed = MustParse(
      "<f(P) out yes> :- <b(P) lvl2 {<bb(X) n u>}>@V2 AND "
      "<a(P) lvl1 {<aa(Y) m w>}>@V1",
      "R");
  const std::vector<TslQuery> views = {v1, v2};
  ComposeCache cache(views);
  ExpectSharedCacheAgrees({over_v2, mixed}, views, &cache);
  auto composed = ComposeWithViews(mixed, &cache);
  ASSERT_TRUE(composed.ok()) << composed.status();
  ASSERT_EQ(composed->rules.size(), 1u);
  for (const Condition& c : composed->rules[0].body) {
    EXPECT_EQ(c.source, "db") << composed->rules[0].ToString();
  }
  EXPECT_EQ(composed->rules[0].body.size(), 2u)
      << composed->rules[0].ToString();
}

TEST(ComposeTest, RuleSetOverloadUnionsResults) {
  TslRuleSet rules;
  rules.rules.push_back(
      MustParse("<f(P) out yes> :- <g(P) p {<h(X) v leland>}>@V1", "A"));
  rules.rules.push_back(
      MustParse("<f(P) out yes> :- <g(P) p {<pp(P,Y) pr name>}>@V1", "B"));
  auto composed = ComposeWithViews(rules, {MustParse(testing::kV1, "V1")});
  ASSERT_TRUE(composed.ok()) << composed.status();
  EXPECT_EQ(composed->rules.size(), 2u);
}

}  // namespace
}  // namespace tslrw
