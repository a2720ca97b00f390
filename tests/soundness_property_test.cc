// CL-SOUND: operational validation of Theorem 5.5's soundness half, plus
// randomized invariants of the chase and the equivalence test. For each
// seed we generate a database, random queries and views, and check that
// every symbolic claim the library makes (this rewriting is equivalent; the
// chase preserves semantics; these queries are equivalent) holds when
// actually evaluated.

#include <gtest/gtest.h>

#include <random>

#include "equiv/equivalence.h"
#include "eval/evaluator.h"
#include "fixtures.h"
#include "oem/generator.h"
#include "testing/random_rules.h"
#include "rewrite/chase.h"
#include "rewrite/compose.h"
#include "rewrite/contained.h"
#include "rewrite/rewriter.h"
#include "tsl/normal_form.h"

namespace tslrw {
namespace {

constexpr int kNumLabels = 4;
constexpr int kNumValues = 4;

class SoundnessPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = GetParam();
    options.num_roots = 6;
    options.max_depth = 3;
    options.max_fanout = 3;
    options.num_labels = kNumLabels;
    options.num_values = kNumValues;
    options.root_label = "l0";
    options.share_probability = 0.15;
    catalog_.Put(GenerateOemDatabase("db", options));
  }

  SourceCatalog catalog_;
};

TEST_P(SoundnessPropertyTest, RewritingsAnswerIdenticallyFromViews) {
  testing::RandomRules rules(GetParam() * 7919 + 1, kNumLabels, kNumValues,
                             "l0");
  std::vector<TslQuery> views = {rules.View("V1", "db"),
                                 rules.CopyView("V2", "db"),
                                 rules.DeepView("V3", "db")};
  for (int i = 0; i < 4; ++i) {
    TslQuery query = rules.Query(StrCat("Q", i), "db");
    auto result = RewriteQuery(query, views);
    ASSERT_TRUE(result.ok()) << result.status() << "\n  " << query.ToString();
    if (result->rewritings.empty()) continue;

    auto expected = Evaluate(query, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(expected.ok()) << expected.status();

    SourceCatalog extended = catalog_;
    for (const TslQuery& v : views) {
      auto materialized = MaterializeView(v, catalog_);
      ASSERT_TRUE(materialized.ok()) << materialized.status();
      extended.Put(std::move(*materialized));
    }
    for (const TslQuery& rw : result->rewritings) {
      auto actual = Evaluate(rw, extended, {.answer_name = "ans"});
      ASSERT_TRUE(actual.ok()) << actual.status() << "\n  " << rw.ToString();
      EXPECT_TRUE(expected->Equals(*actual))
          << "rewriting differs from query:"
          << "\n  query:     " << query.ToString()
          << "\n  rewriting: " << rw.ToString()
          << "\n  expected:\n" << expected->ToString()
          << "\n  actual:\n" << actual->ToString();
    }
  }
}

TEST_P(SoundnessPropertyTest, ChasePreservesSemantics) {
  testing::RandomRules rules(GetParam() * 104729 + 3, kNumLabels, kNumValues,
                             "l0");
  for (int i = 0; i < 6; ++i) {
    TslQuery query = rules.Query(StrCat("Q", i), "db");
    Result<TslQuery> chased = ChaseQuery(query);
    auto expected = Evaluate(query, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(expected.ok()) << expected.status();
    if (!chased.ok()) {
      // Unsatisfiable queries must really return nothing.
      ASSERT_TRUE(chased.status().IsUnsatisfiable()) << chased.status();
      EXPECT_EQ(expected->roots().size(), 0u)
          << "chase claimed unsatisfiable: " << query.ToString();
      continue;
    }
    auto actual = Evaluate(*chased, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_TRUE(expected->Equals(*actual))
        << "chase changed semantics of " << query.ToString() << "\n  into "
        << chased->ToString();
  }
}

TEST_P(SoundnessPropertyTest, NormalFormPreservesSemantics) {
  testing::RandomRules rules(GetParam() * 31 + 17, kNumLabels, kNumValues,
                             "l0");
  for (int i = 0; i < 6; ++i) {
    TslQuery query = rules.Query(StrCat("Q", i), "db");
    TslQuery nf = ToNormalForm(query);
    auto a = Evaluate(query, catalog_, {.answer_name = "ans"});
    auto b = Evaluate(nf, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a->Equals(*b)) << query.ToString();
  }
}

TEST_P(SoundnessPropertyTest, SymbolicEquivalenceImpliesEqualResults) {
  testing::RandomRules rules(GetParam() * 7 + 5, kNumLabels, kNumValues,
                             "l0");
  std::vector<TslQuery> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(rules.Query("Q", "db"));
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      auto eq = AreEquivalent(pool[i], pool[j]);
      ASSERT_TRUE(eq.ok()) << eq.status();
      auto a = Evaluate(pool[i], catalog_, {.answer_name = "ans"});
      auto b = Evaluate(pool[j], catalog_, {.answer_name = "ans"});
      ASSERT_TRUE(a.ok() && b.ok());
      if (*eq) {
        EXPECT_TRUE(a->Equals(*b))
            << "claimed equivalent but differ on data:\n  "
            << pool[i].ToString() << "\n  " << pool[j].ToString();
      } else if (!a->Equals(*b)) {
        SUCCEED();  // differing results require non-equivalence: consistent
      }
      // (equal results with *eq == false is fine: one database is not a
      // counterexample.)
    }
  }
}

TEST_P(SoundnessPropertyTest, CompositionAgreesWithMaterialization) {
  testing::RandomRules rules(GetParam() * 13 + 29, kNumLabels, kNumValues,
                             "l0");
  TslQuery view = rules.View("V", "db");
  // Query the view through its own head shape, then compare composition
  // against evaluation over the materialized view.
  TslQuery over_view = testing::MustParse(
      "<q(P) out yes> :- <v(P) vout {<w(X) m Z>}>@V", "Q");
  auto composed = ComposeWithViews(over_view, {view});
  ASSERT_TRUE(composed.ok()) << composed.status();

  SourceCatalog extended = catalog_;
  auto materialized = MaterializeView(view, catalog_);
  ASSERT_TRUE(materialized.ok());
  extended.Put(std::move(*materialized));

  auto via_view = Evaluate(over_view, extended, {.answer_name = "ans"});
  ASSERT_TRUE(via_view.ok()) << via_view.status();
  auto via_composition =
      EvaluateRuleSet(*composed, catalog_, {.answer_name = "ans"});
  ASSERT_TRUE(via_composition.ok()) << via_composition.status();
  EXPECT_TRUE(via_view->Equals(*via_composition))
      << "view: " << view.ToString();

  // Multi-condition rewritings over two or three random views, composed
  // through one shared cache as a rewriting search's worker does. The
  // condition shapes cover local unifiers, a rule variable meeting a
  // Skolem term, a path pushed below a copied value, and a tail variable
  // landing on a head set.
  std::mt19937_64 rng(GetParam() * 2654435761u + 7);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  std::vector<TslQuery> views = {rules.View("V1", "db"),
                                 rules.CopyView("V2", "db")};
  if (pick(2) == 1) views.push_back(rules.DeepView("V3", "db"));
  SourceCatalog with_views = catalog_;
  for (const TslQuery& v : views) {
    auto db = MaterializeView(v, catalog_);
    ASSERT_TRUE(db.ok()) << db.status();
    with_views.Put(std::move(*db));
  }
  // Arm i names its object X<x> and its value `value`; arms join through
  // P, through a shared X<x> or value, and the head exposes X0.
  auto condition = [&](int i, const std::string& value) -> std::string {
    const int x = i > 0 && pick(2) == 0 ? i - 1 : i;
    const int c = pick(kNumLabels);
    switch (pick(views.size() == 3 ? 8 : 6)) {
      case 0: return StrCat("<v(P) vout {<w(X", x, ") m ", value, ">}>@V1");
      case 1: return StrCat("<v(P) vout {<X", x, " m ", value, ">}>@V1");
      case 2:
        return StrCat("<v(P) vout {<X", x, " Y", i, " ", value, ">}>@V2");
      case 3:
        return StrCat("<v(P) vout {<X", x, " l", c, " ", value, ">}>@V2");
      case 4:
        return StrCat("<v(P) vout {<X", x, " Y", i, " {<W", i, " l", c, " ",
                      value, ">}>}>@V2");
      case 5: return StrCat("<v(P) vout {<X", x, " Y", i, " {}>}>@V2");
      case 6:
        return StrCat("<v(P) vout {<w(X", x, ") mid {<u(W", i, ") leaf ",
                      value, ">}>}>@V3");
      default: return StrCat("<v(P) vout {<w(X", x, ") mid S", i, ">}>@V3");
    }
  };
  ComposeCache cache(views);
  for (int r = 0; r < 4; ++r) {
    std::vector<std::string> body;
    const int conditions = 2 + pick(2);
    for (int i = 0; i < conditions; ++i) {
      // Values are fresh, a constant, or joined with the previous arm.
      const int how = pick(3);
      std::string value = how == 0   ? StrCat("Z", i)
                          : how == 1 ? StrCat("v", pick(kNumValues))
                                     : StrCat("Z", i == 0 ? 0 : i - 1);
      body.push_back(condition(i, value));
    }
    TslQuery rewriting = testing::MustParse(
        StrCat("<q(P,X0) out yes> :- ", Join(body, " AND ")),
        StrCat("R", r));
    auto composed_rw = ComposeWithViews(rewriting, &cache);
    ASSERT_TRUE(composed_rw.ok())
        << composed_rw.status() << "\n  " << rewriting.ToString();
    auto over_views = Evaluate(rewriting, with_views, {.answer_name = "ans"});
    ASSERT_TRUE(over_views.ok()) << over_views.status();
    auto over_base =
        EvaluateRuleSet(*composed_rw, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(over_base.ok()) << over_base.status();
    EXPECT_TRUE(over_views->Equals(*over_base))
        << "rewriting: " << rewriting.ToString()
        << "\ncomposed:\n" << composed_rw->ToString()
        << "over views:\n" << over_views->ToString()
        << "composed over base:\n" << over_base->ToString();
  }
}

/// `a` is a sub-database of `b`: every root and every reachable object of
/// `a` appears in `b` with the same label, the same atomic value, and a
/// superset of children — the operational reading of exposed containment.
bool IsSubdatabase(const OemDatabase& a, const OemDatabase& b) {
  for (const Oid& r : a.roots()) {
    if (b.roots().count(r) == 0) return false;
  }
  for (const Oid& oid : a.ReachableOids()) {
    const OemObject* ao = a.Find(oid);
    const OemObject* bo = b.Find(oid);
    if (ao == nullptr || bo == nullptr) return false;
    if (ao->label != bo->label) return false;
    if (ao->is_atomic() != bo->is_atomic()) return false;
    if (ao->is_atomic()) {
      if (ao->value.atom() != bo->value.atom()) return false;
    } else {
      for (const Oid& c : ao->value.children()) {
        if (bo->value.children().count(c) == 0) return false;
      }
    }
  }
  return true;
}

TEST_P(SoundnessPropertyTest, SymbolicContainmentImpliesAnswerSubset) {
  testing::RandomRules rules(GetParam() * 101 + 13, kNumLabels, kNumValues,
                             "l0");
  std::vector<TslQuery> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(rules.Query("Q", "db"));
  for (const TslQuery& inner : pool) {
    for (const TslQuery& outer : pool) {
      auto contained = IsContainedIn(TslRuleSet::Single(inner),
                                     TslRuleSet::Single(outer));
      ASSERT_TRUE(contained.ok()) << contained.status();
      if (!*contained) continue;
      auto a = Evaluate(inner, catalog_, {.answer_name = "ans"});
      auto b = Evaluate(outer, catalog_, {.answer_name = "ans"});
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(IsSubdatabase(*a, *b))
          << "claimed contained but answers are not a subset:\n  inner: "
          << inner.ToString() << "\n  outer: " << outer.ToString();
    }
  }
}

TEST_P(SoundnessPropertyTest, ContainedRewritingsAreSound) {
  testing::RandomRules rules(GetParam() * 37 + 11, kNumLabels, kNumValues,
                             "l0");
  std::vector<TslQuery> views = {rules.View("V1", "db"),
                                 rules.View("V2", "db")};
  RewriteOptions options;
  options.require_total = true;
  for (int i = 0; i < 3; ++i) {
    TslQuery query = rules.Query(StrCat("Q", i), "db");
    auto result = FindMaximallyContainedRewriting(query, views, options);
    ASSERT_TRUE(result.ok()) << result.status() << "\n  " << query.ToString();
    if (result->rewriting.rules.empty()) continue;

    SourceCatalog views_only;
    for (const TslQuery& v : views) {
      auto materialized = MaterializeView(v, catalog_);
      ASSERT_TRUE(materialized.ok());
      views_only.Put(std::move(*materialized));
    }
    auto partial = EvaluateRuleSet(result->rewriting, views_only,
                                   {.answer_name = "ans"});
    ASSERT_TRUE(partial.ok()) << partial.status();
    auto full = Evaluate(query, catalog_, {.answer_name = "ans"});
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(IsSubdatabase(*partial, *full))
        << "contained rewriting produced extra answers:"
        << "\n  query: " << query.ToString()
        << "\n  rules:\n" << result->rewriting.ToString();
    if (result->equivalent) {
      EXPECT_TRUE(full->Equals(*partial))
          << "claimed equivalent but differs on data: " << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace tslrw
