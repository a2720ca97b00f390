#include "rewrite/contained.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "equiv/equivalence.h"
#include "eval/evaluator.h"
#include "fixtures.h"
#include "rewrite/compose.h"
#include "testing/random_rules.h"
#include "testing/reference_rewriter.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

std::string Render(const ContainedRewritingResult& r) {
  std::string out = StrCat("equivalent=", r.equivalent,
                           " truncated=", r.truncated,
                           " tested=", r.candidates_tested, "\n");
  for (const TslQuery& rule : r.rewriting.rules) {
    out += StrCat(rule.name, ": ", rule.ToString(), "\n");
  }
  return out;
}

/// Runs the plain reference (src/testing) and the contained search: rules
/// with their names, `equivalent`, `truncated`, `candidates_tested`, and
/// error statuses must match byte-for-byte. Returns the reference's rule
/// count (0 on error).
size_t ExpectMatchesReference(const TslQuery& query,
                              const std::vector<TslQuery>& views,
                              const RewriteOptions& options = {}) {
  Result<ContainedRewritingResult> reference =
      testing::ReferenceContainedRewrite(query, views, options);
  Result<ContainedRewritingResult> actual =
      FindMaximallyContainedRewriting(query, views, options);
  SCOPED_TRACE(StrCat("query=", query.ToString()));
  EXPECT_EQ(reference.ok(), actual.ok())
      << (reference.ok() ? actual.status() : reference.status()).ToString();
  if (!reference.ok() || !actual.ok()) {
    EXPECT_EQ(reference.status().ToString(), actual.status().ToString());
    return 0;
  }
  EXPECT_EQ(Render(*reference), Render(*actual));
  return reference->rewriting.rules.size();
}

/// Whether every rule's composition with \p views is contained in \p query.
void ExpectEveryRuleContained(const ContainedRewritingResult& result,
                              const TslQuery& query,
                              const std::vector<TslQuery>& views) {
  for (const TslQuery& rule : result.rewriting.rules) {
    auto composed = ComposeWithViews(rule, views);
    ASSERT_TRUE(composed.ok()) << composed.status();
    auto contained = IsContainedIn(*composed, TslRuleSet::Single(query));
    ASSERT_TRUE(contained.ok()) << contained.status();
    EXPECT_TRUE(*contained) << rule.ToString();
  }
}

/// Four single-arm views, each publishing one arm of the star below.
std::vector<TslQuery> PerArmViews() {
  std::vector<TslQuery> views;
  for (int i = 0; i < 4; ++i) {
    views.push_back(MustParse(
        StrCat("<v", i, "(P') o", i, " {<w", i, "(X') m U'>}> :- ",
               "<P' rec {<X' l", i, " U'>}>@db"),
        StrCat("V", i)));
  }
  return views;
}

TslQuery StarQuery() {
  return MustParse(
      "<f(P) out yes> :- <P rec {<X0 l0 u0>}>@db AND "
      "<P rec {<X1 l1 u1>}>@db AND <P rec {<X2 l2 u2>}>@db AND "
      "<P rec {<X3 l3 u3>}>@db",
      "Q");
}

TEST(ContainedTest, EquivalentRewritingIsFoundAndMarked) {
  // Where an equivalent rewriting exists, the maximally contained one is
  // that rewriting, flagged equivalent.
  TslQuery q3 = MustParse(testing::kQ3, "Q3");
  TslQuery v1 = MustParse(testing::kV1, "V1");
  auto result = FindMaximallyContainedRewriting(q3, {v1});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->equivalent);
  ASSERT_GE(result->rewriting.rules.size(), 1u);
}

TEST(ContainedTest, PartialViewGivesContainedNotEquivalent) {
  // The view publishes only gender=female people; a query over all people
  // is only *partially* answerable: contained, not equivalent.
  TslQuery view = MustParse(
      "<v(P') fem {<w(X') m Z'>}> :- "
      "<P' person {<G' gender female>}>@db AND "
      "<P' person {<X' name Z'>}>@db",
      "FemaleNames");
  TslQuery query = MustParse(
      "<f(P) out Z> :- <P person {<X name Z>}>@db", "Q");
  RewriteOptions options;
  options.require_total = true;
  auto result = FindMaximallyContainedRewriting(query, {view}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->rewriting.rules.size(), 1u);
  EXPECT_FALSE(result->equivalent);

  // Operational check: the contained rewriting returns exactly the
  // view-covered subset of the query's answer.
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person { <g1 gender female> <n1 name ann> }>
      <p2 person { <g2 gender male> <n2 name bob> }>
    })"));
  SourceCatalog views_only;
  auto materialized = MaterializeView(view, catalog);
  ASSERT_TRUE(materialized.ok());
  views_only.Put(std::move(*materialized));
  auto partial = EvaluateRuleSet(result->rewriting, views_only,
                                 {.answer_name = "ans"});
  ASSERT_TRUE(partial.ok()) << partial.status();
  // Only ann (via p1) is reachable through the view.
  EXPECT_EQ(partial->roots().size(), 1u);
  auto full = Evaluate(query, catalog, {.answer_name = "ans"});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->roots().size(), 2u);
}

TEST(ContainedTest, UnionOfPartialViewsCanBeEquivalent) {
  // Female and male views together cover a gender-filtered query family.
  TslQuery female = MustParse(
      "<vf(P') fem {<wf(X') nm Z'>}> :- "
      "<P' person {<G' gender female>}>@db AND "
      "<P' person {<X' name Z'>}>@db",
      "Female");
  TslQuery male = MustParse(
      "<vm(P') mal {<wm(X') nm Z'>}> :- "
      "<P' person {<G' gender male>}>@db AND "
      "<P' person {<X' name Z'>}>@db",
      "Male");
  // A query already restricted to females is fully covered by one view.
  TslQuery query = MustParse(
      "<f(P) out Z> :- <P person {<G gender female>}>@db AND "
      "<P person {<X name Z>}>@db",
      "Q");
  RewriteOptions options;
  options.require_total = true;
  auto result = FindMaximallyContainedRewriting(query, {female, male},
                                                options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->equivalent)
      << "the Female view alone answers the female-restricted query";
}

TEST(ContainedTest, SubsumedRulesPruned) {
  // Two copies of one view: accepted rules through either are mutually
  // contained; only one survives pruning.
  TslQuery v1 = MustParse(
      "<a(P') o {<aa(X') m U'>}> :- <P' rec {<X' l U'>}>@db", "CopyA");
  TslQuery v2 = MustParse(
      "<b(P') o {<bb(X') m U'>}> :- <P' rec {<X' l U'>}>@db", "CopyB");
  TslQuery query = MustParse("<f(P) out yes> :- <P rec {<X l u>}>@db", "Q");
  RewriteOptions options;
  options.require_total = true;
  auto result = FindMaximallyContainedRewriting(query, {v1, v2}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rewriting.rules.size(), 1u);
  EXPECT_TRUE(result->equivalent);
}

TEST(ContainedTest, NothingContainedWhenViewsIrrelevant) {
  TslQuery view = MustParse(
      "<v(X') out U'> :- <X' zebra U'>@db", "Zebra");
  TslQuery query = MustParse("<f(P) out yes> :- <P rec {<X l u>}>@db", "Q");
  auto result = FindMaximallyContainedRewriting(query, {view},
                                                RewriteOptions{
                                                    .require_total = true});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rewriting.rules.empty());
  EXPECT_FALSE(result->equivalent);
}

TEST(ContainedTest, AllAcceptedRulesAreActuallyContained) {
  // Cross-check the containment claim through composition, independently.
  TslQuery view = MustParse(
      "<v(P') fem {<w(X') m Z'>}> :- "
      "<P' person {<G' gender female>}>@db AND "
      "<P' person {<X' name Z'>}>@db",
      "FemaleNames");
  TslQuery query = MustParse(
      "<f(P) out Z> :- <P person {<X name Z>}>@db", "Q");
  auto result = FindMaximallyContainedRewriting(
      query, {view}, RewriteOptions{.require_total = true});
  ASSERT_TRUE(result.ok());
  for (const TslQuery& rule : result->rewriting.rules) {
    auto composed = ComposeWithViews(rule, {view});
    ASSERT_TRUE(composed.ok());
    auto contained = IsContainedIn(*composed, TslRuleSet::Single(query));
    ASSERT_TRUE(contained.ok());
    EXPECT_TRUE(*contained) << rule.ToString();
  }
}

TEST(ContainedTest, MaxCandidatesCutIsFlaggedAndStaysSound) {
  TslQuery query = StarQuery();
  std::vector<TslQuery> views = PerArmViews();
  auto full = FindMaximallyContainedRewriting(query, views);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->truncated);
  // The first contained candidate, all four views, is the 79th tested.
  ASSERT_GT(full->candidates_tested, 100u);

  RewriteOptions options;
  options.max_candidates = 100;
  auto cut = FindMaximallyContainedRewriting(query, views, options);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_TRUE(cut->truncated);
  EXPECT_LE(cut->candidates_tested, options.max_candidates);
  EXPECT_FALSE(cut->rewriting.rules.empty());
  ExpectEveryRuleContained(*cut, query, views);
  ExpectMatchesReference(query, views, options);
}

TEST(ContainedTest, StrictLimitsTurnTheCutIntoResourceExhausted) {
  RewriteOptions options;
  options.max_candidates = 3;
  options.strict_limits = true;
  auto result =
      FindMaximallyContainedRewriting(StarQuery(), PerArmViews(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  ExpectMatchesReference(StarQuery(), PerArmViews(), options);
}

TEST(ContainedTest, FiringShouldStopTruncates) {
  RewriteOptions options;
  size_t polls = 0;
  options.should_stop = [&polls] { return ++polls > 4; };
  auto result =
      FindMaximallyContainedRewriting(StarQuery(), PerArmViews(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_LE(result->candidates_tested, 4u);
  ExpectEveryRuleContained(*result, StarQuery(), PerArmViews());
}

TEST(ContainedTest, QueryTheDtdMakesUnsatisfiableIsEquivalentToNothing) {
  // A person has one phone; two distinct phone values contradict the DTD.
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).value());
  RewriteOptions options;
  options.constraints = &constraints;
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P p {<A phone u1>}>@db AND "
      "<P p {<B phone u2>}>@db",
      "Q");
  auto result = FindMaximallyContainedRewriting(
      query, {MustParse(testing::kV1, "V1")}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->equivalent);
  EXPECT_TRUE(result->rewriting.rules.empty());
  EXPECT_EQ(result->candidates_tested, 0u);
}

TEST(ContainedTest, RegexViewIsAHardError) {
  TslQuery regex_view = MustParse(
      "<v(X') o V'> :- <E' part {<X' part+ V'>}>@db", "RV");
  auto result = FindMaximallyContainedRewriting(
      MustParse(testing::kQ3, "Q3"), {MustParse(testing::kV1, "V1"),
                                      regex_view});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIllFormedQuery);
}

TEST(ContainedTest, PaperFixturesMatchTheReference) {
  std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  size_t rules = 0;
  for (std::string_view text :
       {testing::kQ1, testing::kQ2, testing::kQ3, testing::kQ4,
        testing::kQ5, testing::kQ6, testing::kQ7, testing::kQ8,
        testing::kQ9, testing::kQ10, testing::kQ11, testing::kQ12,
        testing::kQ13, testing::kQ14}) {
    for (bool total : {false, true}) {
      RewriteOptions options;
      options.require_total = total;
      rules += ExpectMatchesReference(MustParse(text), views, options);
    }
  }
  EXPECT_GT(rules, 0u);
}

TEST(ContainedTest, DtdEnabledSearchMatchesTheReference) {
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).value());
  RewriteOptions options;
  options.constraints = &constraints;
  EXPECT_GT(ExpectMatchesReference(MustParse(testing::kQ7),
                                   {MustParse(testing::kV1, "V1")}, options),
            0u);
}

TEST(ContainedTest, RandomRuleSetsMatchTheReference) {
  size_t rules = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    testing::RandomRules gen(seed, 4, 4, "l0");
    std::vector<TslQuery> views = {gen.View("V1", "db"),
                                   gen.CopyView("V2", "db"),
                                   gen.DeepView("V3", "db"),
                                   gen.Query("W1", "db")};
    for (int i = 0; i < 4; ++i) {
      RewriteOptions options;
      options.require_total = i % 2 == 0;
      rules += ExpectMatchesReference(gen.Query("Q", "db"), views, options);
    }
  }
  EXPECT_GT(rules, 0u);
}

TEST(ContainedTest, SeparatorAtomsDoNotShareContainmentVerdicts) {
  // `f(a,b)` and `f("a;ab")` are distinct conditions; a memo key that
  // spells atoms without a length would hand one candidate's containment
  // verdict to the other.
  TslQuery query = MustParse(
      "<ans() out yes> :- <f(a,b) l v>@db AND <p(a,b) n v>@db AND "
      "<f(\"a;ab\") l v>@db",
      "Q");
  std::vector<TslQuery> views = {
      MustParse("<g(O) l V> :- <O l V>@db", "V1"),
      MustParse("<k(A,B) both V> :- <f(A,B) l V>@db AND <p(A,B) n V>@db",
                "V3")};
  RewriteOptions options;
  options.require_total = true;
  EXPECT_GT(ExpectMatchesReference(query, views, options), 0u);
  options.require_total = false;
  EXPECT_GT(ExpectMatchesReference(query, views, options), 0u);
}

TEST(ContainedTest, ContainmentVerdictsKeepTheWiring) {
  // {Vb3, Va} and {Va, Vb} compose to rules with the same conditions up to
  // renaming each, but only the second joins the b-value with the head's
  // V: a verdict key blind to the wiring would call the first contained.
  TslQuery query = MustParse(
      "<f(P) out V> :- <P rec {<X a V>}>@db AND <P rec {<Y b V>}>@db", "Q");
  std::vector<TslQuery> views = {
      MustParse("<vb3(P') yes yes> :- <P' rec {<Y' b W'>}>@db", "Vb3"),
      MustParse("<va(P') has V'> :- <P' rec {<X' a V'>}>@db", "Va"),
      MustParse("<vb(P') has V'> :- <P' rec {<Y' b V'>}>@db", "Vb")};
  for (bool total : {false, true}) {
    RewriteOptions options;
    options.require_total = total;
    EXPECT_GT(ExpectMatchesReference(query, views, options), 0u);
  }
}

}  // namespace
}  // namespace tslrw
