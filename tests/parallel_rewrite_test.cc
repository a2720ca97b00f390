// The verification pipeline's contract (docs/PARALLELISM.md): RewriteQuery
// at every parallelism must be byte-identical to the plain, unmemoized
// reference rewriter in src/testing — same rewritings in the same order
// with the same names, same counters, same truncation flag, same error
// statuses — for every input. The k=5 per-arm stress cases double as the
// TSan workload (the CI thread-sanitize job runs the whole suite under
// TSan).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "fixtures.h"
#include "rewrite/alpha_ids.h"
#include "rewrite/rewriter.h"
#include "testing/random_rules.h"
#include "testing/reference_rewriter.h"

namespace tslrw {
namespace {

using testing::MustParse;

std::string RenderRewritings(const RewriteResult& r) {
  std::string out;
  for (const TslQuery& q : r.rewritings) out += q.ToString() + "\n";
  return out;
}

/// One single-arm view per star-query condition (the CL-EXP-CAND shape).
std::vector<TslQuery> PerArmViews(int k) {
  std::vector<TslQuery> views;
  for (int i = 0; i < k; ++i) {
    views.push_back(MustParse(
        StrCat("<v", i, "(P') o", i, " {<w", i, "(X') m U'>}> :- ",
               "<P' rec {<X' l", i, " U'>}>@db"),
        StrCat("V", i)));
  }
  return views;
}

TslQuery StarQuery(int k) {
  std::vector<std::string> body;
  for (int i = 0; i < k; ++i) {
    body.push_back(StrCat("<P rec {<X", i, " l", i, " u", i, ">}>@db"));
  }
  return MustParse(StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
}

/// Runs the plain reference and RewriteQuery at each of parallelism
/// {1, 2, 4, 8}; every output the determinism guarantee covers must match
/// the reference byte-for-byte. (chase/equiv cache hits, batches, and wall
/// ticks are scheduling-dependent diagnostics and deliberately not
/// compared.) Returns the reference's rewriting count (0 on error), so
/// callers can check their inputs exercise acceptance at all.
size_t ExpectMatchesReference(const TslQuery& query,
                              const std::vector<TslQuery>& views,
                              RewriteOptions options = {}) {
  Result<RewriteResult> reference =
      testing::ReferenceRewrite(query, views, options);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    options.parallelism = workers;
    Result<RewriteResult> actual = RewriteQuery(query, views, options);
    SCOPED_TRACE(StrCat("parallelism=", workers, " query=", query.ToString()));
    EXPECT_EQ(reference.ok(), actual.ok())
        << (reference.ok() ? actual.status() : reference.status()).ToString();
    if (!reference.ok() || !actual.ok()) {
      EXPECT_EQ(reference.status().ToString(), actual.status().ToString());
      continue;
    }
    EXPECT_EQ(RenderRewritings(*reference), RenderRewritings(*actual));
    EXPECT_EQ(reference->mappings_found, actual->mappings_found);
    EXPECT_EQ(reference->candidates_generated, actual->candidates_generated);
    EXPECT_EQ(reference->candidates_tested, actual->candidates_tested);
    EXPECT_EQ(reference->truncated, actual->truncated);
    EXPECT_EQ(reference->views_touched, actual->views_touched);
    EXPECT_EQ(reference->query_unsatisfiable, actual->query_unsatisfiable);
  }
  return reference.ok() ? reference->rewritings.size() : 0;
}

TEST(ParallelRewriteTest, PaperFixturesAreByteIdentical) {
  // Every numbered paper query against (V1): the suite the rest of the
  // repo validates the rewriting algorithm itself on.
  const std::vector<std::string_view> fixtures = {
      testing::kQ1,  testing::kQ2,  testing::kQ3,  testing::kQ5,
      testing::kQ7,  testing::kQ9,  testing::kQ10, testing::kQ11,
      testing::kQ12, testing::kQ13, testing::kQ14,
  };
  std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  size_t rewritings = 0;
  for (std::string_view text : fixtures) {
    rewritings += ExpectMatchesReference(MustParse(text), views);
  }
  EXPECT_GT(rewritings, 0u);
}

TEST(ParallelRewriteTest, FixturesOverViewBodiesAreByteIdentical) {
  // (Q4)/(Q6)/(Q8) have @V1 conditions — candidates over the view itself.
  std::vector<TslQuery> views = {MustParse(testing::kV1, "V1")};
  for (std::string_view text :
       {testing::kQ4, testing::kQ4n, testing::kQ6, testing::kQ8}) {
    ExpectMatchesReference(MustParse(text), views);
  }
}

TEST(ParallelRewriteTest, DtdEnabledRewritingIsByteIdentical) {
  // Example 3.5: the rewriting of (Q7) exists only under the DTD — the
  // constraint-exempt chase path through the memo must agree too.
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StructuralConstraints constraints(std::move(dtd).value());
  RewriteOptions options;
  options.constraints = &constraints;
  EXPECT_EQ(ExpectMatchesReference(MustParse(testing::kQ7),
                                   {MustParse(testing::kV1, "V1")}, options),
            1u);
}

TEST(ParallelRewriteTest, RandomRuleSetsAreByteIdentical) {
  size_t rewritings = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    testing::RandomRules rules(seed, 4, 4, "l0");
    std::vector<TslQuery> views = {rules.View("V1", "db"),
                                   rules.CopyView("V2", "db"),
                                   rules.DeepView("V3", "db")};
    for (int i = 0; i < 4; ++i) {
      rewritings += ExpectMatchesReference(rules.Query("Q", "db"), views);
    }
  }
  EXPECT_GT(rewritings, 0u);
}

TEST(ParallelRewriteTest, PerArmStarIsByteIdenticalWithAndWithoutPruning) {
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  ExpectMatchesReference(query, views, options);
  options.prune_dominated = false;
  ExpectMatchesReference(query, views, options);
  options.use_cover_heuristic = false;
  ExpectMatchesReference(StarQuery(3), PerArmViews(3), options);
}

TEST(ParallelRewriteTest, SeparatorAtomsDoNotShareMemoEntries) {
  // `f(a,b)` and `f("a;ab")` are distinct conditions; a memo key that
  // spells atoms without a length would let the candidate holding one
  // reuse the verdict of the candidate holding the other and accept a
  // non-minimal rewriting the reference rejects.
  TslQuery query = MustParse(
      "<ans() out yes> :- <f(a,b) l v>@db AND <p(a,b) n v>@db AND "
      "<f(\"a;ab\") l v>@db",
      "Q");
  std::vector<TslQuery> views = {
      MustParse("<g(O) l V> :- <O l V>@db", "V1"),
      MustParse("<k(A,B) both V> :- <f(A,B) l V>@db AND <p(A,B) n V>@db",
                "V3")};
  RewriteOptions options;
  options.use_cover_heuristic = false;
  options.require_total = true;
  EXPECT_GT(ExpectMatchesReference(query, views, options), 0u);
}

TslRuleSet Rules(std::initializer_list<std::string_view> texts) {
  TslRuleSet rules;
  int n = 0;
  for (std::string_view text : texts) {
    rules.rules.push_back(MustParse(text, StrCat("r", ++n)));
  }
  return rules;
}

TEST(ParallelRewriteTest, VerdictKeyIgnoresRenamingAndOrder) {
  AlphaIdTable table;
  const std::vector<uint32_t> key = table.VerdictKey(Rules(
      {"<f(P) out V> :- <P a V>@db AND <P b {<X c W>}>@db",
       "<g(P) out {<h(V) val V>}> :- <P a V>@db AND <P d V>@db"}));
  // α-renamed, with a different rule name.
  EXPECT_EQ(key, table.VerdictKey(Rules(
                     {"<f(Q) out U> :- <Q a U>@db AND <Q b {<Y c Z>}>@db",
                      "<g(R) out {<h(T) val T>}> :- <R a T>@db AND "
                      "<R d T>@db"})));
  // Bodies permuted.
  EXPECT_EQ(key, table.VerdictKey(Rules(
                     {"<f(P) out V> :- <P b {<X c W>}>@db AND <P a V>@db",
                      "<g(P) out {<h(V) val V>}> :- <P d V>@db AND "
                      "<P a V>@db"})));
  // Rules permuted, and renamed apart from each other.
  EXPECT_EQ(key, table.VerdictKey(Rules(
                     {"<g(A) out {<h(B) val B>}> :- <A d B>@db AND "
                      "<A a B>@db",
                      "<f(C) out D> :- <C a D>@db AND <C b {<E c F>}>@db"})));
}

TEST(ParallelRewriteTest, VerdictKeySeparatesDistinctRuleSets) {
  AlphaIdTable table;
  // Atoms spelled without a length would run together.
  EXPECT_NE(table.VerdictKey(Rules({"<ans() out yes> :- <f(a,b) l v>@db"})),
            table.VerdictKey(
                Rules({"<ans() out yes> :- <f(\"a;ab\") l v>@db"})));
  // The same multiset of conditions, wired differently: V is the a-value
  // in one rule and the b-value in the other.
  EXPECT_NE(
      table.VerdictKey(Rules({"<f(P) out V> :- <P a V>@db AND <P b W>@db"})),
      table.VerdictKey(Rules({"<f(P) out V> :- <P a W>@db AND <P b V>@db"})));
  // A join against no join.
  EXPECT_NE(
      table.VerdictKey(Rules({"<f(P) out V> :- <P a V>@db AND <P b V>@db"})),
      table.VerdictKey(Rules({"<f(P) out V> :- <P a V>@db AND <P b W>@db"})));
  // One rule against the same rule twice, and against two rules.
  const char* rule = "<f(P) out V> :- <P a V>@db";
  EXPECT_NE(table.VerdictKey(Rules({rule})),
            table.VerdictKey(Rules({rule, rule})));
  EXPECT_NE(table.VerdictKey(Rules({rule, "<f(P) out V> :- <P b V>@db"})),
            table.VerdictKey(
                Rules({"<f(P) out V> :- <P a V>@db AND <P b V>@db"})));
}

TEST(ParallelRewriteTest, VerdictKeyIsOneKeyAcrossThreads) {
  // The pool's workers share one table and race to intern the same parts;
  // every thread must still see one key per rule set, whichever thread
  // interned a part first.
  const std::vector<TslRuleSet> sets = {
      Rules({"<f(P) out V> :- <P a V>@db AND <P b W>@db"}),
      Rules({"<f(Q) out U> :- <Q a U>@db AND <Q b T>@db"}),
      Rules({"<f(P) out V> :- <P a W>@db AND <P b V>@db"}),
      Rules({"<f(P) out V> :- <P b V>@db AND <P a W>@db"})};
  constexpr size_t kThreads = 4;
  for (int round = 0; round < 20; ++round) {
    AlphaIdTable table;
    std::vector<std::vector<std::vector<uint32_t>>> keys(
        kThreads, std::vector<std::vector<uint32_t>>(sets.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < sets.size(); ++i) {
          const size_t at = (i + t) % sets.size();  // each its own order
          keys[t][at] = table.VerdictKey(sets[at]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(keys[t], keys[0]);
    EXPECT_EQ(keys[0][0], keys[0][1]);
    EXPECT_EQ(keys[0][2], keys[0][3]);
    EXPECT_NE(keys[0][0], keys[0][2]);
  }
}

TEST(ParallelRewriteTest, VerdictMemoKeepsTheWiring) {
  // {Vb3, Va} and {Va, Vb} compose to rules with the same conditions up to
  // renaming each, an a-arm and a b-arm, but only the second joins the
  // b-value with the head's V. A verdict key blind to the wiring would
  // hand the first candidate's "not equivalent" to the second and lose
  // rewritings.
  TslQuery query = MustParse(
      "<f(P) out V> :- <P rec {<X a V>}>@db AND <P rec {<Y b V>}>@db", "Q");
  std::vector<TslQuery> views = {
      MustParse("<vb3(P') yes yes> :- <P' rec {<Y' b W'>}>@db", "Vb3"),
      MustParse("<va(P') has V'> :- <P' rec {<X' a V'>}>@db", "Va"),
      MustParse("<vb(P') has V'> :- <P' rec {<Y' b V'>}>@db", "Vb")};
  EXPECT_GE(ExpectMatchesReference(query, views), 1u);
  RewriteOptions options;
  options.prune_dominated = false;
  EXPECT_GE(ExpectMatchesReference(query, views, options), 1u);
}

TEST(ParallelRewriteTest, UnsafeCandidatesAreSkippedWhereCheckSafetySkips) {
  // Va2 projects the a-value away, so a candidate with Va2's atom and
  // without the query's own a-arm leaves the head variable V in no chosen
  // atom: unsafe, skipped before it is tested. V sits in a plain head
  // value, inside a function-term oid, and inside a set-valued head.
  std::vector<TslQuery> views = {
      MustParse("<va2(P') yes yes> :- <P' rec {<X' a U'>}>@db", "Va2"),
      MustParse("<vb(P') has W'> :- <P' rec {<Y' b W'>}>@db", "Vb")};
  const std::string body = "<P rec {<X a V>}>@db AND <P rec {<Y b W>}>@db";
  for (const char* head : {"<f(P) out V>", "<f(P,V) out yes>",
                           "<f(P) out {<g(V) val V>}>",
                           "<f(P) out {<g(P,V) val yes>}>"}) {
    const std::string text = StrCat(head, " :- ", body);
    TslQuery query = MustParse(text, "Q");
    for (bool prune : {true, false}) {
      SCOPED_TRACE(StrCat(text, " prune_dominated=", prune));
      RewriteOptions options;
      options.prune_dominated = prune;
      Result<RewriteResult> reference =
          testing::ReferenceRewrite(query, views, options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      // {Va2, Vb} and {Va2, <P b W>} are generated but never tested.
      EXPECT_GE(reference->candidates_generated,
                reference->candidates_tested + 2);
      EXPECT_GE(ExpectMatchesReference(query, views, options), 1u);
    }
  }
}

TEST(ParallelRewriteTest, TruncationIsByteIdentical) {
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;
  options.max_candidates = 10;
  ExpectMatchesReference(query, views, options);

  // strict_limits: the ResourceExhausted message embeds
  // candidates_generated, so byte-identical errors require byte-identical
  // counters at the cut.
  options.strict_limits = true;
  ExpectMatchesReference(query, views, options);
}

TEST(ParallelRewriteTest, StatefulShouldStopIsByteIdentical) {
  // should_stop is polled on the enumerating thread only, once per emitted
  // candidate in enumeration order — a counting hook therefore fires at
  // the same candidate at every parallelism.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  for (size_t workers : {1u, 2u, 8u}) {
    RewriteOptions options;
    options.prune_dominated = false;
    options.parallelism = workers;
    size_t polls = 0;
    options.should_stop = [&polls] { return ++polls > 12; };
    Result<RewriteResult> result = RewriteQuery(query, views, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->truncated);
    EXPECT_EQ(result->candidates_generated, 12u);
  }
}

TEST(ParallelRewriteTest, SharedWorkCountersReportTheSharing) {
  // CL-EXP-CAND shape: all 2^k - 1 candidates compose to α-equivalent rule
  // sets, so at most one verdict per worker is computed from scratch; the
  // rest must come from the memo. Inline verification (parallelism 1)
  // runs the same memos but dispatches nothing to a pool.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;

  options.parallelism = 1;
  Result<RewriteResult> inline_run = RewriteQuery(query, views, options);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  EXPECT_EQ(inline_run->candidates_generated, 31u);
  EXPECT_GE(inline_run->equiv_cache_hits, 30u);
  EXPECT_EQ(inline_run->batches_dispatched, 0u);

  options.parallelism = 4;
  Result<RewriteResult> parallel = RewriteQuery(query, views, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->candidates_generated, 31u);
  EXPECT_GE(parallel->batches_dispatched, 1u);
  EXPECT_GE(parallel->equiv_cache_hits, 1u);
}

TEST(ParallelRewriteTest, StressPerArmStarAtHighParallelism) {
  // The TSan workload: many batches, memo contention, dominance pruning,
  // and the bounded in-flight window all active at once.
  TslQuery query = StarQuery(5);
  std::vector<TslQuery> views = PerArmViews(5);
  RewriteOptions options;
  options.prune_dominated = false;
  Result<RewriteResult> reference =
      testing::ReferenceRewrite(query, views, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  options.parallelism = 8;
  for (int round = 0; round < 4; ++round) {
    Result<RewriteResult> parallel = RewriteQuery(query, views, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(RenderRewritings(*reference), RenderRewritings(*parallel));
    EXPECT_EQ(reference->candidates_tested, parallel->candidates_tested);
  }
}

}  // namespace
}  // namespace tslrw
