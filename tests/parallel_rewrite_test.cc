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
#include <vector>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "fixtures.h"
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
