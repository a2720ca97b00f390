// CL-EXP-COMP (\S5.1 / [31]): "the construction of Q'(V1,...,Vn) using a
// query composition algorithm takes exponential time."
//
// Family: a view head with b sibling branches against a query with n
// generic member conditions over the view — each condition unifies with
// every branch, so composition produces b^n resolvent rules. The `rules`
// counter exposes the blow-up; time follows it. The selective family shows
// the practical case (constant labels, one unifier each) staying linear.
// The star-candidates family is a rewriting search's composition load:
// every cover of a k-arm star by per-arm views and a catch-all, composed
// with one shared ComposeCache, as a search's verification worker does.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.h"
#include "rewrite/compose.h"

namespace tslrw::bench {
namespace {

void BM_ComposeBranchy(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));  // head branches
  const int n = static_cast<int>(state.range(1));  // generic conditions
  TslQuery view = MakeBranchyView(b, "V");
  TslQuery query = MakeGenericViewQuery(n, "V");
  size_t rules = 0;
  for (auto _ : state) {
    auto composed = ComposeWithViews(query, {view});
    if (!composed.ok()) {
      state.SkipWithError(composed.status().ToString().c_str());
    }
    rules = composed->rules.size();
    benchmark::DoNotOptimize(composed);
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["expected_upper"] = std::pow(b, n);
}
BENCHMARK(BM_ComposeBranchy)
    ->ArgsProduct({{2, 3, 4}, {1, 2, 3, 4}});

void BM_ComposeSelective(benchmark::State& state) {
  // Constant-labeled conditions match exactly one branch each: one rule,
  // time linear in n (the everyday case for rewriter-generated bodies).
  const int n = static_cast<int>(state.range(0));
  const int b = 8;
  TslQuery view = MakeBranchyView(b, "V");
  std::vector<std::string> body;
  for (int i = 0; i < n; ++i) {
    int branch = i % b;
    body.push_back(StrCat("<v(P) out {<w", branch, "(X", i, ") m U", i,
                          ">}>@V"));
  }
  TslQuery query = MustParse(
      StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
  size_t rules = 0;
  for (auto _ : state) {
    auto composed = ComposeWithViews(query, {view});
    if (!composed.ok()) {
      state.SkipWithError(composed.status().ToString().c_str());
    }
    rules = composed->rules.size();
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.SetComplexityN(n);
}
BENCHMARK(BM_ComposeSelective)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Complexity();

void BM_ComposeDeepPush(benchmark::State& state) {
  // Pushing an ever-deeper remaining path below a copied view value: the
  // set-binding mechanics should stay linear in the path depth.
  const int depth = static_cast<int>(state.range(0));
  TslQuery view = MakeDumpView("V");
  std::string inner = "u";
  for (int d = depth; d >= 1; --d) {
    inner = StrCat("{<Y", d, " m", d, " ", inner, ">}");
  }
  TslQuery query = MustParse(
      StrCat("<f(P) out yes> :- <d(P) rec {<X l0 ", inner, ">}>@V"), "Q");
  for (auto _ : state) {
    auto composed = ComposeWithViews(query, {view});
    if (!composed.ok()) {
      state.SkipWithError(composed.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(composed);
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_ComposeDeepPush)
    ->RangeMultiplier(2)
    ->Range(1, 32)
    ->Complexity();

void BM_ComposeStarCandidates(benchmark::State& state) {
  // The 2^k covers of a k-arm star: arm i comes from its own view A<i>
  // or from the catch-all D (perfbench's catalog shape). One cache serves
  // all of them, so each distinct (condition, view) pair is resolved once
  // per iteration and every later cover concatenates memoized bodies.
  const int k = static_cast<int>(state.range(0));
  std::vector<TslQuery> views;
  for (int i = 0; i < k; ++i) {
    views.push_back(MustParse(StrCat("<a", i, "(P') oa", i, " {<wa", i,
                                     "(X') m U'>}> :- <P' rec {<X' l", i,
                                     " U'>}>@db"),
                              StrCat("A", i)));
  }
  views.push_back(MakeDumpView("D"));
  std::vector<TslQuery> candidates;
  for (int mask = 0; mask < (1 << k); ++mask) {
    std::vector<std::string> body;
    for (int i = 0; i < k; ++i) {
      body.push_back(
          (mask >> i & 1)
              ? StrCat("<d(P) rec {<X", i, " l", i, " u", i, ">}>@D")
              : StrCat("<a", i, "(P) oa", i, " {<wa", i, "(X", i, ") m u", i,
                       ">}>@A", i));
    }
    candidates.push_back(MustParse(
        StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "C"));
  }
  size_t rules = 0;
  size_t entries = 0;
  for (auto _ : state) {
    ComposeCache cache(views);
    rules = 0;
    for (const TslQuery& candidate : candidates) {
      auto composed = ComposeWithViews(candidate, &cache);
      if (!composed.ok()) {
        state.SkipWithError(composed.status().ToString().c_str());
        return;
      }
      rules += composed->rules.size();
    }
    entries = cache.size();
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["memo_entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_ComposeStarCandidates)->DenseRange(3, 6);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
