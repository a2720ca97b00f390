// CL-EQUIV (\S4): cost of the TSL equivalence test as the number of graph
// components grows. Decomposition is linear in the head; the mutual
// coverage test is quadratic in the number of components times the cost of
// body-mapping discovery, so same-shaped queries should test in polynomial
// time, while wildcard bodies expose the underlying NP-hardness inherited
// from conjunctive-query containment.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "equiv/component.h"
#include "equiv/equivalence.h"

namespace tslrw::bench {
namespace {

/// A head republishing k subobjects under distinct labels: decomposes into
/// 1 top + k member + (k+1) object components.
TslQuery MakeWideHeadQuery(int k, const char* value_stem) {
  std::vector<std::string> head;
  std::vector<std::string> body;
  for (int i = 0; i < k; ++i) {
    head.push_back(StrCat("<h", i, "(X", i, ") m", i, " Z", i, ">"));
    body.push_back(
        StrCat("<P rec {<X", i, " l", i, " Z", i, ">}>@db"));
  }
  return MustParse(StrCat("<f(P) ", value_stem, " {", Join(head, " "),
                          "}> :- ", Join(body, " AND ")),
                   "Q");
}

void BM_Decompose(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  TslQuery q = MakeWideHeadQuery(k, "out");
  size_t components = 0;
  for (auto _ : state) {
    auto parts = DecomposeQuery(q);
    if (!parts.ok()) state.SkipWithError(parts.status().ToString().c_str());
    components = parts->size();
    benchmark::DoNotOptimize(parts);
  }
  state.counters["components"] = static_cast<double>(components);
  state.SetComplexityN(k);
}
BENCHMARK(BM_Decompose)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_EquivalentPair(benchmark::State& state) {
  // Alpha-renamed copies: the positive case must still verify quickly.
  const int k = static_cast<int>(state.range(0));
  TslQuery a = MakeWideHeadQuery(k, "out");
  TslQuery b = MakeWideHeadQuery(k, "out");
  for (auto _ : state) {
    auto eq = AreEquivalent(a, b);
    if (!eq.ok()) state.SkipWithError(eq.status().ToString().c_str());
    if (!*eq) state.SkipWithError("expected equivalence");
    benchmark::DoNotOptimize(eq);
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_EquivalentPair)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_InequivalentPair(benchmark::State& state) {
  // One differing label: the test must reject, typically fast (a component
  // with no counterpart).
  const int k = static_cast<int>(state.range(0));
  TslQuery a = MakeWideHeadQuery(k, "out");
  TslQuery b = MakeWideHeadQuery(k, "other");
  for (auto _ : state) {
    auto eq = AreEquivalent(a, b);
    if (!eq.ok()) state.SkipWithError(eq.status().ToString().c_str());
    if (*eq) state.SkipWithError("expected inequivalence");
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_InequivalentPair)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_ContainmentHardCase(benchmark::State& state) {
  // Wildcard bodies make body-mapping discovery combinatorial (inherited
  // CQ-containment hardness); kept small deliberately.
  const int k = static_cast<int>(state.range(0));
  std::vector<std::string> wild;
  for (int i = 0; i < k; ++i) {
    wild.push_back(StrCat("<P rec {<X", i, " Y", i, " Z", i, ">}>@db"));
  }
  TslQuery a = MustParse(
      StrCat("<f(P) out yes> :- ", Join(wild, " AND ")), "A");
  TslQuery b = MakeStarQuery(k);
  b.head = a.head;
  for (auto _ : state) {
    auto le = IsContainedIn(TslRuleSet::Single(b), TslRuleSet::Single(a));
    if (!le.ok()) state.SkipWithError(le.status().ToString().c_str());
    benchmark::DoNotOptimize(le);
  }
}
BENCHMARK(BM_ContainmentHardCase)->DenseRange(1, 12);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
