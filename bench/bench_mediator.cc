// CL-CBR (\S1, Fig. 2): capability-based rewriting as the mediator's query
// processing front end. We sweep the number of integrated sources and the
// data volume, separating planning cost (pure rewriting, no data access)
// from execution cost (wrapper materialization + consolidation).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mediator/cache.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "oem/generator.h"

namespace tslrw::bench {
namespace {

/// n sources, each with a dump capability over its publication-like data.
Mediator MakeWideMediator(int n) {
  std::vector<SourceDescription> sources;
  for (int i = 0; i < n; ++i) {
    Capability cap;
    cap.view = MustParse(
        StrCat("<d", i, "(P') rec {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@s",
               i),
        StrCat("Dump", i));
    sources.push_back(SourceDescription{StrCat("s", i), {cap}});
  }
  auto mediator = Mediator::Make(std::move(sources));
  if (!mediator.ok()) std::abort();
  return std::move(mediator).ValueOrDie();
}

SourceCatalog MakeWideCatalog(int n, int roots_each) {
  SourceCatalog catalog;
  for (int i = 0; i < n; ++i) {
    GeneratorOptions options;
    options.seed = 1000 + static_cast<uint64_t>(i);
    options.num_roots = roots_each;
    options.max_depth = 2;
    options.num_labels = 4;
    options.num_values = 4;
    options.root_label = "rec";
    catalog.Put(GenerateOemDatabase(StrCat("s", i), options));
  }
  return catalog;
}

void BM_PlanVsSources(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Mediator mediator = MakeWideMediator(n);
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P rec {<X l0 v0>}>@s0", "Q");
  size_t plans = 0;
  for (auto _ : state) {
    auto result = mediator.Plan(query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    plans = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["plans"] = static_cast<double>(plans);
  state.SetComplexityN(n);
}
BENCHMARK(BM_PlanVsSources)->RangeMultiplier(2)->Range(1, 16)->Complexity();

void BM_ExecuteVsDataSize(benchmark::State& state) {
  const int roots = static_cast<int>(state.range(0));
  Mediator mediator = MakeWideMediator(2);
  SourceCatalog catalog = MakeWideCatalog(2, roots);
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P rec {<X l0 v0>}>@s0", "Q");
  auto plans = mediator.Plan(query);
  if (!plans.ok() || plans->empty()) {
    state.SkipWithError("no plan");
    return;
  }
  for (auto _ : state) {
    auto answer = mediator.Execute(plans->front(), catalog);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    benchmark::DoNotOptimize(answer);
  }
  state.SetComplexityN(roots);
}
BENCHMARK(BM_ExecuteVsDataSize)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

void BM_CacheHitVsMiss(benchmark::State& state) {
  // The \S1 cached-query scenario: answering from the cache versus
  // recomputing over the base (the win the repository is after).
  const bool hit = state.range(0) == 1;
  SourceCatalog catalog = MakeWideCatalog(1, 256);
  QueryCache cache;
  TslQuery cached = MustParse(
      "<c(P') rec {<X' Y' Z'>}> :- "
      "<P' rec {<U' l0 v0>}>@s0 AND <P' rec {<X' Y' Z'>}>@s0",
      "L0V0Cache");
  if (!cache.InsertAndMaterialize(cached, catalog).ok()) {
    state.SkipWithError("cache warmup failed");
    return;
  }
  // The narrower query filters the cached result further.
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P rec {<U l0 v0>}>@s0 AND <P rec {<W l1 v1>}>@s0",
      "Q");
  SourceCatalog base = hit ? SourceCatalog{} : catalog;
  for (auto _ : state) {
    auto answer = cache.TryAnswer(query, hit ? SourceCatalog{} : catalog,
                                  /*allow_base_fallback=*/!hit);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    benchmark::DoNotOptimize(answer);
  }
  state.SetLabel(hit ? "cache-hit" : "base-recompute");
}
BENCHMARK(BM_CacheHitVsMiss)->Arg(1)->Arg(0);

void BM_FailoverVsDeadEndpoints(benchmark::State& state) {
  // Fault-tolerant Answer with 0, 1, or 2 of three replicated endpoints
  // dead: the marginal cost of exhausting retries and walking further down
  // the plan list before a live replica answers.
  const int dead = static_cast<int>(state.range(0));
  std::vector<SourceDescription> sources;
  for (int i = 0; i < 3; ++i) {
    Capability cap;
    cap.view = MustParse(
        StrCat("<r", i, "(P') rec {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@s0"),
        StrCat("R", i));
    sources.push_back(SourceDescription{"s0", {cap}});
  }
  auto mediator = Mediator::Make(std::move(sources));
  if (!mediator.ok()) {
    state.SkipWithError("mediator construction failed");
    return;
  }
  SourceCatalog catalog = MakeWideCatalog(1, 64);
  TslQuery query = MustParse(
      "<f(P) out yes> :- <P rec {<X l0 v0>}>@s0", "Q");
  CatalogWrapper base;
  for (auto _ : state) {
    VirtualClock clock;
    FaultInjector injector(&base, /*seed=*/7, &clock);
    for (int i = 0; i < dead; ++i) {
      FaultSchedule down;
      down.steady_state = Fault::Unavailable();
      injector.SetSchedule(StrCat("R", i), down);
    }
    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.retry.max_attempts = 2;
    auto answer = mediator->Answer(query, catalog, policy);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    benchmark::DoNotOptimize(answer);
  }
  state.SetLabel(StrCat(dead, " dead endpoint(s)"));
}
BENCHMARK(BM_FailoverVsDeadEndpoints)->Arg(0)->Arg(1)->Arg(2);

void BM_DegradedVsTotalPlanning(benchmark::State& state) {
  // The cost of the \S7 fallback relative to a healthy total plan: the
  // two-source query loses s1, so Answer re-plans and runs the
  // maximally-contained search before producing the degraded answer.
  const bool degraded = state.range(0) == 1;
  Mediator mediator = MakeWideMediator(2);
  SourceCatalog catalog = MakeWideCatalog(2, 64);
  TslQuery query = MustParse(
      "<f(P,R) out yes> :- "
      "<P rec {<X l0 v0>}>@s0 AND <R rec {<Y l1 v1>}>@s1",
      "Q");
  CatalogWrapper base;
  for (auto _ : state) {
    VirtualClock clock;
    FaultInjector injector(&base, /*seed=*/7, &clock);
    if (degraded) {
      FaultSchedule down;
      down.steady_state = Fault::Unavailable();
      injector.SetSchedule("s1", down);
    }
    ExecutionPolicy policy;
    policy.wrapper = &injector;
    policy.clock = &clock;
    policy.retry.max_attempts = 1;
    auto answer = mediator.Answer(query, catalog, policy);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    benchmark::DoNotOptimize(answer);
  }
  state.SetLabel(degraded ? "degraded-fallback" : "total-plan");
}
BENCHMARK(BM_DegradedVsTotalPlanning)->Arg(0)->Arg(1);

void BM_MediatorMake(benchmark::State& state) {
  // Mediator::Make over one source and N single-path capability views
  // (the analyzer's per-rule passes, then the view index): the set-up a
  // catalog edit pays in full.
  const int n = static_cast<int>(state.range(0));
  std::vector<Capability> caps;
  caps.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Capability cap;
    cap.view = MustParse(StrCat("<v", i, "(P') o", i, " {<w", i,
                                "(X') k U'>}> :- <P' rec {<X' m", i,
                                " U'>}>@db"),
                         StrCat("V", i));
    caps.push_back(std::move(cap));
  }
  const std::vector<SourceDescription> sources = {
      SourceDescription{"db", std::move(caps)}};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SourceDescription> copy = sources;
    state.ResumeTiming();
    auto mediator = Mediator::Make(std::move(copy));
    if (!mediator.ok()) {
      state.SkipWithError(mediator.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mediator);
  }
}
BENCHMARK(BM_MediatorMake)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
