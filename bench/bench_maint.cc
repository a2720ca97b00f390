// CL-MAINT: what dependency-tracked selective invalidation buys on a
// catalog edit (docs/SERVING.md "Incremental maintenance"). Two claims are
// gated: (1) after editing ONE view out of N, the selective decider
// retains at least 90% of the warmed plan cache, and (2) re-serving the
// warmed workload after that edit is at least 5x faster under selective
// maintenance than under the pre-maintenance full flush — the flush arm
// pays a cold plan search per query, the selective arm pays one. Both are
// exported as paired counters (`retained`, `warmhit_gain`) from the same
// iteration, so the gate is immune to machine-speed drift. CI merges the
// JSON into BENCH_service.json and holds the floors with
// check_bench_regression.py --retention.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "catalog/diff.h"
#include "mediator/mediator.h"
#include "oem/generator.h"
#include "service/server.h"

namespace tslrw::bench {
namespace {

/// N single-path views over per-view labels m{i}: every warmed query
/// matches exactly one view, so the catalog scales without blowing up the
/// per-query candidate count (the exponential axis lives in
/// bench_rewrite). Editing view \p edited republishes under a different
/// head label — a real semantic change (the plans that use it differ),
/// while the query that maps onto the view stays answerable. \p renamed
/// spells every view with other variable names: the same catalog up to α.
std::vector<SourceDescription> MakeViews(int n, int edited,
                                         bool renamed = false) {
  std::vector<Capability> caps;
  caps.reserve(static_cast<size_t>(n));
  const char* p = renamed ? "Q'" : "P'";
  const char* x = renamed ? "Y'" : "X'";
  const char* u = renamed ? "W'" : "U'";
  for (int i = 0; i < n; ++i) {
    Capability cap;
    const char* head = (i == edited) ? "oedit" : "o";
    cap.view = MustParse(
        StrCat("<v", i, "(", p, ") ", head, i, " {<w", i, "(", x, ") k ", u,
               ">}> :- <", p, " rec {<", x, " m", i, " ", u, ">}>@db"),
        StrCat("V", i));
    caps.push_back(std::move(cap));
  }
  return {SourceDescription{"db", std::move(caps)}};
}

Mediator MustMake(std::vector<SourceDescription> sources) {
  auto mediator = Mediator::Make(std::move(sources));
  if (!mediator.ok()) std::abort();
  return std::move(mediator).ValueOrDie();
}

SourceCatalog MakeMaintCatalog() {
  GeneratorOptions options;
  options.seed = 7;
  options.num_roots = 24;
  options.max_depth = 2;
  options.num_labels = 4;
  options.num_values = 4;
  options.root_label = "rec";
  SourceCatalog catalog;
  catalog.Put(GenerateOemDatabase("db", options));
  return catalog;
}

/// The warmed workload: W distinct canonical queries, query j matching
/// only view j (query 0 is the one whose view the edit invalidates).
std::vector<TslQuery> MakeWorkload(int w) {
  std::vector<TslQuery> queries;
  queries.reserve(static_cast<size_t>(w));
  for (int j = 0; j < w; ++j) {
    queries.push_back(
        MustParse(StrCat("<f(P) out yes> :- <P rec {<X m", j, " U>}>@db"),
                  StrCat("Q", j)));
  }
  return queries;
}

bool AnswerAll(QueryServer& server, const std::vector<TslQuery>& workload,
               benchmark::State& state) {
  for (const TslQuery& query : workload) {
    auto response = server.Answer(query);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

/// The paired sweep: warm W queries against N views, edit one view the
/// workload uses, re-serve — once per maintenance mode, interleaved in the
/// same iteration. Counters:
///   retained      selective-arm retained fraction after the edit
///   warmhit_gain  flush-arm re-serve time / selective-arm re-serve time
void BM_MaintSingleViewEdit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Query j maps onto view j, so the workload cannot outnumber the views.
  const int num_queries = std::min(n, 128);
  const SourceCatalog catalog = MakeMaintCatalog();
  const std::vector<TslQuery> workload = MakeWorkload(num_queries);

  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds selective_ns{0};
  std::chrono::nanoseconds flush_ns{0};
  double retained = 0.0;

  auto run_arm = [&](MaintenanceMode mode,
                     std::chrono::nanoseconds* total) -> bool {
    state.PauseTiming();
    ServerOptions options;
    options.threads = 1;
    options.plan_cache_capacity = static_cast<size_t>(4 * num_queries);
    options.maintenance = mode;
    QueryServer server(MustMake(MakeViews(n, -1)), catalog, options);
    Mediator edited = MustMake(MakeViews(n, /*edited=*/0));
    if (!AnswerAll(server, workload, state)) return false;
    state.ResumeTiming();

    // Timed: the swap (diff + per-entry decisions) plus the re-serve.
    // Building the replacement mediator is untimed — both maintenance
    // modes pay it identically, and it would otherwise swamp the
    // cache-retention difference being measured.
    const auto start = Clock::now();
    MaintenanceReport report = server.ReplaceMediator(std::move(edited));
    if (!AnswerAll(server, workload, state)) return false;
    *total += Clock::now() - start;

    if (mode == MaintenanceMode::kSelective) {
      if (report.entries_examined == 0) {
        state.SkipWithError("selective swap examined no entries");
        return false;
      }
      retained = static_cast<double>(report.entries_retained) /
                 static_cast<double>(report.entries_examined);
    }
    return true;
  };

  bool selective_first = true;
  for (auto _ : state) {
    if (selective_first) {
      if (!run_arm(MaintenanceMode::kSelective, &selective_ns)) return;
      if (!run_arm(MaintenanceMode::kFullFlush, &flush_ns)) return;
    } else {
      if (!run_arm(MaintenanceMode::kFullFlush, &flush_ns)) return;
      if (!run_arm(MaintenanceMode::kSelective, &selective_ns)) return;
    }
    selective_first = !selective_first;
  }

  const double iters = static_cast<double>(
      std::max<int64_t>(static_cast<int64_t>(state.iterations()), 1));
  state.counters["retained"] = retained;
  state.counters["selective_us"] =
      static_cast<double>(selective_ns.count()) / 1e3 / iters;
  state.counters["flush_us"] =
      static_cast<double>(flush_ns.count()) / 1e3 / iters;
  state.counters["warmhit_gain"] =
      selective_ns.count() > 0
          ? static_cast<double>(flush_ns.count()) /
                static_cast<double>(selective_ns.count())
          : 0.0;
}
BENCHMARK(BM_MaintSingleViewEdit)
    ->Arg(100)
    ->Arg(1000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The diff itself: ComputeCatalogDelta over two N-view catalogs that
/// differ in one view. This is the fixed per-swap cost selective
/// maintenance adds before any per-entry decision; it must stay linear in
/// the catalog size. The N-1 untouched views compare equal, so only the
/// edited one is fingerprinted.
void BM_CatalogDeltaCompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<SourceDescription> before = MakeViews(n, -1);
  const std::vector<SourceDescription> after = MakeViews(n, 0);
  for (auto _ : state) {
    CatalogDelta delta = ComputeCatalogDelta(before, nullptr, after, nullptr);
    benchmark::DoNotOptimize(delta);
    if (delta.changed.size() != 1) {
      state.SkipWithError("diff misclassified the single-view edit");
      return;
    }
  }
}
BENCHMARK(BM_CatalogDeltaCompute)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

/// The same one-view edit, but every view of the new catalog is re-spelled
/// with renamed variables: no view compares equal, so the diff proves each
/// shared name unchanged by its α-invariant fingerprint. Bounds the
/// fingerprint path that BM_CatalogDeltaCompute's equal views skip.
void BM_CatalogDeltaComputeRenamed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<SourceDescription> before = MakeViews(n, -1);
  const std::vector<SourceDescription> after =
      MakeViews(n, 0, /*renamed=*/true);
  for (auto _ : state) {
    CatalogDelta delta = ComputeCatalogDelta(before, nullptr, after, nullptr);
    benchmark::DoNotOptimize(delta);
    if (delta.changed.size() != 1) {
      state.SkipWithError("diff misclassified the single-view edit");
      return;
    }
  }
}
BENCHMARK(BM_CatalogDeltaComputeRenamed)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tslrw::bench

BENCHMARK_MAIN();
