// The differential maintenance drill runner behind the CI maintenance
// job: replays seeded catalog-mutation + query scripts twice per seed —
// once under selective, dependency-tracked plan-cache invalidation and
// once under the full-flush baseline — and fails unless every request's
// answer, completeness, execution report, served plan list, and
// normalized trace were byte-identical between the two arms
// (docs/SERVING.md "Incremental maintenance").
//
//   tslrw_maint_drill [seeds a,b,c] [steps N] [requests N] [threads N]
//               [report]
//
// `threads N` (N > 1) issues each step's request burst concurrently.
// `report` prints the selective arm's per-step maintenance log.
//
// Exit code 0 = every (seed, config) byte-identical across the arms.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/maint_differential.h"

int main(int argc, char** argv) {
  using namespace tslrw;

  std::vector<uint64_t> seeds = {1, 7, 23};
  size_t steps = 10;
  size_t requests = 6;
  size_t threads = 1;
  bool print_report = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "seeds") == 0) {
      seeds.clear();
      const char* list = value("seeds");
      for (const char* p = list; *p != '\0';) {
        char* end = nullptr;
        seeds.push_back(std::strtoull(p, &end, 10));
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "steps") == 0) {
      steps = std::strtoull(value("steps"), nullptr, 10);
    } else if (std::strcmp(argv[i], "requests") == 0) {
      requests = std::strtoull(value("requests"), nullptr, 10);
    } else if (std::strcmp(argv[i], "threads") == 0) {
      threads = std::strtoull(value("threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "report") == 0) {
      print_report = true;
    } else {
      std::fprintf(stderr,
                   "usage: tslrw_maint_drill [seeds a,b,c] [steps N] "
                   "[requests N] [threads N] [report]\n");
      return 2;
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "no seeds given\n");
    return 2;
  }

  bool ok = true;
  size_t examined = 0;
  size_t invalidated = 0;
  size_t retained = 0;
  for (uint64_t seed : seeds) {
    MaintDrillOptions options;
    options.seed = seed;
    options.steps = steps;
    options.requests_per_step = requests;
    options.parallelism = threads;
    Result<MaintDrillResult> drilled = RunMaintDifferentialDrill(options);
    if (!drilled.ok()) {
      std::fprintf(stderr, "seed %llu: drill error: %s\n",
                   static_cast<unsigned long long>(seed),
                   drilled.status().ToString().c_str());
      ok = false;
      continue;
    }
    const MaintDrillResult& result = *drilled;
    examined += result.entries_examined;
    invalidated += result.entries_invalidated;
    retained += result.entries_retained;
    std::printf(
        "seed %llu: %s; selective examined %zu / invalidated %zu / "
        "retained %zu; cache hits %llu (selective) vs %llu (full flush)\n",
        static_cast<unsigned long long>(seed),
        result.identical ? "byte-identical" : "DIVERGED",
        result.entries_examined, result.entries_invalidated,
        result.entries_retained,
        static_cast<unsigned long long>(result.selective_hits),
        static_cast<unsigned long long>(result.flush_hits));
    if (print_report) std::fputs(result.report.c_str(), stdout);
    for (const std::string& divergence : result.divergences) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   divergence.c_str());
    }
    ok = ok && result.identical;
  }
  std::printf(
      "maint: %zu seed(s), %zu thread(s): %s "
      "(%zu examined, %zu invalidated, %zu retained)\n",
      seeds.size(), threads, ok ? "selective == full flush" : "FAILED",
      examined, invalidated, retained);
  return ok ? 0 : 1;
}
