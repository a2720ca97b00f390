// The chaos-drill runner behind the CI resilience job: replays the
// standard seeded fault script (endpoint flap, latency storm, flaky
// network, source outage, snapshot swap race, pool saturation)
// against a live QueryServer over a replicated bibliographic fixture,
// runs every drill TWICE, and fails unless
//
//   - the two runs' reports and traces are byte-identical (determinism),
//   - every drilled answer was sound (roots ⊆ the fault-free baseline,
//     complete answers byte-identical to it), and
//   - the server recovered: breakers re-closed, answers back to the
//     baseline, plan cache retained.
//
//   tslrw_chaos [seeds a,b,c] [requests N] [deadline N] [threads N]
//               [queue N] [traces]
//
// Exit code 0 = every seed deterministic, sound, and recovered.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "oem/parser.h"
#include "testing/chaos.h"
#include "tsl/parser.h"

namespace {

void Fail(const tslrw::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(tslrw::Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

tslrw::TslQuery MustParse(const std::string& text, std::string name) {
  return Must(tslrw::ParseTslQuery(text, std::move(name)));
}

/// A replicated source `lib` (two α-equivalent mirror endpoints — the
/// drill's flap and storm targets, so failover and hedging have somewhere
/// to go) plus a single-endpoint source `s2`.
std::vector<tslrw::SourceDescription> DrillSources() {
  tslrw::Capability a;
  a.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorA");
  tslrw::Capability b;
  b.view = MustParse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorB");
  tslrw::Capability dump;
  dump.view = MustParse(
      "<dump(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "Dump2");
  return {tslrw::SourceDescription{"lib", {a}},
          tslrw::SourceDescription{"lib", {b}},
          tslrw::SourceDescription{"s2", {dump}}};
}

tslrw::SourceCatalog DrillCatalog() {
  tslrw::SourceCatalog catalog;
  catalog.Put(Must(tslrw::ParseOemDatabase(R"(
    database lib {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue "VLDB"> <y2 year "1996">
      }>
      <a3 publication {
        <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1993">
      }>
    })")));
  catalog.Put(Must(tslrw::ParseOemDatabase(R"(
    database s2 {
      <b1 publication {
        <u1 title "Warehouses"> <w1 venue "SIGMOD"> <x1 year "1996">
      }>
    })")));
  return catalog;
}

std::vector<tslrw::TslQuery> DrillQueries() {
  return {
      MustParse("<f(P) sigmod yes> :- "
                "<P publication {<V venue \"SIGMOD\">}>@lib",
                "Sigmod"),
      MustParse("<f(P) year97 yes> :- "
                "<P publication {<Y year \"1997\">}>@lib",
                "Year97"),
      MustParse("<f(P) all2 yes> :- <P publication {<X Y Z>}>@s2", "All2"),
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tslrw;

  std::vector<uint64_t> seeds = {1, 7, 23};
  size_t requests = 6;
  uint64_t deadline = 256;
  size_t threads = 4;
  size_t queue = 8;
  bool print_traces = false;
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
    } else if (std::strcmp(argv[i], "requests") == 0) {
      requests = std::strtoull(value("requests"), nullptr, 10);
    } else if (std::strcmp(argv[i], "deadline") == 0) {
      deadline = std::strtoull(value("deadline"), nullptr, 10);
    } else if (std::strcmp(argv[i], "threads") == 0) {
      threads = std::strtoull(value("threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "queue") == 0) {
      queue = std::strtoull(value("queue"), nullptr, 10);
    } else if (std::strcmp(argv[i], "traces") == 0) {
      print_traces = true;
    } else {
      std::fprintf(stderr,
                   "usage: tslrw_chaos [seeds a,b,c] [requests N] "
                   "[deadline N] [threads N] [queue N] [traces]\n");
      return 2;
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "no seeds given\n");
    return 2;
  }

  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  const std::vector<TslQuery> queries = DrillQueries();

  bool ok = true;
  for (uint64_t seed : seeds) {
    ChaosOptions options;
    options.seed = seed;
    options.requests_per_phase = requests;
    options.request_deadline_ticks = deadline;
    options.server.threads = threads;
    options.server.queue_capacity = queue;
    const std::vector<ChaosPhase> script =
        StandardChaosScript(sources, options);

    ChaosDrillResult first =
        Must(RunChaosDrill(sources, catalog, queries, script, options));
    ChaosDrillResult second =
        Must(RunChaosDrill(sources, catalog, queries, script, options));

    std::fputs(first.report.c_str(), stdout);
    if (print_traces) std::fputs(first.traces.c_str(), stdout);
    if (first.report != second.report || first.traces != second.traces) {
      std::fprintf(stderr,
                   "seed %llu: two runs of the same drill diverged — the "
                   "report/traces are not deterministic\n",
                   static_cast<unsigned long long>(seed));
      ok = false;
    }
    for (const std::string& violation : first.violations) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), violation.c_str());
    }
    ok = ok && first.sound && first.recovered;
    std::printf("\n");
  }
  std::printf("chaos: %zu seed(s) drilled twice each: %s\n", seeds.size(),
              ok ? "deterministic, sound, recovered" : "FAILED");
  return ok ? 0 : 1;
}
