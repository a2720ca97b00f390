// Tier-1 coverage for the chaos-drill harness (src/testing/chaos.h): the
// drill invariants the CI job gates on — same-seed byte-identical reports
// and traces, soundness of every answer against the fault-free baseline,
// and full recovery (breakers re-closed, plan cache retained) — plus the
// standard script's shape. The broad multi-seed sweep lives in
// chaos_property_test.cc.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mediator/capability.h"
#include "mediator/fault.h"
#include "oem/parser.h"
#include "testing/chaos.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

TslQuery Parse(const std::string& text, std::string name) {
  auto query = ParseTslQuery(text, std::move(name));
  EXPECT_TRUE(query.ok()) << query.status();
  return *std::move(query);
}

/// The replicated fixture of examples/tslrw_chaos.cpp: source `lib` with
/// two α-equivalent mirrors (failover and hedge targets) plus a
/// single-endpoint source `s2`.
std::vector<SourceDescription> DrillSources() {
  Capability a;
  a.view = Parse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorA");
  Capability b;
  b.view = Parse(
      "<m(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@lib",
      "MirrorB");
  Capability dump;
  dump.view = Parse(
      "<dump(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "Dump2");
  return {SourceDescription{"lib", {a}}, SourceDescription{"lib", {b}},
          SourceDescription{"s2", {dump}}};
}

SourceCatalog DrillCatalog() {
  SourceCatalog catalog;
  auto lib = ParseOemDatabase(R"(
    database lib {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue "VLDB"> <y2 year "1996">
      }>
    })");
  EXPECT_TRUE(lib.ok()) << lib.status();
  catalog.Put(*lib);
  auto s2 = ParseOemDatabase(R"(
    database s2 {
      <b1 publication {
        <u1 title "Warehouses"> <w1 venue "SIGMOD"> <x1 year "1996">
      }>
    })");
  EXPECT_TRUE(s2.ok()) << s2.status();
  catalog.Put(*s2);
  return catalog;
}

std::vector<TslQuery> DrillQueries() {
  return {
      Parse("<f(P) sigmod yes> :- <P publication {<V venue \"SIGMOD\">}>@lib",
            "Sigmod"),
      Parse("<f(P) all2 yes> :- <P publication {<X Y Z>}>@s2", "All2"),
  };
}

ChaosOptions SmallDrill(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.requests_per_phase = 4;
  options.server.threads = 2;
  options.server.queue_capacity = 8;
  return options;
}

TEST(ChaosScriptTest, StandardScriptCoversEveryRegime) {
  const ChaosOptions options = SmallDrill(7);
  const std::vector<ChaosPhase> script =
      StandardChaosScript(DrillSources(), options);
  std::vector<std::string> names;
  for (const ChaosPhase& phase : script) names.push_back(phase.name);
  const std::vector<std::string> expected = {
      "baseline",           "endpoint-flap",    "latency-storm",
      "flaky-network",      "source-outage",    "index-corruption",
      "snapshot-swap-race", "pool-saturation"};
  EXPECT_EQ(names, expected);
  EXPECT_TRUE(script.front().faults.empty());
  EXPECT_EQ(script.back().action, ChaosPhase::Action::kPoolSaturation);
}

TEST(ChaosDrillTest, SameSeedReplaysByteIdentically) {
  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  const std::vector<TslQuery> queries = DrillQueries();
  const ChaosOptions options = SmallDrill(7);
  const std::vector<ChaosPhase> script =
      StandardChaosScript(sources, options);

  auto first = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(second.ok()) << second.status();

  EXPECT_EQ(first->report, second->report);
  EXPECT_EQ(first->traces, second->traces);
  EXPECT_FALSE(first->traces.empty());
}

TEST(ChaosDrillTest, StandardDrillIsSoundAndRecovers) {
  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  const std::vector<TslQuery> queries = DrillQueries();
  const ChaosOptions options = SmallDrill(3);
  const std::vector<ChaosPhase> script =
      StandardChaosScript(sources, options);

  auto drill = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(drill.ok()) << drill.status();
  for (const std::string& violation : drill->violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(drill->sound);
  EXPECT_TRUE(drill->recovered);
  // The report tells the whole story: every phase, the recovery line, and
  // a final verdict the CI log can be grepped for.
  EXPECT_NE(drill->report.find("phase baseline"), std::string::npos)
      << drill->report;
  EXPECT_NE(drill->report.find("phase pool-saturation"), std::string::npos);
  EXPECT_NE(drill->report.find("recovery:"), std::string::npos);
  EXPECT_NE(drill->report.find("breakers all closed"), std::string::npos);
  EXPECT_NE(drill->report.find("plan cache retained"), std::string::npos);
  EXPECT_NE(drill->report.find("verdict: SOUND, RECOVERED"),
            std::string::npos)
      << drill->report;
}

TEST(ChaosDrillTest, PoolSaturationParksAPoolWiderThanItsQueue) {
  // Regression: with fewer queue slots than workers, submitting every
  // worker's request at once could outrun the workers' pops; the queue
  // rejected the excess and the drill waited forever for those workers
  // to park.
  const std::vector<SourceDescription> sources = DrillSources();
  ChaosOptions options = SmallDrill(5);
  options.server.threads = 8;
  options.server.queue_capacity = 2;
  auto drill = RunChaosDrill(sources, DrillCatalog(), DrillQueries(),
                             StandardChaosScript(sources, options), options);
  ASSERT_TRUE(drill.ok()) << drill.status();
  EXPECT_TRUE(drill->sound) << drill->report;
  EXPECT_TRUE(drill->recovered) << drill->report;
  EXPECT_NE(drill->report.find("[pool] 8 worker(s) parked, 2 queued, 3 "
                               "overflow rejection(s)"),
            std::string::npos)
      << drill->report;
}

TEST(ChaosDrillTest, CustomScriptOutagePhaseDegradesThenRecovers) {
  // A hand-written two-phase script: kill the replicated source outright,
  // then hand control back to the harness's fault-free recovery loop. The
  // single-endpoint source keeps answering, so the outage phase must show
  // degraded (not failed) answers, and the drill must still recover.
  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  const std::vector<TslQuery> queries = DrillQueries();
  ChaosOptions options = SmallDrill(11);

  ChaosPhase outage;
  outage.name = "lib-outage";
  FaultSchedule dead;
  dead.steady_state = Fault::Unavailable();
  outage.faults["lib"] = dead;
  const std::vector<ChaosPhase> script = {outage};

  auto drill = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(drill.ok()) << drill.status();
  for (const std::string& violation : drill->violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(drill->sound);
  EXPECT_TRUE(drill->recovered);
  EXPECT_NE(drill->report.find("phase lib-outage"), std::string::npos)
      << drill->report;
  EXPECT_NE(drill->report.find("degraded"), std::string::npos)
      << drill->report;
}

TEST(ChaosDrillTest, UnanswerableFixtureQueryIsASetupError) {
  // The drill's soundness checks compare against a fault-free baseline;
  // a query with no fault-free answer is a broken fixture, not a finding.
  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  std::vector<TslQuery> queries = {
      Parse("<f(P) nosuch yes> :- <P nosuch {<X Y Z>}>@nosrc", "NoSuch")};
  const ChaosOptions options = SmallDrill(1);
  auto drill = RunChaosDrill(sources, catalog, queries,
                             StandardChaosScript(sources, options), options);
  EXPECT_FALSE(drill.ok());
}

}  // namespace
}  // namespace tslrw
