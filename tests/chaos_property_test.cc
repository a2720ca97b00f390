// Randomized property sweep for the chaos-drill harness, extending the
// PR 2 fault-tolerance properties from static fault schedules to full
// multi-phase chaos scripts: across many seeds — each seed drawing its
// own flap/storm targets, fault magnitudes, and request seeds — every
// drilled answer stays sound (roots ⊆ the fault-free baseline, §7) and
// every drill recovers.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mediator/capability.h"
#include "oem/parser.h"
#include "testing/chaos.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

constexpr uint64_t kSeeds = 25;

TslQuery Parse(const std::string& text, std::string name) {
  auto query = ParseTslQuery(text, std::move(name));
  EXPECT_TRUE(query.ok()) << query.status();
  return *std::move(query);
}

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
      <a3 publication {
        <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1993">
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
      Parse("<f(P) year97 yes> :- <P publication {<Y year \"1997\">}>@lib",
            "Year97"),
      Parse("<f(P) all2 yes> :- <P publication {<X Y Z>}>@s2", "All2"),
  };
}

ChaosOptions DrillOptions(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.requests_per_phase = 4;
  options.server.threads = 2;
  options.server.queue_capacity = 8;
  return options;
}

/// Every seed: every answer is sound and the drill recovers.
TEST(ChaosPropertyTest, DrillsAreSoundAndRecovered) {
  const std::vector<SourceDescription> sources = DrillSources();
  const SourceCatalog catalog = DrillCatalog();
  const std::vector<TslQuery> queries = DrillQueries();

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ChaosOptions options = DrillOptions(seed);
    auto drill = RunChaosDrill(sources, catalog, queries,
                               StandardChaosScript(sources, options), options);
    ASSERT_TRUE(drill.ok()) << "seed " << seed << ": " << drill.status();
    for (const std::string& violation : drill->violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
    EXPECT_TRUE(drill->sound) << "seed " << seed;
    EXPECT_TRUE(drill->recovered) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tslrw
