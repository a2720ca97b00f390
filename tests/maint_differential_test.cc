#include "testing/maint_differential.h"

#include <string>

#include <gtest/gtest.h>

namespace tslrw {
namespace {

/// Runs one drill and asserts byte-identity, printing every divergence.
void ExpectIdentical(const MaintDrillOptions& options) {
  auto result = RunMaintDifferentialDrill(options);
  ASSERT_TRUE(result.ok()) << result.status();
  std::string evidence;
  for (const std::string& d : result->divergences) {
    evidence += d;
    evidence += "\n";
  }
  EXPECT_TRUE(result->identical) << evidence << "\n--- selective log\n"
                                 << result->report;
}

TEST(MaintDifferentialTest, SelectiveMatchesFullFlushSerially) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    MaintDrillOptions options;
    options.seed = seed;
    ExpectIdentical(options);
  }
}

TEST(MaintDifferentialTest, SelectiveMatchesFullFlushUnderParallelism) {
  MaintDrillOptions options;
  options.seed = 7;
  options.parallelism = 8;
  ExpectIdentical(options);
}

TEST(MaintDifferentialTest, SelectiveArmActuallyRetainsEntries) {
  // The drill is only a meaningful oracle if the selective arm keeps a
  // real fraction of the cache across mutations — otherwise it degenerates
  // into flush-vs-flush.
  MaintDrillOptions options;
  options.seed = 1;
  auto result = RunMaintDifferentialDrill(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->entries_retained, 0u) << result->report;
  EXPECT_GT(result->entries_examined, result->entries_invalidated)
      << result->report;
  // Retention converts flush-arm cold misses into warm hits.
  EXPECT_GT(result->selective_hits, result->flush_hits) << result->report;
}

TEST(MaintDifferentialTest, DrillIsDeterministic) {
  MaintDrillOptions options;
  options.seed = 7;
  auto first = RunMaintDifferentialDrill(options);
  auto second = RunMaintDifferentialDrill(options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->report, second->report);
  EXPECT_EQ(first->entries_examined, second->entries_examined);
  EXPECT_EQ(first->entries_invalidated, second->entries_invalidated);
  EXPECT_EQ(first->selective_hits, second->selective_hits);
  EXPECT_EQ(first->flush_hits, second->flush_hits);
}

TEST(NormalizeMaintTraceTest, DropsPlanSearchSubtreeAndHitMissAttribution) {
  const std::string cold =
      "trace (5 spans)\n"
      "- server.request [0,9) ok plan_cache=miss\n"
      "  - mediator.plan_search [0,0) ok\n"
      "    - rewrite.chase [0,0) ok\n"
      "  - mediator.execute [0,9) ok\n"
      "    - fetch s0 [1,4) ok\n";
  const std::string warm =
      "trace (3 spans)\n"
      "- server.request [0,9) ok plan_cache=hit\n"
      "  - mediator.execute [0,9) ok\n"
      "    - fetch s0 [1,4) ok\n";
  EXPECT_EQ(NormalizeMaintTrace(cold), NormalizeMaintTrace(warm));
  // The execution spans themselves must survive normalization.
  EXPECT_NE(NormalizeMaintTrace(cold).find("mediator.execute"),
            std::string::npos);
  EXPECT_NE(NormalizeMaintTrace(cold).find("fetch s0"), std::string::npos);
  EXPECT_EQ(NormalizeMaintTrace(cold).find("plan_search"), std::string::npos);
  // Divergence in real execution structure still shows through.
  const std::string other =
      "trace (3 spans)\n"
      "- server.request [0,9) ok plan_cache=hit\n"
      "  - mediator.execute [0,9) ok\n"
      "    - fetch s1 [1,4) ok\n";
  EXPECT_NE(NormalizeMaintTrace(cold), NormalizeMaintTrace(other));
}

}  // namespace
}  // namespace tslrw
