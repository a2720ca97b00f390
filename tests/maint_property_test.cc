// Property sweep for selective plan-cache maintenance (docs/SERVING.md
// "Incremental maintenance"): replay random catalog mutations against a
// serving QueryServer and check, per cached query, that retention was
// *sound* — an entry served from cache after a swap must be byte-identical
// to what a fresh plan search against the new catalog produces. That
// direction is a hard property (any violation is a wrong answer in
// production). The converse — invalidate only entries whose plans really
// change — is best-effort by design; this sweep measures it as the
// over-invalidation ratio and only asserts it stays below 1.0, i.e. the
// decider is doing strictly better than a full flush.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "mediator/mediator.h"
#include "mediator/retry.h"
#include "oem/generator.h"
#include "service/canonical.h"
#include "service/server.h"
#include "testing/random_rules.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

struct ViewState {
  int body_label = 0;
  int alpha = 0;  ///< variable-alphabet revision; bumping it is α-renaming
};

Capability MakeView(size_t id, const ViewState& state) {
  auto var = [&state](const char* base) {
    return state.alpha == 0 ? StrCat(base, "'")
                            : StrCat(base, "a", state.alpha, "'");
  };
  const std::string p = var("P");
  const std::string x = var("X");
  const std::string u = var("U");
  std::string text = StrCat("<v", id, "(", p, ") o", id, " {<w", id, "(", x,
                            ") m ", u, ">}> :- <", p, " rec {<", x, " l",
                            state.body_label, " ", u, ">}>@db");
  auto parsed = ParseTslQuery(text, StrCat("V", id));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  Capability cap;
  cap.view = std::move(parsed).ValueOrDie();
  return cap;
}

std::vector<SourceDescription> Render(const std::map<size_t, ViewState>& live) {
  std::vector<Capability> caps;
  for (const auto& [id, state] : live) caps.push_back(MakeView(id, state));
  return {SourceDescription{"db", std::move(caps)}};
}

Mediator MustMake(const std::vector<SourceDescription>& sources) {
  auto mediator = Mediator::Make(sources);
  EXPECT_TRUE(mediator.ok()) << mediator.status();
  return std::move(mediator).ValueOrDie();
}

/// Byte rendering of one plan set: what "the same plans" means here.
std::string RenderPlans(const MediatorPlanSet& plans) {
  std::string out =
      StrCat("plans: ", plans.size(), plans.truncated ? " (truncated)" : "",
             "\n");
  for (const MediatorPlan& plan : plans.plans) {
    out += StrCat("  ", plan.ToString(), "\n");
  }
  return out;
}

/// An empty plan set and a NotFound answer are the same observable: the
/// server caches the empty set and then fails the request NotFound when
/// executing it, while a direct Mediator::Plan returns the empty set.
constexpr const char* kUnanswerable = "unanswerable\n";

/// The plan set a fresh search against \p sources produces for the cached
/// entry's canonical query.
std::string FreshPlans(const std::vector<SourceDescription>& sources,
                       const TslQuery& canonical) {
  auto plans = MustMake(sources).Plan(canonical);
  if (!plans.ok()) {
    return plans.status().IsNotFound()
               ? kUnanswerable
               : StrCat("status: ", plans.status().ToString());
  }
  if (plans->plans.empty()) return kUnanswerable;
  return RenderPlans(*plans);
}

TEST(MaintPropertyTest, RetainedEntriesAlwaysMatchAFreshSearch) {
  constexpr uint64_t kSeeds = 12;
  constexpr size_t kSteps = 8;
  size_t retained_total = 0;
  size_t invalidated_total = 0;
  size_t over_invalidated = 0;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    GeneratorOptions gen;
    gen.seed = seed * 0x9E3779B97F4A7C15ULL + 11;
    gen.num_roots = 8;
    gen.max_depth = 2;
    gen.num_labels = 4;
    gen.num_values = 4;
    gen.root_label = "rec";
    SourceCatalog catalog;
    catalog.Put(GenerateOemDatabase("db", gen));

    testing::RandomRules rules(seed ^ 0xABCDu, 4, 4, "rec");
    std::vector<TslQuery> queries;
    for (size_t q = 0; q < 5; ++q) {
      queries.push_back(rules.Query(StrCat("Q", q), "db"));
    }

    std::map<size_t, ViewState> live;
    size_t next_id = 0;
    for (size_t v = 0; v < 5; ++v) {
      live[next_id++] = ViewState{static_cast<int>(v % 4), 0};
    }

    ServerOptions options;
    options.threads = 1;
    QueryServer server(MustMake(Render(live)), std::move(catalog), options);

    // Warm every query and remember the served plan bytes. Some random
    // queries admit no capability-conformant plan: those answers fail, the
    // failure is never cached, and the retention property is vacuous for
    // them — but they stay in the pool, because a mutation can make them
    // answerable (and retaining a stale failure would be false retention).
    std::vector<std::string> cached_plans(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto response = server.Answer(queries[q]);
      if (!response.ok()) {
        cached_plans[q] = response.status().IsNotFound()
                              ? kUnanswerable
                              : StrCat("status: ",
                                       response.status().ToString());
        continue;
      }
      ASSERT_NE(response->plans, nullptr);
      cached_plans[q] = RenderPlans(*response->plans);
    }

    DeterministicRng rng(seed * 0x2545F4914F6CDD1DULL + 3);
    for (size_t step = 0; step < kSteps; ++step) {
      // Mutate one view: edit its body, α-rename it, add, or remove.
      const uint64_t kind = rng.NextUint64() % 4;
      if (kind == 0 || live.empty()) {
        live[next_id++] =
            ViewState{static_cast<int>(rng.NextUint64() % 4), 0};
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.NextUint64() % live.size()));
        if (kind == 1) {
          it->second.body_label =
              (it->second.body_label + 1 + static_cast<int>(
                                               rng.NextUint64() % 3)) %
              4;
        } else if (kind == 2) {
          it->second.alpha++;  // α-renaming: plans must not change
        } else if (live.size() > 2) {
          live.erase(it);
        } else {
          it->second.body_label = (it->second.body_label + 1) % 4;
        }
      }

      const std::vector<SourceDescription> sources = Render(live);
      server.ReplaceMediator(MustMake(sources));

      for (size_t q = 0; q < queries.size(); ++q) {
        auto response = server.Answer(queries[q]);
        const std::string fresh = FreshPlans(
            sources, MakePlanCacheKey(queries[q]).canonical);
        if (!response.ok()) {
          // The request failed; a fresh search must come up equally empty
          // (a stale-but-nonempty cached set would have produced an
          // answer instead, which the branch below catches).
          const std::string served =
              response.status().IsNotFound()
                  ? kUnanswerable
                  : StrCat("status: ", response.status().ToString());
          ASSERT_EQ(served, fresh)
              << "divergent failure at seed " << seed << " step " << step
              << " query " << queries[q].name;
          cached_plans[q] = served;
          continue;
        }
        ASSERT_NE(response->plans, nullptr);
        const std::string served = RenderPlans(*response->plans);

        if (response->plan_cache_hit) {
          // The hard direction: a retained entry must be exactly what a
          // fresh search would have produced. Any mismatch is false
          // retention — a wrong answer served from a stale cache.
          ++retained_total;
          ASSERT_EQ(served, fresh)
              << "false retention at seed " << seed << " step " << step
              << " query " << queries[q].name << "\n--- served (cached)\n"
              << served << "--- fresh\n"
              << fresh << "--- cached before the swap\n"
              << cached_plans[q];
        } else {
          // The served plans were just computed, so they trivially equal
          // `fresh`; what the miss tells us is that the decider
          // invalidated. If the recomputation produced the same bytes the
          // entry had before the swap, the invalidation was unnecessary.
          ++invalidated_total;
          ASSERT_EQ(served, fresh) << "non-deterministic plan search at seed "
                                   << seed << " step " << step;
          if (served == cached_plans[q]) ++over_invalidated;
        }
        cached_plans[q] = served;
      }
    }
  }

  ASSERT_GT(retained_total, 0u) << "the sweep never exercised retention";
  ASSERT_GT(invalidated_total, 0u)
      << "the sweep never exercised invalidation";
  const double ratio = static_cast<double>(over_invalidated) /
                       static_cast<double>(invalidated_total);
  // Over-invalidation costs a recomputation, never correctness; report it
  // and require the decider to beat a full flush (which would sit at 1.0).
  RecordProperty("retained", static_cast<int>(retained_total));
  RecordProperty("invalidated", static_cast<int>(invalidated_total));
  RecordProperty("over_invalidated", static_cast<int>(over_invalidated));
  std::printf(
      "maint property: %zu retained (all matched fresh), %zu invalidated, "
      "%zu over-invalidated (ratio %.3f)\n",
      retained_total, invalidated_total, over_invalidated, ratio);
  EXPECT_LT(ratio, 1.0);
}

}  // namespace
}  // namespace tslrw
