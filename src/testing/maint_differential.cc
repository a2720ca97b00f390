#include "testing/maint_differential.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "mediator/retry.h"
#include "obs/trace.h"
#include "oem/generator.h"
#include "testing/random_rules.h"
#include "tsl/parser.h"

namespace tslrw {

namespace {

TslQuery MustParseView(const std::string& text, const std::string& name) {
  auto parsed = ParseTslQuery(text, name);
  if (!parsed.ok()) {
    fprintf(stderr, "maint drill produced an unparsable rule: %s\n  %s\n",
            text.c_str(), parsed.status().ToString().c_str());
    abort();
  }
  return std::move(parsed).ValueOrDie();
}

/// One drilled view's mutable identity: which rule shape it has, which
/// body label(s) it matches, and which variable alphabet it is spelled in
/// (bumping `alpha` is an α-renaming — semantics unchanged, so the diff
/// must classify the swap as a no-op).
struct ViewState {
  size_t kind = 0;  ///< 0 = constant-label, 1 = deep, 2 = wildcard-label
  int body_label = 0;
  int alpha = 0;
};

Capability MakeDrillView(size_t id, const ViewState& state) {
  auto var = [&state](const char* base) {
    return state.alpha == 0 ? StrCat(base, "'")
                            : StrCat(base, "a", state.alpha, "'");
  };
  const std::string p = var("P");
  const std::string x = var("X");
  const std::string u = var("U");
  std::string text;
  if (state.kind == 1) {
    const std::string w = var("W");
    text = StrCat("<v", id, "(", p, ") o", id, " {<w", id, "(", x,
                  ") mid {<u", id, "(", w, ") leaf ", u, ">}>}> :- <", p,
                  " rec {<", x, " l", state.body_label, " {<", w, " l",
                  (state.body_label + 1) % 4, " ", u, ">}>}>@db");
  } else if (state.kind == 2) {
    const std::string label_var = var("LL");
    text = StrCat("<v", id, "(", p, ") o", id, " {<w", id, "(", x, ") m ",
                  u, ">}> :- <", p, " rec {<", x, " ", label_var, " ", u,
                  ">}>@db");
  } else {
    text = StrCat("<v", id, "(", p, ") o", id, " {<w", id, "(", x, ") m ",
                  u, ">}> :- <", p, " rec {<", x, " l", state.body_label,
                  " ", u, ">}>@db");
  }
  Capability cap;
  cap.view = MustParseView(text, StrCat("V", id));
  return cap;
}

/// One scripted step: the full post-mutation catalog (capability list +
/// whether the DTD is attached) and the request burst that follows it.
struct DrillStep {
  std::string description;
  std::vector<Capability> capabilities;
  bool with_constraints = false;
  /// (query index, request seed), in submission order.
  std::vector<std::pair<size_t, uint64_t>> requests;
};

/// Everything one arm observes for one request, rendered to bytes. The
/// two arms' vectors must match element-wise.
std::string RenderObservation(const TslQuery& query, uint64_t seed,
                              const Result<ServeResponse>& response,
                              const std::string& normalized_trace) {
  std::string out = StrCat("query=", query.name, " seed=", seed, "\n");
  if (!response.ok()) {
    return StrCat(out, "status: ", response.status().ToString(), "\n");
  }
  const ServeResponse& r = *response;
  out += StrCat("completeness: ",
                CompletenessToString(r.answer.completeness), "\n");
  out += r.answer.result.ToString();
  out += r.answer.report.ToString();
  if (r.plans != nullptr) {
    out += StrCat("plans: ", r.plans->size(),
                  r.plans->truncated ? " (truncated)" : "", "\n");
    for (const MediatorPlan& plan : r.plans->plans) {
      out += StrCat("  ", plan.ToString(), "\n");
    }
  }
  out += normalized_trace;
  return out;
}

/// The per-arm replay state and its observation log.
struct ArmResult {
  std::vector<std::string> observations;
  std::vector<MaintenanceReport> reports;
  uint64_t cache_hits = 0;
};

}  // namespace

std::string NormalizeMaintTrace(const std::string& trace) {
  std::string out;
  size_t pos = 0;
  int skip_deeper_than = -1;
  while (pos < trace.size()) {
    size_t end = trace.find('\n', pos);
    if (end == std::string::npos) end = trace.size();
    std::string line = trace.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("trace (", 0) == 0) {
      out += "trace\n";
      continue;
    }
    size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    if (skip_deeper_than >= 0) {
      if (static_cast<int>(indent) > skip_deeper_than) continue;
      skip_deeper_than = -1;
    }
    // The plan-search subtree exists only on cold misses; drop it (and
    // every nested rewrite span) wherever it appears.
    if (line.find("- mediator.plan_search") != std::string::npos) {
      skip_deeper_than = static_cast<int>(indent);
      continue;
    }
    // Cache-hit attribution is the one annotation the arms disagree on by
    // design.
    for (const char* marker : {" plan_cache=hit", " plan_cache=miss"}) {
      size_t at = line.find(marker);
      if (at != std::string::npos) line.erase(at, strlen(marker));
    }
    out += line;
    out += '\n';
  }
  return out;
}

Result<MaintDrillResult> RunMaintDifferentialDrill(
    const MaintDrillOptions& options) {
  const size_t parallelism = std::max<size_t>(options.parallelism, 1);
  const size_t num_queries = std::max<size_t>(options.num_queries, 1);
  const size_t base_views = std::max<size_t>(options.base_views, 2);

  // --- Fixtures, all derived from the drill seed. ---
  GeneratorOptions gen;
  gen.seed = options.seed * 0x9E3779B97F4A7C15ULL + 11;
  gen.num_roots = 10;
  gen.max_depth = 2;
  gen.num_labels = 4;
  gen.num_values = 4;
  gen.root_label = "rec";
  SourceCatalog catalog;
  catalog.Put(GenerateOemDatabase("db", gen));

  testing::RandomRules rules(options.seed ^ 0x5155u, 4, 4, "rec");
  std::vector<TslQuery> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(rules.Query(StrCat("Q", q), "db"));
  }

  // A DTD that permits only l0..l2 under `rec`: toggling it on makes the
  // chase fire structural conflicts on l3 conditions (constraint-change
  // swaps must full-flush; fired constraints land in footprints).
  auto dtd = Dtd::Parse(
      "<!ELEMENT rec (l0*, l1*, l2*)> <!ELEMENT l0 CDATA>");
  if (!dtd.ok()) return dtd.status();
  const StructuralConstraints constraints(std::move(dtd).ValueOrDie());

  // --- The mutation script, generated once and replayed by both arms. ---
  std::map<size_t, ViewState> live;
  size_t next_id = 0;
  for (size_t v = 0; v < base_views; ++v) {
    ViewState state;
    state.kind = v % 3;
    state.body_label = static_cast<int>(v % 4);
    live[next_id++] = state;
  }
  auto render_catalog = [&live]() {
    std::vector<Capability> caps;
    for (const auto& [id, state] : live) {
      caps.push_back(MakeDrillView(id, state));
    }
    return caps;
  };
  const std::vector<Capability> initial = render_catalog();

  DeterministicRng rng(options.seed * 0x2545F4914F6CDD1DULL + 3);
  bool constraints_on = false;
  std::vector<DrillStep> script;
  for (size_t s = 0; s < options.steps; ++s) {
    DrillStep step;
    const uint64_t kind = rng.NextUint64() % 8;
    auto pick_live = [&]() {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextUint64() % live.size()));
      return it;
    };
    if (kind == 0) {
      step.description = "identity swap";
    } else if (kind == 1) {
      auto it = pick_live();
      it->second.alpha++;
      step.description = StrCat("alpha-rename V", it->first);
    } else if (kind <= 3) {
      auto it = pick_live();
      // A wildcard-label view's body ignores body_label; demote it to the
      // constant-label shape so every "edit body" really edits the rule.
      if (it->second.kind == 2) it->second.kind = 0;
      it->second.body_label = (it->second.body_label + 1) % 4;
      step.description = StrCat("edit body of V", it->first);
    } else if (kind == 4) {
      ViewState state;
      state.kind = rng.NextUint64() % 3;
      state.body_label = static_cast<int>(rng.NextUint64() % 4);
      step.description = StrCat("add V", next_id);
      live[next_id++] = state;
    } else if (kind == 5 && live.size() > 2) {
      auto it = pick_live();
      step.description = StrCat("remove V", it->first);
      live.erase(it);
    } else if (kind == 6) {
      constraints_on = !constraints_on;
      step.description =
          constraints_on ? "attach constraints" : "detach constraints";
    } else {
      auto it = pick_live();
      it->second.alpha++;
      step.description = StrCat("alpha-rename V", it->first);
    }
    step.capabilities = render_catalog();
    step.with_constraints = constraints_on;
    for (size_t r = 0; r < options.requests_per_step; ++r) {
      step.requests.emplace_back(rng.NextUint64() % queries.size(),
                                 rng.NextUint64());
    }
    script.push_back(std::move(step));
  }

  // --- Replay one arm. ---
  auto run_arm = [&](MaintenanceMode mode) -> Result<ArmResult> {
    ServerOptions server_options = options.server;
    server_options.maintenance = mode;
    server_options.threads = std::max(server_options.threads, parallelism);
    Result<Mediator> made =
        Mediator::Make({SourceDescription{"db", initial}});
    if (!made.ok()) return made.status();
    QueryServer server(std::move(made).ValueOrDie(), catalog, server_options);

    ArmResult arm;
    for (const DrillStep& step : script) {
      Result<Mediator> next = Mediator::Make(
          {SourceDescription{"db", step.capabilities}},
          step.with_constraints ? &constraints : nullptr);
      if (next.ok()) {
        arm.reports.push_back(
            server.ReplaceMediator(std::move(next).ValueOrDie()));
      } else {
        // A rejected catalog is skipped — deterministically, in both arms
        // — and recorded so the arms must agree on the rejection too.
        arm.reports.push_back({});
        arm.observations.push_back(
            StrCat("swap rejected: ", next.status().ToString()));
      }

      if (parallelism == 1) {
        for (const auto& [query_index, seed] : step.requests) {
          ServeOptions serve;
          serve.seed = seed;
          Tracer tracer(nullptr);
          serve.tracer = &tracer;
          Result<ServeResponse> response =
              server.Answer(queries[query_index], serve);
          arm.observations.push_back(
              RenderObservation(queries[query_index], seed, response,
                                NormalizeMaintTrace(tracer.ToText())));
        }
      } else {
        // Concurrent burst: per-request tracers at stable addresses, and
        // observations recorded in submission order, so scheduling cannot
        // reorder the comparison.
        std::vector<std::unique_ptr<Tracer>> tracers;
        std::vector<std::future<Result<ServeResponse>>> futures;
        for (const auto& [query_index, seed] : step.requests) {
          ServeOptions serve;
          serve.seed = seed;
          tracers.push_back(std::make_unique<Tracer>(nullptr));
          serve.tracer = tracers.back().get();
          auto submitted =
              server.Submit(queries[query_index], std::move(serve));
          if (!submitted.ok()) {
            return Status::Internal(
                StrCat("maint drill overflowed the server queue: ",
                       submitted.status().ToString()));
          }
          futures.push_back(std::move(submitted).ValueOrDie());
        }
        for (size_t r = 0; r < futures.size(); ++r) {
          const auto& [query_index, seed] = step.requests[r];
          Result<ServeResponse> response = futures[r].get();
          arm.observations.push_back(RenderObservation(
              queries[query_index], seed, response,
              NormalizeMaintTrace(tracers[r]->ToText())));
        }
      }
    }
    arm.cache_hits = server.stats().plan_cache.hits;
    server.Shutdown();
    return arm;
  };

  Result<ArmResult> selective = run_arm(MaintenanceMode::kSelective);
  if (!selective.ok()) return selective.status();
  Result<ArmResult> flush = run_arm(MaintenanceMode::kFullFlush);
  if (!flush.ok()) return flush.status();

  // --- Compare. ---
  MaintDrillResult result;
  result.selective_hits = selective->cache_hits;
  result.flush_hits = flush->cache_hits;
  for (size_t s = 0; s < script.size(); ++s) {
    const MaintenanceReport& report = selective->reports[s];
    result.entries_examined += report.entries_examined;
    result.entries_invalidated += report.entries_invalidated;
    result.entries_retained += report.entries_retained;
    result.report += StrCat("step ", s, ": ", script[s].description,
                            " -> ", report.ToString(), "\n");
  }
  if (selective->observations.size() != flush->observations.size()) {
    result.identical = false;
    result.divergences.push_back(
        StrCat("observation counts differ: selective ",
               selective->observations.size(), " vs full-flush ",
               flush->observations.size()));
    return result;
  }
  for (size_t i = 0; i < selective->observations.size(); ++i) {
    const std::string& a = selective->observations[i];
    const std::string& b = flush->observations[i];
    if (a == b) continue;
    result.identical = false;
    // Locate the first differing line for the evidence record.
    size_t at = 0;
    while (at < std::min(a.size(), b.size()) && a[at] == b[at]) ++at;
    size_t line_start = a.rfind('\n', at);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    result.divergences.push_back(StrCat(
        "observation ", i, " diverges at byte ", at, ":\n  selective: ",
        a.substr(line_start, 160), "\n  full-flush: ",
        b.substr(std::min(line_start, b.size()), 160)));
  }
  return result;
}

}  // namespace tslrw
