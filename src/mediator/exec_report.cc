#include "mediator/exec_report.h"

#include "common/string_util.h"

namespace tslrw {

std::string_view CompletenessToString(Completeness completeness) {
  switch (completeness) {
    case Completeness::kComplete:
      return "complete";
    case Completeness::kPartial:
      return "partial";
    case Completeness::kDegraded:
      return "degraded";
  }
  return "unknown";
}

void PlanSearchStats::Add(const PlanSearchStats& other) {
  candidates_generated += other.candidates_generated;
  candidates_tested += other.candidates_tested;
  chase_cache_hits += other.chase_cache_hits;
  equiv_cache_hits += other.equiv_cache_hits;
  verify_wall_ticks += other.verify_wall_ticks;
}

std::string PlanSearchStats::ToString() const {
  return StrCat(candidates_generated, " candidate(s), ", candidates_tested,
                " tested, ", chase_cache_hits, " chase / ", equiv_cache_hits,
                " equiv cache hit(s), ", verify_wall_ticks, "us verifying");
}

FetchRecord* ExecutionReport::RecordFor(const std::string& source,
                                        const std::string& view) {
  for (FetchRecord& record : fetches) {
    if (record.source == source && record.view == view) return &record;
  }
  FetchRecord record;
  record.source = source;
  record.view = view;
  fetches.push_back(std::move(record));
  return &fetches.back();
}

std::string ExecutionReport::ToString() const {
  std::string out = StrCat(
      "execution: ", CompletenessToString(completeness), " (", plans_attempted,
      " plan(s) attempted, ", plans_skipped, " skipped",
      failover ? ", failover" : "", replanned ? ", replanned" : "",
      plan_search_truncated ? ", plan search truncated" : "", ")\n");
  if (plan_search.candidates_generated > 0) {
    // Only the deterministic counters: cache hits and wall ticks vary with
    // worker scheduling and would break byte-compare uses of this render.
    out += StrCat("plan search: ", plan_search.candidates_generated,
                  " candidate(s), ", plan_search.candidates_tested,
                  " tested\n");
  }
  for (const FetchRecord& fetch : fetches) {
    out += StrCat("  ", fetch.source, "/", fetch.view, ":");
    for (size_t i = 0; i < fetch.attempts.size(); ++i) {
      const AttemptRecord& attempt = fetch.attempts[i];
      out += StrCat(" attempt ", i + 1, " at t=", attempt.at_ticks, " ",
                    attempt.outcome.ok()
                        ? "OK"
                        : std::string(
                              StatusCodeToString(attempt.outcome.code())));
      if (attempt.backoff_ticks > 0) {
        out += StrCat(" (backoff ", attempt.backoff_ticks, ")");
      }
      if (i + 1 < fetch.attempts.size()) out += ";";
    }
    if (fetch.short_circuited && fetch.attempts.empty()) {
      out += " short-circuited (breaker open)";
    }
    if (!fetch.succeeded) {
      out += " -> dead";
    } else if (fetch.truncated) {
      out += " -> truncated feed";
    }
    if (!fetch.hedged_to.empty()) {
      out += StrCat(" [hedged -> ", fetch.hedged_to, "]");
    }
    out += "\n";
  }
  if (hedges_issued > 0) {
    out += StrCat("hedges: ", hedges_issued, " issued, ", hedge_wins,
                  " won, ", hedge_overlap_ticks, " overlap tick(s)\n");
  }
  if (breaker_short_circuits > 0) {
    out += StrCat("breaker: ", breaker_short_circuits, " short-circuit(s)\n");
  }
  if (deadline_degraded) {
    out += "deadline: budget exhausted, degraded per §7\n";
  }
  if (!unreachable_sources.empty()) {
    out += StrCat("unreachable: ",
                  JoinMapped(unreachable_sources, ", ",
                             [](const std::string& s) { return s; }),
                  "\n");
  }
  out += StrCat("virtual time: ", finished_at_ticks, " tick(s), ",
                backoff_ticks_total, " waiting\n");
  return out;
}

}  // namespace tslrw
