#include "rewrite/rewriter.h"

#include <chrono>

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/candidate.h"
#include "rewrite/parallel.h"
#include "rewrite/view_index.h"
#include "tsl/normal_form.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedUs(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
}

}  // namespace

Result<RewriteResult> RewriteQuery(const TslQuery& query,
                                   const std::vector<TslQuery>& views,
                                   const RewriteOptions& options) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  ScopedSpan rewrite_span(options.tracer, "rewrite");
  rewrite_span.Annotate("views", static_cast<uint64_t>(views.size()));
  CountIf(options.metrics, "rewrite.queries");
  RewriteResult result;
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  // The constraints describe the source data; candidate bodies contain
  // conditions over the views, whose answer objects may reuse source label
  // spellings (V1's head label is `p`) — exempt them. The chase reads the
  // exemptions only when there are constraints.
  if (options.constraints != nullptr) {
    for (const TslQuery& view : views) {
      chase_options.constraint_exempt_sources.insert(view.name);
    }
  }
  // The fired-constraints sink is wired only while chasing the inputs, on
  // this thread: candidate chases run on worker threads under parallelism,
  // and excluding them everywhere keeps the result byte-identical across
  // parallelism levels (and the shared set race-free).
  chase_options.fired_constraints = &result.fired_constraints;
  const auto inputs_start = SteadyClock::now();
  ScopedSpan chase_span(options.tracer, "rewrite.chase_inputs");
  const bool indexed =
      options.view_index != nullptr && options.view_index->CoversViews(views);
  ViewProbeOutcome probe;
  TSLRW_ASSIGN_OR_RETURN(
      ChasedInputs inputs,
      ChaseInputs(query, views, chase_options,
                  indexed ? options.view_index : nullptr, &probe));
  if (indexed) {
    CountIf(options.metrics, "catalog.index_probes");
    if (options.metrics != nullptr) {
      options.metrics->GetCounter("catalog.index_views_admitted")
          ->Increment(probe.admitted);
      options.metrics->GetCounter("catalog.index_views_skipped")
          ->Increment(probe.skipped);
    }
    chase_span.Annotate("index_probe", "hit");
    chase_span.Annotate("index_skipped", static_cast<uint64_t>(probe.skipped));
  } else if (options.view_index != nullptr) {
    CountIf(options.metrics, "catalog.index_misses");
    chase_span.Annotate("index_probe", "miss");
  }
  chase_span.Annotate("live_views", static_cast<uint64_t>(inputs.views.size()));
  chase_span.EndNow();
  chase_options.fired_constraints = nullptr;
  ObserveIf(options.metrics, "rewrite.phase.inputs_us",
            ElapsedUs(inputs_start));
  if (inputs.query_unsatisfiable) {
    rewrite_span.Annotate("unsatisfiable", "true");
    CountIf(options.metrics, "rewrite.unsatisfiable_queries");
    result.query_unsatisfiable = true;
    return result;
  }
  const TslQuery& q = inputs.query;
  result.chased_query = q;

  // Step 1A: mappings from each view body into the query body, turned into
  // candidate atoms.
  const auto mappings_start = SteadyClock::now();
  ScopedSpan mappings_span(options.tracer, "rewrite.mappings");
  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, inputs.views, &result.mappings_found));
  for (const CandidateAtom& atom : atoms) {
    if (atom.is_view) result.views_touched.insert(atom.condition.source);
  }
  mappings_span.Annotate("mappings",
                         static_cast<uint64_t>(result.mappings_found));
  mappings_span.Annotate("candidate_atoms",
                         static_cast<uint64_t>(atoms.size()));
  mappings_span.EndNow();
  ObserveIf(options.metrics, "rewrite.phase.mappings_us",
            ElapsedUs(mappings_start));

  // Steps 1B-1C-2: assemble, chase, compose, and verify candidates. The
  // query side of every equivalence test is fixed: decompose it once.
  const auto tester_start = SteadyClock::now();
  TSLRW_ASSIGN_OR_RETURN(
      EquivalenceTester tester,
      EquivalenceTester::Make(TslRuleSet::Single(q), chase_options));
  ObserveIf(options.metrics, "rewrite.phase.tester_us",
            ElapsedUs(tester_start));
  CandidateEnumerator enumerator(std::move(atoms), q.body.size(), options);
  const size_t workers = ResolveParallelism(options.parallelism);
  ScopedSpan search_span(options.tracer, "rewrite.search");
  search_span.Annotate("workers", static_cast<uint64_t>(workers));
  const auto verify_start = SteadyClock::now();
  bool complete = true;
  uint64_t step_us = 0;
  const Status failure = VerifyCandidates(
      q, inputs.views, chase_options, tester, CandidateTest::kEquivalent,
      enumerator, options, workers, &result, &complete, &step_us);
  result.verify_wall_ticks = ElapsedUs(verify_start);
  if (!failure.ok()) {
    CountIf(options.metrics, "rewrite.errors");
    return failure;
  }
  result.truncated = !complete;
  // Deterministic facts go on the span; scheduling-dependent diagnostics
  // (memo hits, batches, wall time) go to metrics only, which keeps the
  // trace byte-identical at any parallelism (docs/OBSERVABILITY.md).
  search_span.Annotate("candidates_generated",
                       static_cast<uint64_t>(result.candidates_generated));
  search_span.Annotate("candidates_tested",
                       static_cast<uint64_t>(result.candidates_tested));
  search_span.Annotate("rewritings",
                       static_cast<uint64_t>(result.rewritings.size()));
  search_span.Annotate("truncated", result.truncated ? "true" : "false");
  search_span.EndNow();
  if (options.metrics != nullptr) {
    MetricRegistry& m = *options.metrics;
    m.GetCounter("rewrite.mappings_found")->Increment(result.mappings_found);
    m.GetCounter("rewrite.candidates_generated")
        ->Increment(result.candidates_generated);
    m.GetCounter("rewrite.candidates_tested")
        ->Increment(result.candidates_tested);
    m.GetCounter("rewrite.rewritings_found")
        ->Increment(result.rewritings.size());
    m.GetCounter("rewrite.chase_cache_hits")
        ->Increment(result.chase_cache_hits);
    m.GetCounter("rewrite.equiv_cache_hits")
        ->Increment(result.equiv_cache_hits);
    m.GetCounter("rewrite.batches_dispatched")
        ->Increment(result.batches_dispatched);
    if (result.truncated) m.GetCounter("rewrite.truncated")->Increment();
    m.GetHistogram("rewrite.verify_us")->Observe(result.verify_wall_ticks);
    // Workers' step timers overlap on a pool; the remainder is exact
    // inline and clamped at zero otherwise.
    m.GetHistogram("rewrite.phase.search_overhead_us")
        ->Observe(result.verify_wall_ticks > step_us
                      ? result.verify_wall_ticks - step_us
                      : 0);
  }
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("candidate search stopped after ", result.candidates_generated,
               " candidate(s) (max_candidates=", options.max_candidates,
               options.should_stop ? ", or the budget hook fired" : "",
               "); rewritings may have been missed"));
  }
  return result;
}

Result<RewriteResult> RewriteSinglePath(const TslQuery& query,
                                        const TslQuery& view,
                                        const RewriteOptions& options) {
  TslQuery normal = ToNormalForm(query);
  if (normal.body.size() != 1) {
    return Status::InvalidArgument(
        StrCat("RewriteSinglePath needs a single path condition; got ",
               normal.body.size()));
  }
  RewriteOptions single = options;
  single.require_total = true;  // the one condition must become the view
  return RewriteQuery(query, {view}, single);
}

}  // namespace tslrw
