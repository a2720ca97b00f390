#include "testing/reference_rewriter.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/chase.h"
#include "rewrite/compose.h"
#include "tsl/validate.h"

namespace tslrw {
namespace testing {

namespace {

/// Rejects regex steps, then chases the query and every view. Unsatisfiable
/// views are dropped (always empty); an unsatisfiable query is flagged on
/// \p result and leaves \p chased_views empty.
Status ChaseInputs(const TslQuery& query, const std::vector<TslQuery>& views,
                   const ChaseOptions& chase_options, RewriteResult* result,
                   std::vector<TslQuery>* chased_views) {
  if (UsesRegexSteps(query)) {
    return Status::IllFormedQuery(
        "rewriting queries with regular path expressions (l+, **) is the "
        "paper's future work (\\S7); only plain TSL bodies are supported");
  }
  for (const TslQuery& view : views) {
    if (UsesRegexSteps(view)) {
      return Status::IllFormedQuery(
          StrCat("view ", view.name,
                 " uses regular path expressions; rewriting over such views "
                 "is unsupported (\\S7 future work)"));
    }
  }
  Result<TslQuery> chased_query = ChaseQuery(query, chase_options);
  if (!chased_query.ok()) {
    if (!chased_query.status().IsUnsatisfiable()) {
      return chased_query.status();
    }
    result->query_unsatisfiable = true;
    return Status::OK();
  }
  result->chased_query = std::move(chased_query).value();
  for (const TslQuery& view : views) {
    TSLRW_RETURN_NOT_OK(ValidateQuery(view));
    if (view.name.empty()) {
      return Status::InvalidArgument(
          "views must be named; the name is the rewritten query's source");
    }
    Result<TslQuery> chased_view = ChaseQuery(view, chase_options);
    if (!chased_view.ok()) {
      if (chased_view.status().IsUnsatisfiable()) continue;
      return chased_view.status();
    }
    chased_views->push_back(std::move(chased_view).value());
  }
  return Status::OK();
}

}  // namespace

Result<RewriteResult> ReferenceRewrite(const TslQuery& query,
                                       const std::vector<TslQuery>& views,
                                       const RewriteOptions& options) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  RewriteResult result;
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  // View answers may reuse source label spellings; the source constraints
  // do not describe them.
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }
  std::vector<TslQuery> chased_views;
  TSLRW_RETURN_NOT_OK(
      ChaseInputs(query, views, chase_options, &result, &chased_views));
  if (result.query_unsatisfiable) return result;
  const TslQuery& q = result.chased_query;

  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, chased_views, &result.mappings_found));
  for (const CandidateAtom& atom : atoms) {
    if (atom.is_view) result.views_touched.insert(atom.condition.source);
  }
  TSLRW_ASSIGN_OR_RETURN(
      EquivalenceTester tester,
      EquivalenceTester::Make(TslRuleSet::Single(q), chase_options));
  CandidateEnumerator enumerator(std::move(atoms), q.body.size(), options);

  Status failure;
  std::vector<std::vector<size_t>> accepted;
  const bool complete =
      enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
        ++result.candidates_generated;
        if (options.prune_dominated) {
          for (const std::vector<size_t>& prior : accepted) {
            // Both sorted ascending: enumeration emits sorted subsets.
            if (std::includes(chosen.begin(), chosen.end(), prior.begin(),
                              prior.end())) {
              return true;
            }
          }
        }
        TslQuery candidate;
        candidate.name = StrCat(q.name.empty() ? "rewriting" : q.name, "_rw",
                                result.candidates_generated);
        candidate.head = q.head;  // Lemma 5.4
        for (size_t i : chosen) {
          candidate.body.push_back(enumerator.atoms()[i].condition);
        }
        if (!CheckSafety(candidate).ok()) return true;

        Result<TslQuery> chased = ChaseQuery(candidate, chase_options);
        if (!chased.ok()) {
          if (chased.status().IsUnsatisfiable()) return true;
          failure = chased.status();
          return false;
        }
        ++result.candidates_tested;
        Result<TslRuleSet> composed = ComposeWithViews(*chased, chased_views);
        if (!composed.ok()) {
          failure = composed.status();
          return false;
        }
        Result<bool> equivalent = tester.EquivalentTo(*composed);
        if (!equivalent.ok()) {
          failure = equivalent.status();
          return false;
        }
        if (*equivalent) {
          accepted.push_back(chosen);
          result.rewritings.push_back(std::move(candidate));
        }
        return true;
      });
  TSLRW_RETURN_NOT_OK(failure);
  result.truncated = !complete;
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("candidate search stopped after ", result.candidates_generated,
               " candidate(s) (max_candidates=", options.max_candidates,
               options.should_stop ? ", or the budget hook fired" : "",
               "); rewritings may have been missed"));
  }
  return result;
}

}  // namespace testing
}  // namespace tslrw
