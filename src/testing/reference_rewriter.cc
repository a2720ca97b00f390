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
Status ChasePlainInputs(const TslQuery& query,
                        const std::vector<TslQuery>& views,
                        const ChaseOptions& chase_options,
                        RewriteResult* result,
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

/// The chase options of a search over \p views: view answers may reuse
/// source label spellings, which the source constraints do not describe.
ChaseOptions SearchChaseOptions(const std::vector<TslQuery>& views,
                                const RewriteOptions& options) {
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }
  return chase_options;
}

}  // namespace

Result<RewriteResult> ReferenceRewrite(const TslQuery& query,
                                       const std::vector<TslQuery>& views,
                                       const RewriteOptions& options,
                                       CandidateTest test) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  RewriteResult result;
  const ChaseOptions chase_options = SearchChaseOptions(views, options);
  std::vector<TslQuery> chased_views;
  TSLRW_RETURN_NOT_OK(
      ChasePlainInputs(query, views, chase_options, &result, &chased_views));
  if (result.query_unsatisfiable) return result;
  const TslQuery& q = result.chased_query;

  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, chased_views, &result.mappings_found,
                          /*allow_partial_mappings=*/test ==
                              CandidateTest::kContained));
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
        const bool equivalence = test == CandidateTest::kEquivalent;
        candidate.name =
            StrCat(q.name.empty() ? (equivalence ? "rewriting" : "contained")
                                  : q.name,
                   equivalence ? "_rw" : "_mc", result.candidates_generated);
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
        Result<bool> passes = RunCandidateTest(test, tester, *composed);
        if (!passes.ok()) {
          failure = passes.status();
          return false;
        }
        if (*passes) {
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

Result<ContainedRewritingResult> ReferenceContainedRewrite(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options) {
  RewriteOptions search = options;
  search.use_cover_heuristic = false;
  search.prune_dominated = false;
  search.strict_limits = false;
  TSLRW_ASSIGN_OR_RETURN(
      RewriteResult found,
      ReferenceRewrite(query, views, search, CandidateTest::kContained));
  ContainedRewritingResult result;
  if (found.query_unsatisfiable) {
    result.equivalent = true;
    return result;
  }
  result.candidates_tested = found.candidates_tested;
  result.truncated = found.truncated;
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("contained-rewriting search stopped after ",
               result.candidates_tested,
               " tested candidate(s); the union may not be maximal"));
  }
  const ChaseOptions chase_options = SearchChaseOptions(views, options);
  std::vector<TslQuery> chased_views;
  RewriteResult inputs;
  TSLRW_RETURN_NOT_OK(
      ChasePlainInputs(query, views, chase_options, &inputs, &chased_views));
  std::vector<TslRuleSet> expansions;
  for (const TslQuery& rule : found.rewritings) {
    TSLRW_ASSIGN_OR_RETURN(TslQuery chased, ChaseQuery(rule, chase_options));
    TSLRW_ASSIGN_OR_RETURN(TslRuleSet expansion,
                           ComposeWithViews(chased, chased_views));
    expansions.push_back(std::move(expansion));
  }
  // Prune rules whose expansion is contained in another accepted rule's
  // expansion (keep the first of mutually-equivalent pairs).
  std::vector<bool> dead(expansions.size(), false);
  for (size_t i = 0; i < expansions.size(); ++i) {
    for (size_t j = 0; j < expansions.size() && !dead[i]; ++j) {
      if (i == j || dead[j]) continue;
      TSLRW_ASSIGN_OR_RETURN(
          bool sub, IsContainedIn(expansions[i], expansions[j], chase_options));
      if (!sub) continue;
      TSLRW_ASSIGN_OR_RETURN(
          bool super,
          IsContainedIn(expansions[j], expansions[i], chase_options));
      if (!super || j < i) dead[i] = true;
    }
  }
  TslRuleSet union_composed;
  for (size_t i = 0; i < expansions.size(); ++i) {
    if (dead[i]) continue;
    result.rewriting.rules.push_back(found.rewritings[i]);
    for (const TslQuery& rule : expansions[i].rules) {
      union_composed.rules.push_back(rule);
    }
  }
  if (!union_composed.rules.empty()) {
    TSLRW_ASSIGN_OR_RETURN(
        result.equivalent,
        IsContainedIn(TslRuleSet::Single(found.chased_query), union_composed,
                      chase_options));
  }
  return result;
}

}  // namespace testing
}  // namespace tslrw
