#include "rewrite/contained.h"

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/compose.h"
#include "rewrite/parallel.h"
#include "tsl/validate.h"

namespace tslrw {

Result<ContainedRewritingResult> FindMaximallyContainedRewriting(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  if (options.constraints != nullptr) {
    for (const TslQuery& view : views) {
      chase_options.constraint_exempt_sources.insert(view.name);
    }
  }
  // No view index: partial mappings can use views its signature probe
  // rules out.
  TSLRW_ASSIGN_OR_RETURN(
      ChasedInputs inputs,
      ChaseInputs(query, views, chase_options, /*index=*/nullptr, nullptr));
  ContainedRewritingResult result;
  if (inputs.query_unsatisfiable) {
    // The query returns nothing; the empty union is equivalent.
    result.equivalent = true;
    return result;
  }
  const TslQuery& q = inputs.query;

  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, inputs.views, nullptr,
                          /*allow_partial_mappings=*/true));
  // Containment does not need full query coverage, and a candidate with
  // more conditions than an accepted one can still add answers: no cover
  // heuristic, no dominance pruning.
  RewriteOptions search_options = options;
  search_options.use_cover_heuristic = false;
  search_options.prune_dominated = false;
  TSLRW_ASSIGN_OR_RETURN(
      EquivalenceTester tester,
      EquivalenceTester::Make(TslRuleSet::Single(q), chase_options));
  CandidateEnumerator enumerator(std::move(atoms), q.body.size(),
                                 search_options);
  RewriteResult found;
  bool complete = true;
  uint64_t step_us = 0;
  TSLRW_RETURN_NOT_OK(VerifyCandidates(
      q, inputs.views, chase_options, tester, CandidateTest::kContained,
      enumerator, search_options, &found, &complete, &step_us));
  result.candidates_tested = found.candidates_tested;
  result.truncated = !complete;
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("contained-rewriting search stopped after ",
               result.candidates_tested,
               " tested candidate(s); the union may not be maximal"));
  }

  // The accepted rules' expansions over the base sources, composed again
  // for the post-pass (the pipeline's memos may skip a composition).
  std::vector<TslRuleSet> expansions;
  ComposeCache compose_cache(inputs.views);
  for (const TslQuery& rule : found.rewritings) {
    TSLRW_ASSIGN_OR_RETURN(TslQuery chased, ChaseQuery(rule, chase_options));
    TSLRW_ASSIGN_OR_RETURN(TslRuleSet expansion,
                           ComposeWithViews(chased, &compose_cache));
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
    result.rewriting.rules.push_back(std::move(found.rewritings[i]));
    for (TslQuery& rule : expansions[i].rules) {
      union_composed.rules.push_back(std::move(rule));
    }
  }
  if (!union_composed.rules.empty()) {
    TSLRW_ASSIGN_OR_RETURN(
        result.equivalent,
        IsContainedIn(TslRuleSet::Single(q), union_composed, chase_options));
  }
  return result;
}

}  // namespace tslrw
