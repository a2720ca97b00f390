#include "rewrite/contained.h"

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "rewrite/candidate.h"
#include "rewrite/compose.h"
#include "tsl/validate.h"

namespace tslrw {

Result<ContainedRewritingResult> FindMaximallyContainedRewriting(
    const TslQuery& query, const std::vector<TslQuery>& views,
    const RewriteOptions& options) {
  TSLRW_RETURN_NOT_OK(ValidateQuery(query));
  if (UsesRegexSteps(query)) {
    return Status::IllFormedQuery(
        "rewriting queries with regular path expressions (l+, **) is the "
        "paper's future work (\\S7)");
  }
  for (const TslQuery& view : views) {
    if (UsesRegexSteps(view)) {
      return Status::IllFormedQuery(
          StrCat("view ", view.name, " uses regular path expressions"));
    }
  }
  ChaseOptions chase_options;
  chase_options.constraints = options.constraints;
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }

  ContainedRewritingResult result;
  Result<TslQuery> chased_query = ChaseQuery(query, chase_options);
  if (!chased_query.ok()) {
    if (chased_query.status().IsUnsatisfiable()) {
      // The query returns nothing; the empty union is equivalent.
      result.equivalent = true;
      return result;
    }
    return chased_query.status();
  }
  const TslQuery q = std::move(chased_query).value();

  std::vector<TslQuery> chased_views;
  for (const TslQuery& view : views) {
    TSLRW_RETURN_NOT_OK(ValidateQuery(view));
    if (view.name.empty()) {
      return Status::InvalidArgument("views must be named");
    }
    Result<TslQuery> cv = ChaseQuery(view, chase_options);
    if (!cv.ok()) {
      if (cv.status().IsUnsatisfiable()) continue;
      return cv.status();
    }
    chased_views.push_back(std::move(cv).value());
  }

  TSLRW_ASSIGN_OR_RETURN(
      std::vector<CandidateAtom> atoms,
      BuildCandidateAtoms(q, chased_views, nullptr,
                          /*allow_partial_mappings=*/true));

  // Containment does not need full query coverage: enumerate without the
  // cover heuristic, honoring only totality.
  RewriteOptions enum_options = options;
  enum_options.use_cover_heuristic = false;
  enum_options.prune_dominated = false;

  TSLRW_ASSIGN_OR_RETURN(
      EquivalenceTester tester,
      EquivalenceTester::Make(TslRuleSet::Single(q), chase_options));
  struct Accepted {
    TslQuery rule;         // over the views (+ residual conditions)
    TslRuleSet composed;   // its expansion over base sources
  };
  std::vector<Accepted> accepted;
  Status failure;
  CandidateEnumerator enumerator(std::move(atoms), q.body.size(),
                                 enum_options);
  ComposeCache compose_cache(chased_views);  // every candidate draws on them
  size_t counter = 0;
  bool complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    TslQuery candidate;
    candidate.name = StrCat(q.name.empty() ? "contained" : q.name, "_mc",
                            ++counter);
    candidate.head = q.head;
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
    Result<TslRuleSet> composed = ComposeWithViews(*chased, &compose_cache);
    if (!composed.ok()) {
      failure = composed.status();
      return false;
    }
    if (composed->rules.empty()) return true;  // produces nothing
    Result<bool> contained = tester.ContainedInReference(*composed);
    if (!contained.ok()) {
      failure = contained.status();
      return false;
    }
    if (*contained) {
      accepted.push_back(Accepted{std::move(candidate),
                                  std::move(composed).value()});
    }
    return true;
  });
  TSLRW_RETURN_NOT_OK(failure);
  result.truncated = !complete;
  if (result.truncated && options.strict_limits) {
    return Status::ResourceExhausted(
        StrCat("contained-rewriting search stopped after ",
               result.candidates_tested,
               " tested candidate(s); the union may not be maximal"));
  }

  // Prune rules whose expansion is contained in another accepted rule's
  // expansion (keep the first of mutually-equivalent pairs).
  std::vector<bool> dead(accepted.size(), false);
  for (size_t i = 0; i < accepted.size(); ++i) {
    for (size_t j = 0; j < accepted.size() && !dead[i]; ++j) {
      if (i == j || dead[j]) continue;
      TSLRW_ASSIGN_OR_RETURN(
          bool sub, IsContainedIn(accepted[i].composed, accepted[j].composed,
                                  chase_options));
      if (!sub) continue;
      TSLRW_ASSIGN_OR_RETURN(
          bool super, IsContainedIn(accepted[j].composed,
                                    accepted[i].composed, chase_options));
      if (!super || j < i) dead[i] = true;
    }
  }

  TslRuleSet union_composed;
  for (size_t i = 0; i < accepted.size(); ++i) {
    if (dead[i]) continue;
    result.rewriting.rules.push_back(std::move(accepted[i].rule));
    for (TslQuery& rule : accepted[i].composed.rules) {
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
