#include "eval/evaluator.h"

#include <deque>

#include "common/string_util.h"
#include "eval/binding.h"
#include "eval/matcher.h"

namespace tslrw {

namespace {

/// Wraps oid-key violations raised while building the answer as fusion
/// conflicts: two assignments tried to give one answer object different
/// content.
Status AsFusion(Status st) {
  if (st.ok() || st.code() != StatusCode::kInvalidArgument) return st;
  return Status::FusionConflict(st.message());
}

/// Applies θ to a head term; the result must be ground and must not be a
/// subgraph binding (those are legal only in value position).
Result<Term> GroundTerm(const Term& t, const Assignment& theta) {
  switch (t.kind()) {
    case TermKind::kAtom:
      return t;
    case TermKind::kVariable: {
      auto it = theta.find(t);
      if (it == theta.end()) {
        return Status::IllFormedQuery(
            StrCat("unsafe head variable ", t.ToString(),
                   " has no binding"));
      }
      if (!it->second.is_term()) {
        return Status::IllFormedQuery(
            StrCat("variable ", t.ToString(),
                   " is bound to a subgraph but used where an atomic term "
                   "is required"));
      }
      return it->second.term();
    }
    case TermKind::kFunction: {
      std::vector<Term> args;
      args.reserve(t.args().size());
      for (const Term& a : t.args()) {
        TSLRW_ASSIGN_OR_RETURN(Term ga, GroundTerm(a, theta));
        args.push_back(std::move(ga));
      }
      return Term::MakeFunc(t.functor(), std::move(args));
    }
  }
  return Status::Internal("unreachable term kind");
}

/// Instantiates one head object pattern under θ; returns the created oid.
Result<Oid> BuildObject(const ObjectPattern& pattern, const Assignment& theta,
                        OemDatabase* answer) {
  TSLRW_ASSIGN_OR_RETURN(Term oid, GroundTerm(pattern.oid, theta));
  TSLRW_ASSIGN_OR_RETURN(Term label_term, GroundTerm(pattern.label, theta));
  if (!label_term.is_atom()) {
    return Status::IllFormedQuery(
        StrCat("head label instantiates to non-atom ",
               label_term.ToString()));
  }
  const std::string& label = label_term.atom_name();

  if (pattern.value.is_set()) {
    TSLRW_RETURN_NOT_OK(AsFusion(answer->PutSet(oid, label)));
    for (const ObjectPattern& member : pattern.value.set()) {
      TSLRW_ASSIGN_OR_RETURN(Oid child, BuildObject(member, theta, answer));
      TSLRW_RETURN_NOT_OK(answer->AddEdge(oid, child));
    }
    return oid;
  }

  const Term& vt = pattern.value.term();
  if (vt.is_var()) {
    auto it = theta.find(vt);
    if (it == theta.end()) {
      return Status::IllFormedQuery(
          StrCat("unsafe head variable ", vt.ToString(), " has no binding"));
    }
    if (it->second.is_set_value()) {
      // Subgraph binding: the new object adopts the source object's child
      // set, and the subgraph below is copied into the answer.
      const OemDatabase& src = *it->second.db();
      const OemObject* owner = src.Find(it->second.owner());
      if (owner == nullptr || owner->is_atomic()) {
        return Status::Internal("subgraph binding owner is not a set object");
      }
      TSLRW_RETURN_NOT_OK(AsFusion(answer->PutSet(oid, label)));
      for (const Oid& c : owner->value.children()) {
        TSLRW_RETURN_NOT_OK(CopySubgraph(src, c, answer));
        TSLRW_RETURN_NOT_OK(answer->AddEdge(oid, c));
      }
      return oid;
    }
    TSLRW_RETURN_NOT_OK(AsFusion(
        answer->PutAtomic(oid, label, it->second.term().atom_name())));
    return oid;
  }
  if (vt.is_atom()) {
    TSLRW_RETURN_NOT_OK(
        AsFusion(answer->PutAtomic(oid, label, vt.atom_name())));
    return oid;
  }
  return Status::IllFormedQuery(
      StrCat("head value ", vt.ToString(),
             " is a function term; OEM values are atomic data or sets"));
}

Status EvaluateInto(const TslQuery& query, const SourceCatalog& catalog,
                    const EvalOptions& options, OemDatabase* answer) {
  ScopedSpan span(options.tracer, "eval.rule");
  span.Annotate("rule", query.name);
  CountIf(options.metrics, "eval.rules");
  TSLRW_ASSIGN_OR_RETURN(
      std::vector<Assignment> assignments,
      EnumerateAssignments(query.body, catalog, options.default_source));
  span.Annotate("assignments", static_cast<uint64_t>(assignments.size()));
  ObserveIf(options.metrics, "eval.assignments", assignments.size());
  for (const Assignment& theta : assignments) {
    TSLRW_ASSIGN_OR_RETURN(Oid root, BuildObject(query.head, theta, answer));
    TSLRW_RETURN_NOT_OK(answer->AddRoot(root));
  }
  CountIf(options.metrics, "eval.roots_emitted", assignments.size());
  return Status::OK();
}

}  // namespace

Status CopySubgraph(const OemDatabase& src, const Oid& oid,
                    OemDatabase* answer) {
  std::deque<Oid> work{oid};
  std::set<Oid> seen;
  while (!work.empty()) {
    Oid cur = work.front();
    work.pop_front();
    if (!seen.insert(cur).second) continue;
    const OemObject* obj = src.Find(cur);
    if (obj == nullptr) {
      return Status::Internal(
          StrCat("source object ", cur.ToString(), " vanished during copy"));
    }
    if (obj->is_atomic()) {
      TSLRW_RETURN_NOT_OK(
          AsFusion(answer->PutAtomic(cur, obj->label, obj->value.atom())));
    } else {
      TSLRW_RETURN_NOT_OK(AsFusion(answer->PutSet(cur, obj->label)));
      for (const Oid& c : obj->value.children()) {
        TSLRW_RETURN_NOT_OK(answer->AddEdge(cur, c));
        work.push_back(c);
      }
    }
  }
  return Status::OK();
}

Result<OemDatabase> Evaluate(const TslQuery& query,
                             const SourceCatalog& catalog,
                             const EvalOptions& options) {
  OemDatabase answer(options.answer_name.empty() ? query.name
                                                 : options.answer_name);
  TSLRW_RETURN_NOT_OK(EvaluateInto(query, catalog, options, &answer));
  return answer;
}

Result<OemDatabase> EvaluateRuleSet(const TslRuleSet& rules,
                                    const SourceCatalog& catalog,
                                    const EvalOptions& options) {
  std::string name = options.answer_name;
  if (name.empty() && !rules.rules.empty()) name = rules.rules.front().name;
  OemDatabase answer(name);
  for (const TslQuery& rule : rules.rules) {
    TSLRW_RETURN_NOT_OK(EvaluateInto(rule, catalog, options, &answer));
  }
  return answer;
}

Result<OemDatabase> MaterializeView(const TslQuery& view,
                                    const SourceCatalog& catalog,
                                    const EvalOptions& options) {
  EvalOptions opts = options;
  opts.answer_name = view.name;
  return Evaluate(view, catalog, opts);
}

}  // namespace tslrw
