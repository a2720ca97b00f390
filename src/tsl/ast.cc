#include "tsl/ast.h"

#include <functional>

#include "common/string_util.h"

namespace tslrw {

PatternValue PatternValue::FromTerm(Term t) {
  PatternValue v;
  v.term_ = std::move(t);
  return v;
}

PatternValue PatternValue::FromSet(SetPattern members) {
  PatternValue v;
  v.members_ = std::move(members);
  return v;
}

std::string PatternValue::ToString() const {
  if (is_term()) return term_->ToString();
  return tslrw::ToString(members_);
}

bool operator==(const PatternValue& a, const PatternValue& b) {
  return a.term_ == b.term_ && a.members_ == b.members_;
}

bool operator<(const PatternValue& a, const PatternValue& b) {
  if (a.is_term() != b.is_term()) return a.is_term() < b.is_term();
  if (a.is_term()) return a.term() < b.term();
  return a.members_ < b.members_;
}

size_t HashPattern(const ObjectPattern& p) {
  size_t h = p.oid.Hash() * 31 + p.label.Hash();
  h = h * 31 + static_cast<size_t>(p.step);
  if (p.value.is_term()) return h * 31 + p.value.term().Hash();
  h = h * 31 + 0x9e3779b97f4a7c15ull;
  for (const ObjectPattern& m : p.value.set()) h = h * 31 + HashPattern(m);
  return h;
}

size_t HashCondition(const Condition& condition) {
  return HashPattern(condition.pattern) * 31 +
         std::hash<std::string>()(condition.source);
}

size_t HashRule(const TslQuery& rule) {
  size_t h = HashPattern(rule.head);
  for (const Condition& c : rule.body) h = h * 31 + HashCondition(c);
  return h;
}

std::string ObjectPattern::ToString() const {
  std::string label_text;
  switch (step) {
    case StepKind::kChild:
      label_text = label.ToString();
      break;
    case StepKind::kClosure:
      label_text = StrCat(label.ToString(), "+");
      break;
    case StepKind::kDescendant:
      label_text = "**";
      break;
  }
  return StrCat("<", oid.ToString(), " ", label_text, " ", value.ToString(),
                ">");
}

void ObjectPattern::CollectVariables(std::set<Term>* out) const {
  oid.CollectVariables(out);
  label.CollectVariables(out);
  if (value.is_term()) {
    value.term().CollectVariables(out);
  } else {
    for (const ObjectPattern& m : value.set()) m.CollectVariables(out);
  }
}

bool operator==(const ObjectPattern& a, const ObjectPattern& b) {
  return a.step == b.step && a.oid == b.oid && a.label == b.label &&
         a.value == b.value;
}

bool operator<(const ObjectPattern& a, const ObjectPattern& b) {
  if (a.step != b.step) return a.step < b.step;
  if (a.oid != b.oid) return a.oid < b.oid;
  if (a.label != b.label) return a.label < b.label;
  return a.value < b.value;
}

std::string Condition::ToString() const {
  std::string out = pattern.ToString();
  if (!source.empty()) out += StrCat("@", source);
  return out;
}

std::string TslQuery::ToString() const {
  return StrCat(head.ToString(), " :- ",
                JoinMapped(body, " AND ",
                           [](const Condition& c) { return c.ToString(); }));
}

std::set<Term> TslQuery::HeadVariables() const {
  std::set<Term> vars;
  head.CollectVariables(&vars);
  return vars;
}

std::set<Term> TslQuery::BodyVariables() const {
  std::set<Term> vars;
  for (const Condition& c : body) c.pattern.CollectVariables(&vars);
  return vars;
}

std::set<std::string> TslQuery::Sources() const {
  std::set<std::string> out;
  for (const Condition& c : body) out.insert(c.source);
  return out;
}

std::string TslRuleSet::ToString() const {
  return JoinMapped(rules, "\n",
                    [](const TslQuery& q) { return q.ToString(); });
}

std::string ToString(const SetPattern& set) {
  return StrCat("{", JoinMapped(set, " ",
                                [](const ObjectPattern& p) {
                                  return p.ToString();
                                }),
                "}");
}

ObjectPattern ApplyTermSubstitution(const TermSubstitution& subst,
                                    const ObjectPattern& pattern) {
  ObjectPattern out;
  out.oid = subst.Apply(pattern.oid);
  out.label = subst.Apply(pattern.label);
  out.step = pattern.step;
  out.span = pattern.span;
  if (pattern.value.is_term()) {
    out.value = PatternValue::FromTerm(subst.Apply(pattern.value.term()));
  } else {
    SetPattern members;
    members.reserve(pattern.value.set().size());
    for (const ObjectPattern& m : pattern.value.set()) {
      members.push_back(ApplyTermSubstitution(subst, m));
    }
    out.value = PatternValue::FromSet(std::move(members));
  }
  return out;
}

TslQuery ApplyTermSubstitution(const TermSubstitution& subst,
                               const TslQuery& query) {
  TslQuery out;
  out.name = query.name;
  out.span = query.span;
  out.head = ApplyTermSubstitution(subst, query.head);
  out.body.reserve(query.body.size());
  for (const Condition& c : query.body) {
    out.body.push_back(
        Condition{ApplyTermSubstitution(subst, c.pattern), c.source});
  }
  return out;
}

TslQuery RenameVariablesApart(const TslQuery& query,
                              const std::string& suffix) {
  TermSubstitution renaming;
  std::set<Term> vars = query.HeadVariables();
  for (const Term& v : query.BodyVariables()) vars.insert(v);
  for (const Term& v : vars) {
    renaming.Bind(v, Term::MakeVar(v.var_name() + suffix, v.var_kind()));
  }
  return ApplyTermSubstitution(renaming, query);
}

TslQuery WithDefaultSource(TslQuery query, const std::string& source) {
  for (Condition& c : query.body) {
    if (c.source.empty()) c.source = source;
  }
  return query;
}

}  // namespace tslrw
