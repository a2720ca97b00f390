#include "analysis/analyzer.h"

#include <cctype>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "rewrite/chase.h"
#include "rewrite/contained.h"
#include "rewrite/rewriter.h"
#include "tsl/parser.h"
#include "tsl/validate.h"

namespace tslrw {

size_t AnalysisReport::count(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) out += StrCat(d.ToString(), "\n");
  return out;
}

namespace {

/// Visits \p p and every set-pattern member below it, depth-first;
/// \p visit returns false to stop early. Returns false iff stopped.
template <typename Fn>
bool WalkPattern(const ObjectPattern& p, const Fn& visit) {
  if (!visit(p)) return false;
  if (p.value.is_set()) {
    for (const ObjectPattern& m : p.value.set()) {
      if (!WalkPattern(m, visit)) return false;
    }
  }
  return true;
}

/// The span of the first pattern in \p query (head, then body conditions in
/// order) satisfying \p pred; the query's own span if none does.
template <typename Fn>
SourceSpan LocatePattern(const TslQuery& query, const Fn& pred) {
  SourceSpan found = query.span;
  bool done = !WalkPattern(query.head, [&](const ObjectPattern& p) {
    if (pred(p)) {
      found = p.span;
      return false;
    }
    return true;
  });
  for (const Condition& c : query.body) {
    if (done) break;
    done = !WalkPattern(c.pattern, [&](const ObjectPattern& p) {
      if (pred(p)) {
        found = p.span;
        return false;
      }
      return true;
    });
  }
  return found;
}

/// True for the parser's `AnonLabelN` wildcards (spelled `*` in the text);
/// they are single-use by construction.
bool IsAnonymousVariable(const std::string& name) {
  return StartsWith(name, "AnonLabel");
}

/// Strips a leading "line:column: " (as produced by the lexer's positioned
/// ParseErrors) off \p message into a span.
SourceSpan ExtractSpanPrefix(std::string* message) {
  const std::string& s = *message;
  size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  if (i == 0 || i >= s.size() || s[i] != ':') return {};
  size_t j = i + 1;
  while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) ++j;
  if (j == i + 1 || j >= s.size() || s[j] != ':') return {};
  SourceSpan span{std::stoi(s.substr(0, i)),
                  std::stoi(s.substr(i + 1, j - i - 1))};
  size_t k = j + 1;
  while (k < s.size() && s[k] == ' ') ++k;
  *message = s.substr(k);
  return span;
}

/// Variables plus ground oid terms of a condition — the things a join with
/// another condition can go through.
std::set<Term> JoinKeys(const Condition& condition) {
  std::set<Term> keys;
  condition.pattern.CollectVariables(&keys);
  WalkPattern(condition.pattern, [&](const ObjectPattern& p) {
    if (p.oid.IsGround()) keys.insert(p.oid);
    return true;
  });
  return keys;
}

bool Intersect(const std::set<Term>& a, const std::set<Term>& b) {
  for (const Term& t : a) {
    if (b.count(t) > 0) return true;
  }
  return false;
}

}  // namespace

void Analyzer::Report(std::vector<Diagnostic>* out, DiagCode code,
                      SourceSpan span, const std::string& rule,
                      std::string message) const {
  out->push_back(Diagnostic{code, DiagCodeSeverity(code), span, rule,
                            std::move(message)});
}

void Analyzer::WellFormednessPasses(const TslQuery& query,
                                    std::vector<Diagnostic>* out) const {
  if (Status st = CheckSafety(query); !st.ok()) {
    Report(out, DiagCode::kUnsafeQuery, query.head.span, query.name,
           st.message());
  }
  if (Status st = CheckHeadOids(query); !st.ok()) {
    Report(out, DiagCode::kHeadOidViolation, query.head.span, query.name,
           st.message());
  }
  if (Status st = CheckAcyclicBody(query); !st.ok()) {
    SourceSpan span =
        query.body.empty() ? query.span : query.body.front().pattern.span;
    Report(out, DiagCode::kCyclicPattern, span, query.name, st.message());
  }
  if (Status st = CheckRegexStepPlacement(query); !st.ok()) {
    SourceSpan span = LocatePattern(query, [](const ObjectPattern& p) {
      return p.step != StepKind::kChild;
    });
    for (const Condition& c : query.body) {
      if (c.pattern.step != StepKind::kChild) span = c.pattern.span;
    }
    Report(out, DiagCode::kMisplacedRegexStep, span, query.name,
           st.message());
  }
  // V_O / V_C disjointness (TSL005). Parsed rules cannot violate it
  // (ResolveVariableKinds rejects them), but programmatically assembled
  // rules can.
  std::map<std::string, std::set<VarKind>> kinds;
  std::set<Term> vars = query.HeadVariables();
  for (const Term& v : query.BodyVariables()) vars.insert(v);
  for (const Term& v : vars) kinds[v.var_name()].insert(v.var_kind());
  for (const auto& [name, used_kinds] : kinds) {
    if (used_kinds.size() < 2) continue;
    const std::string& var_name = name;  // no structured-binding capture
    SourceSpan span = LocatePattern(query, [&](const ObjectPattern& p) {
      std::set<Term> pattern_vars;
      p.oid.CollectVariables(&pattern_vars);
      for (const Term& v : pattern_vars) {
        if (v.var_name() == var_name) return true;
      }
      return false;
    });
    Report(out, DiagCode::kVariableSortClash, span, query.name,
           StrCat("variable ", name,
                  " is used both as an object id and as a label/value; "
                  "V_O and V_C must be disjoint"));
  }
}

void Analyzer::UnsatisfiablePass(const TslQuery& query,
                                 std::vector<Diagnostic>* out) const {
  auto chased = ChaseQuery(query, chase_options_);
  if (chased.ok() || !chased.status().IsUnsatisfiable()) return;
  SourceSpan span =
      query.body.empty() ? query.span : query.body.front().pattern.span;
  Report(out, DiagCode::kUnsatisfiableBody, span, query.name,
         StrCat("the body is unsatisfiable: ", chased.status().message()));
}

void Analyzer::RedundantConditionPass(const TslQuery& query,
                                      std::vector<Diagnostic>* out) const {
  if (query.body.size() < 2) return;
  for (size_t i = 0; i < query.body.size(); ++i) {
    TslQuery reduced = query;
    reduced.body.erase(reduced.body.begin() + static_cast<ptrdiff_t>(i));
    if (!CheckSafety(reduced).ok()) continue;  // condition binds head vars
    auto equivalent = AreEquivalent(reduced, query, chase_options_);
    if (!equivalent.ok() || !*equivalent) continue;
    Report(out, DiagCode::kRedundantCondition, query.body[i].pattern.span,
           query.name,
           StrCat("body condition ", i + 1, " (",
                  query.body[i].ToString(),
                  ") is redundant: dropping it leaves an equivalent query; "
                  "redundant conditions inflate the exponential candidate "
                  "search (\\S5.1)"));
  }
}

void Analyzer::CartesianProductPass(const TslQuery& query,
                                    std::vector<Diagnostic>* out) const {
  if (query.body.size() < 2) return;
  std::vector<std::set<Term>> keys;
  keys.reserve(query.body.size());
  for (const Condition& c : query.body) keys.push_back(JoinKeys(c));
  // Grow connected components over the body's join graph, in order.
  std::vector<size_t> component(query.body.size(), 0);
  size_t components = 0;
  for (size_t i = 0; i < query.body.size(); ++i) {
    size_t joined = 0;
    bool found = false;
    for (size_t j = 0; j < i; ++j) {
      if (Intersect(keys[i], keys[j])) {
        joined = component[j];
        found = true;
        break;
      }
    }
    if (!found) {
      component[i] = components++;
      continue;
    }
    component[i] = joined;
    // Merging: conditions i joins may bridge two earlier components.
    for (size_t j = 0; j < i; ++j) {
      if (component[j] != joined && Intersect(keys[i], keys[j])) {
        size_t from = component[j];
        for (size_t k = 0; k <= i; ++k) {
          if (component[k] == from) component[k] = joined;
        }
        --components;
      }
    }
  }
  if (components < 2) return;
  // Report the first condition of every component after the first.
  std::set<size_t> seen{component[0]};
  for (size_t i = 1; i < query.body.size(); ++i) {
    if (!seen.insert(component[i]).second) continue;
    Report(out, DiagCode::kCartesianProduct, query.body[i].pattern.span,
           query.name,
           StrCat("body condition ", i + 1, " (", query.body[i].ToString(),
                  ") shares no variables or ground oids with the preceding "
                  "conditions; the body is a cartesian product of ",
                  components, " independent parts"));
  }
}

void Analyzer::PathStepPass(const TslQuery& query,
                            std::vector<Diagnostic>* out) const {
  for (const Condition& c : query.body) {
    WalkPattern(c.pattern, [&](const ObjectPattern& p) {
      if (p.step == StepKind::kClosure) {
        Report(out, DiagCode::kUnboundedPathStep, p.span, query.name,
               StrCat("closure step `", p.label.ToString(),
                      "+` matches chains of unbounded length; evaluation "
                      "cost grows with graph depth and the rewriting "
                      "pipeline rejects regular path steps (\\S7)"));
      } else if (p.step == StepKind::kDescendant) {
        Report(out, DiagCode::kUnboundedPathStep, p.span, query.name,
               "descendant step `**` matches every proper descendant; "
               "evaluation can touch the whole graph and the rewriting "
               "pipeline rejects regular path steps (\\S7)");
      }
      return true;
    });
  }
}

void Analyzer::SingleUseVariablePass(const TslQuery& query,
                                     std::vector<Diagnostic>* out) const {
  struct Use {
    size_t occurrences = 0;
    SourceSpan span;
  };
  std::map<std::string, Use> uses;
  // Counts every occurrence of every variable in \p t, crediting the
  // enclosing pattern's span.
  auto count_term = [&uses](const Term& t, SourceSpan span) {
    std::vector<const Term*> stack{&t};
    while (!stack.empty()) {
      const Term* top = stack.back();
      stack.pop_back();
      if (top->is_var()) {
        Use& use = uses[top->var_name()];
        if (use.occurrences == 0) use.span = span;
        ++use.occurrences;
      } else if (top->is_func()) {
        for (const Term& a : top->args()) stack.push_back(&a);
      }
    }
  };
  auto count_pattern = [&](const ObjectPattern& pattern) {
    WalkPattern(pattern, [&](const ObjectPattern& p) {
      count_term(p.oid, p.span);
      count_term(p.label, p.span);
      if (p.value.is_term()) count_term(p.value.term(), p.span);
      return true;
    });
  };
  count_pattern(query.head);
  for (const Condition& c : query.body) count_pattern(c.pattern);
  for (const auto& [name, use] : uses) {
    if (use.occurrences != 1 || IsAnonymousVariable(name)) continue;
    Report(out, DiagCode::kSingleUseVariable, use.span, query.name,
           StrCat("variable ", name,
                  " occurs only once; it matches anything (fine as a "
                  "wildcard, suspicious if a join was intended)"));
  }
}

void Analyzer::DeadViewPass(const std::vector<TslQuery>& rules,
                            std::vector<Diagnostic>* out) const {
  // A rule is eligible when the contained-rewriting machinery accepts it.
  auto eligible = [](const TslQuery& rule) {
    return !rule.name.empty() && ValidateQuery(rule).ok() &&
           !UsesRegexSteps(rule);
  };
  RewriteOptions options;
  options.constraints = options_.constraints;
  options.require_total = true;
  options.max_candidates = options_.max_candidates;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!eligible(rules[i])) continue;
    std::vector<TslQuery> others;
    others.reserve(rules.size() - 1);
    for (size_t j = 0; j < rules.size(); ++j) {
      if (j != i && eligible(rules[j])) others.push_back(rules[j]);
    }
    if (others.empty()) continue;
    auto covered =
        FindMaximallyContainedRewriting(rules[i], others, options);
    if (covered.ok() && covered->truncated) {
      Report(out, DiagCode::kSearchTruncated, rules[i].span, rules[i].name,
             StrCat("dead-view analysis of ", rules[i].name,
                    " examined only the first ", options.max_candidates,
                    " candidate(s); the verdict may be incomplete"));
    }
    if (!covered.ok() || !covered->equivalent) continue;
    std::set<std::string> covering;
    for (const TslQuery& rule : covered->rewriting.rules) {
      for (const Condition& c : rule.body) covering.insert(c.source);
    }
    Report(out, DiagCode::kDeadView, rules[i].span, rules[i].name,
           StrCat("view ", rules[i].name,
                  " is dead: every answer it contributes is already "
                  "available through ",
                  JoinMapped(covering, ", ",
                             [](const std::string& s) { return s; })));
  }
}

AnalysisReport Analyzer::AnalyzeQuery(const TslQuery& query) const {
  std::vector<Diagnostic> diags;
  WellFormednessPasses(query, &diags);
  bool well_formed = diags.empty();
  if (options_.semantic_passes && well_formed && !UsesRegexSteps(query)) {
    size_t before = diags.size();
    UnsatisfiablePass(query, &diags);
    // A redundancy check against an unsatisfiable query proves nothing.
    if (diags.size() == before) RedundantConditionPass(query, &diags);
  }
  CartesianProductPass(query, &diags);
  PathStepPass(query, &diags);
  if (options_.lint_single_use_variables) {
    SingleUseVariablePass(query, &diags);
  }
  SortDiagnostics(&diags);
  return AnalysisReport{std::move(diags)};
}

AnalysisReport Analyzer::AnalyzeRules(
    const std::vector<TslQuery>& rules) const {
  AnalysisReport report;
  for (const TslQuery& rule : rules) {
    AnalysisReport one = AnalyzeQuery(rule);
    report.diagnostics.insert(report.diagnostics.end(),
                              one.diagnostics.begin(), one.diagnostics.end());
  }
  if (options_.semantic_passes && options_.detect_dead_views) {
    DeadViewPass(rules, &report.diagnostics);
  }
  // Presentation order must not depend on the order the rules arrived in
  // (callers iterate maps, vectors, capability sets, ...).
  SortDiagnostics(&report.diagnostics);
  return report;
}

AnalysisReport Analyzer::AnalyzeProgramText(std::string_view text) const {
  auto rules = ParseTslProgram(text);
  if (!rules.ok()) {
    std::string message = rules.status().message();
    SourceSpan span = ExtractSpanPrefix(&message);
    AnalysisReport report;
    Report(&report.diagnostics, DiagCode::kParseError, span, /*rule=*/"",
           std::move(message));
    return report;
  }
  return AnalyzeRules(*rules);
}

}  // namespace tslrw
