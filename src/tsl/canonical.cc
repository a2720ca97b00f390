#include "tsl/canonical.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace tslrw {

namespace {

/// Appends every variable in \p t to \p out in a fixed structural order,
/// skipping variables already seen. This — not std::set iteration — defines
/// the canonical numbering, so it must be deterministic and independent of
/// the variables' current names.
void CollectOrdered(const Term& t, std::vector<Term>* out,
                    std::set<Term>* seen) {
  switch (t.kind()) {
    case TermKind::kAtom:
      return;
    case TermKind::kVariable:
      if (seen->insert(t).second) out->push_back(t);
      return;
    case TermKind::kFunction:
      for (const Term& arg : t.args()) CollectOrdered(arg, out, seen);
      return;
  }
}

void CollectOrdered(const ObjectPattern& p, std::vector<Term>* out,
                    std::set<Term>* seen) {
  CollectOrdered(p.oid, out, seen);
  CollectOrdered(p.label, out, seen);
  if (p.value.is_term()) {
    CollectOrdered(p.value.term(), out, seen);
  } else {
    for (const ObjectPattern& m : p.value.set()) CollectOrdered(m, out, seen);
  }
}

/// Renames every variable to `O<i>` / `C<i>` (by sort) in first-occurrence
/// order over head then body. Simultaneous application keeps this correct
/// even when the input already uses names from the target alphabet. When
/// \p applied is non-null the pass's own renaming is reported through it, so
/// the caller can compose per-round renamings into an input-to-canonical map.
TslQuery RenameFirstOccurrence(const TslQuery& query,
                               TermSubstitution* applied = nullptr) {
  std::vector<Term> order;
  std::set<Term> seen;
  CollectOrdered(query.head, &order, &seen);
  for (const Condition& c : query.body) {
    CollectOrdered(c.pattern, &order, &seen);
  }
  TermSubstitution renaming;
  size_t next_oid = 0;
  size_t next_cval = 0;
  for (const Term& v : order) {
    const bool is_oid = v.var_kind() == VarKind::kObjectId;
    std::string name(1, is_oid ? 'O' : 'C');
    name += std::to_string(is_oid ? next_oid++ : next_cval++);
    renaming.Bind(v, Term::MakeVar(std::move(name), v.var_kind()));
  }
  TslQuery renamed = ApplyTermSubstitution(renaming, query);
  if (applied != nullptr) *applied = std::move(renaming);
  return renamed;
}

/// A substitution that blinds variable identities but keeps their sorts:
/// used to order conditions by *shape* before any names exist.
TermSubstitution BlindSubstitution(const TslQuery& query) {
  std::set<Term> vars = query.HeadVariables();
  for (const Term& v : query.BodyVariables()) vars.insert(v);
  TermSubstitution blind;
  for (const Term& v : vars) {
    const bool is_oid = v.var_kind() == VarKind::kObjectId;
    blind.Bind(v, Term::MakeVar(is_oid ? "?o" : "?c", v.var_kind()));
  }
  return blind;
}

/// Appends `<tag><n>;`. One-digit counts, the common case, skip
/// std::to_string.
void AppendTagged(char tag, size_t n, std::string* key) {
  key->push_back(tag);
  if (n < 10) {
    key->push_back(static_cast<char>('0' + n));
  } else {
    key->append(std::to_string(n));
  }
  key->push_back(';');
}

void AlphaWalkTerm(const Term& t, AlphaKey* out) {
  switch (t.kind()) {
    case TermKind::kAtom:
      AppendTagged('a', t.atom_name().size(), &out->key);
      out->key += t.atom_name();
      return;
    case TermKind::kVariable: {
      auto it = std::find(out->vars.begin(), out->vars.end(), t);
      if (it == out->vars.end()) it = out->vars.insert(it, t);
      AppendTagged(t.var_kind() == VarKind::kObjectId ? 'O' : 'C',
                   it - out->vars.begin(), &out->key);
      return;
    }
    case TermKind::kFunction:
      AppendTagged('f', t.functor().size(), &out->key);
      out->key += t.functor();
      out->key += '(';
      for (const Term& a : t.args()) AlphaWalkTerm(a, out);
      out->key += ')';
      return;
  }
}

void AlphaWalkPattern(const ObjectPattern& pattern, AlphaKey* out) {
  out->key += '<';
  AlphaWalkTerm(pattern.oid, out);
  AlphaWalkTerm(pattern.label, out);
  AppendTagged('s', static_cast<size_t>(pattern.step), &out->key);
  if (pattern.value.is_term()) {
    out->key += '=';
    AlphaWalkTerm(pattern.value.term(), out);
  } else {
    out->key += '{';
    for (const ObjectPattern& m : pattern.value.set()) {
      AlphaWalkPattern(m, out);
    }
    out->key += '}';
  }
  out->key += '>';
}

}  // namespace

AlphaKey AlphaKeyOf(const ObjectPattern& pattern) {
  AlphaKey out;
  // A condition's key is a few dozen bytes over a handful of variables;
  // reserving once skips the regrowth the rewriter's memos pay per rule.
  out.key.reserve(96);
  out.vars.reserve(8);
  AlphaWalkPattern(pattern, &out);
  return out;
}

AlphaKey AlphaKeyOf(const Condition& condition) {
  AlphaKey out = AlphaKeyOf(condition.pattern);
  out.key += '@';
  out.key += condition.source;
  return out;
}

CanonicalForm CanonicalizeQuery(const TslQuery& query) {
  return CanonicalizeQuery(query, nullptr);
}

CanonicalForm CanonicalizeQuery(const TslQuery& query,
                                std::map<Term, Term>* renaming) {
  TslQuery canon = query;
  canon.name.clear();
  canon.span = {};

  // The composed input-variable -> current-name map, threaded through every
  // renaming round below. Sorting passes never rename, so composing just the
  // per-round substitutions is exact.
  std::map<Term, Term> total;
  if (renaming != nullptr) {
    std::set<Term> vars = canon.HeadVariables();
    for (const Term& v : canon.BodyVariables()) vars.insert(v);
    for (const Term& v : vars) total.emplace(v, v);
  }
  auto compose = [&](const TermSubstitution& round) {
    if (renaming == nullptr) return;
    for (auto& [orig, cur] : total) cur = round.Apply(cur);
  };

  // Pass 1: order conditions by their name-blind shape, so the initial
  // numbering pass sees α-equivalent inputs in the same condition order.
  const TermSubstitution blind = BlindSubstitution(canon);
  std::stable_sort(
      canon.body.begin(), canon.body.end(),
      [&blind](const Condition& a, const Condition& b) {
        if (a.source != b.source) return a.source < b.source;
        return ApplyTermSubstitution(blind, a.pattern) <
               ApplyTermSubstitution(blind, b.pattern);
      });
  TermSubstitution round_renaming;
  canon = RenameFirstOccurrence(canon, &round_renaming);
  compose(round_renaming);

  // Refinement: with concrete canonical names, re-sorting can change the
  // condition order, which changes first-occurrence numbering — iterate to
  // a fixpoint (a handful of rounds in practice; the cap only guards
  // adversarially symmetric bodies, where any fixed ordering is sound).
  for (int round = 0; round < 8; ++round) {
    TslQuery next = canon;
    std::sort(next.body.begin(), next.body.end());
    next = RenameFirstOccurrence(next, &round_renaming);
    if (next == canon) break;
    canon = std::move(next);
    compose(round_renaming);
  }

  CanonicalForm form;
  form.key = canon.ToString();
  form.fingerprint = StableFingerprint(form.key);
  form.query = std::move(canon);
  if (renaming != nullptr) *renaming = std::move(total);
  return form;
}

uint64_t StableFingerprint(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ULL;  // FNV offset basis
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

}  // namespace tslrw
