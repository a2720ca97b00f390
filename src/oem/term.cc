#include "oem/term.h"

#include <cassert>
#include <cctype>
#include <functional>

#include "common/string_util.h"

namespace tslrw {

struct Term::Rep {
  TermKind kind;
  VarKind var_kind = VarKind::kObjectId;  // meaningful only for variables
  std::string name;                       // atom spelling / var name / functor
  std::vector<Term> args;                 // function arguments
  size_t hash = 0;
  bool ground = true;
};

namespace {

size_t HashCombine(size_t seed, size_t v) {
  // boost::hash_combine recipe.
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

Term Term::MakeAtom(std::string name) {
  auto rep = std::make_shared<Rep>();
  rep->kind = TermKind::kAtom;
  rep->name = std::move(name);
  rep->hash = HashCombine(0x01, std::hash<std::string>()(rep->name));
  rep->ground = true;
  return Term(std::move(rep));
}

Term Term::MakeVar(std::string name, VarKind kind) {
  auto rep = std::make_shared<Rep>();
  rep->kind = TermKind::kVariable;
  rep->var_kind = kind;
  rep->name = std::move(name);
  rep->hash = HashCombine(kind == VarKind::kObjectId ? 0x02 : 0x03,
                          std::hash<std::string>()(rep->name));
  rep->ground = false;
  return Term(std::move(rep));
}

Term Term::MakeFunc(std::string symbol, std::vector<Term> args) {
  auto rep = std::make_shared<Rep>();
  rep->kind = TermKind::kFunction;
  rep->name = std::move(symbol);
  rep->args = std::move(args);
  size_t h = HashCombine(0x04, std::hash<std::string>()(rep->name));
  bool ground = true;
  for (const Term& a : rep->args) {
    h = HashCombine(h, a.Hash());
    ground = ground && a.IsGround();
  }
  rep->hash = h;
  rep->ground = ground;
  return Term(std::move(rep));
}

Term::Term() : Term(MakeAtom("")) {}

TermKind Term::kind() const { return rep_->kind; }

const std::string& Term::atom_name() const {
  assert(is_atom());
  return rep_->name;
}

const std::string& Term::var_name() const {
  assert(is_var());
  return rep_->name;
}

VarKind Term::var_kind() const {
  assert(is_var());
  return rep_->var_kind;
}

const std::string& Term::functor() const {
  assert(is_func());
  return rep_->name;
}

const std::vector<Term>& Term::args() const {
  assert(is_func());
  return rep_->args;
}

bool Term::IsGround() const { return rep_->ground; }

void Term::CollectVariables(std::set<Term>* out) const {
  switch (kind()) {
    case TermKind::kAtom:
      return;
    case TermKind::kVariable:
      out->insert(*this);
      return;
    case TermKind::kFunction:
      for (const Term& a : args()) a.CollectVariables(out);
      return;
  }
}

size_t Term::Hash() const { return rep_->hash; }

namespace {

/// Whether an atom's spelling re-lexes as an atom (and not as a variable,
/// which an uppercase first letter would produce). Quoted otherwise.
bool AtomIsBare(const std::string& s) {
  if (s.empty()) return false;
  unsigned char first = static_cast<unsigned char>(s[0]);
  if (!(std::islower(first) || std::isdigit(first) || first == '_')) {
    return false;
  }
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (!(std::isalnum(u) || c == '_' || c == '\'' || c == '-')) return false;
  }
  return true;
}

std::string QuoteAtom(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Term::ToString() const {
  switch (kind()) {
    case TermKind::kAtom:
      return AtomIsBare(rep_->name) ? rep_->name : QuoteAtom(rep_->name);
    case TermKind::kVariable:
      return rep_->name;
    case TermKind::kFunction:
      return StrCat(rep_->name, "(",
                    JoinMapped(rep_->args, ",",
                               [](const Term& t) { return t.ToString(); }),
                    ")");
  }
  return "";
}

bool operator==(const Term& a, const Term& b) {
  if (a.rep_ == b.rep_) return true;
  if (a.Hash() != b.Hash()) return false;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TermKind::kAtom:
      return a.rep_->name == b.rep_->name;
    case TermKind::kVariable:
      return a.rep_->var_kind == b.rep_->var_kind &&
             a.rep_->name == b.rep_->name;
    case TermKind::kFunction:
      return a.rep_->name == b.rep_->name && a.rep_->args == b.rep_->args;
  }
  return false;
}

int Compare(const Term& a, const Term& b) {
  if (a.rep_ == b.rep_) return 0;
  if (a.kind() != b.kind()) return a.kind() < b.kind() ? -1 : 1;
  if (a.kind() == TermKind::kVariable &&
      a.rep_->var_kind != b.rep_->var_kind) {
    return a.rep_->var_kind < b.rep_->var_kind ? -1 : 1;
  }
  if (int c = a.rep_->name.compare(b.rep_->name); c != 0) return c;
  // Lexicographic over the arguments (empty for atoms and variables); a
  // proper prefix orders first, as std::vector's operator< would.
  const std::vector<Term>& xs = a.rep_->args;
  const std::vector<Term>& ys = b.rep_->args;
  for (size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
    if (int c = Compare(xs[i], ys[i]); c != 0) return c;
  }
  if (xs.size() == ys.size()) return 0;
  return xs.size() < ys.size() ? -1 : 1;
}

bool TermSubstitution::Bind(const Term& var, const Term& value) {
  assert(var.is_var());
  auto it = bindings_.find(var);
  if (it != bindings_.end()) return it->second == value;
  bindings_.emplace(var, value);
  return true;
}

void TermSubstitution::Unbind(const Term& var) { bindings_.erase(var); }

const Term* TermSubstitution::Lookup(const Term& var) const {
  auto it = bindings_.find(var);
  return it == bindings_.end() ? nullptr : &it->second;
}

Term TermSubstitution::Apply(const Term& t) const {
  switch (t.kind()) {
    case TermKind::kAtom:
      return t;
    case TermKind::kVariable: {
      const Term* bound = Lookup(t);
      return bound ? *bound : t;
    }
    case TermKind::kFunction: {
      std::vector<Term> new_args;
      new_args.reserve(t.args().size());
      bool changed = false;
      for (const Term& a : t.args()) {
        Term na = Apply(a);
        changed = changed || !(na == a);
        new_args.push_back(std::move(na));
      }
      if (!changed) return t;
      return Term::MakeFunc(t.functor(), std::move(new_args));
    }
  }
  return t;
}

void TermSubstitution::ApplyToRange(const TermSubstitution& other) {
  for (auto& [var, value] : bindings_) {
    value = other.Apply(value);
  }
}

std::string TermSubstitution::ToString() const {
  return StrCat(
      "[", JoinMapped(bindings_, ", ",
                      [](const std::pair<const Term, Term>& kv) {
                        return StrCat(kv.first.ToString(), " -> ",
                                      kv.second.ToString());
                      }),
      "]");
}

bool SortsCompatible(const Term& var, const Term& value) {
  assert(var.is_var());
  // Variables of either sort may alias each other: the V_O / V_C
  // disjointness the paper needs is about *names* sharing positions within
  // one rule (enforced positionally by the parser), not about bindings
  // created during unification — e.g. composing `pp(P,Y)` against a view's
  // `pp(P',Y')` must alias Y with the view's label variable Y' even though
  // Y's sort was defaulted from a Skolem-argument occurrence.
  if (value.is_var()) return true;
  switch (var.var_kind()) {
    case VarKind::kObjectId:
      // Object ids are atoms or function terms.
      return value.is_atom() || value.is_func();
    case VarKind::kLabelValue:
      // Labels/atomic values are atoms. (Set values are represented as set
      // patterns, handled in the rewrite layer, never as Terms.)
      return value.is_atom();
  }
  return false;
}

namespace {

bool Occurs(const Term& var, const Term& in) {
  switch (in.kind()) {
    case TermKind::kAtom:
      return false;
    case TermKind::kVariable:
      return var == in;
    case TermKind::kFunction:
      for (const Term& a : in.args()) {
        if (Occurs(var, a)) return true;
      }
      return false;
  }
  return false;
}

bool UnifyImpl(Term a, Term b, TermSubstitution* subst) {
  a = subst->Apply(a);
  b = subst->Apply(b);
  if (a == b) return true;
  if (a.is_var()) {
    if (!SortsCompatible(a, b)) return false;
    if (Occurs(a, b)) return false;
    TermSubstitution single;
    single.Bind(a, b);
    subst->ApplyToRange(single);
    return subst->Bind(a, b);
  }
  if (b.is_var()) return UnifyImpl(b, a, subst);
  if (a.is_atom() || b.is_atom()) return false;  // distinct atoms / atom-func
  if (a.functor() != b.functor() || a.args().size() != b.args().size()) {
    return false;
  }
  for (size_t i = 0; i < a.args().size(); ++i) {
    if (!UnifyImpl(a.args()[i], b.args()[i], subst)) return false;
  }
  return true;
}

}  // namespace

bool Unify(const Term& a, const Term& b, TermSubstitution* subst) {
  TermSubstitution scratch = *subst;
  if (!UnifyImpl(a, b, &scratch)) return false;
  *subst = std::move(scratch);
  return true;
}

}  // namespace tslrw
