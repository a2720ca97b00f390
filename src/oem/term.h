#ifndef TSLRW_OEM_TERM_H_
#define TSLRW_OEM_TERM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tslrw {

/// \brief Syntactic category of a Term.
enum class TermKind {
  /// Atomic datum: a label, an atomic value, or an atomic object id
  /// (e.g. `person`, `"SIGMOD"`, `1993`, `p1`).
  kAtom,
  /// A variable. Object-id variables (V_O) and label/value variables (V_C)
  /// form disjoint sets (\S2 of the paper).
  kVariable,
  /// An uninterpreted function term f(t1, ..., tn) from the Herbrand
  /// universe; TSL heads use these as Skolem object ids (e.g. `f(P)`).
  kFunction,
};

/// \brief The two disjoint variable sorts of TSL (\S2): V_O holds object-id
/// variables, V_C holds label and value variables.
enum class VarKind : uint8_t {
  kObjectId,
  kLabelValue,
};

/// \brief An immutable first-order term over the Herbrand universe of \S2:
/// atoms, sorted variables, and uninterpreted function terms.
///
/// Terms are value types backed by a shared immutable representation, so
/// copying is O(1) and structural equality / hashing are cached. The whole
/// rewriting stack (mappings, chase, composition, equivalence) manipulates
/// Terms purely functionally.
class Term {
 public:
  /// Constructs the atom `name`. Atoms compare by spelling.
  static Term MakeAtom(std::string name);
  /// Constructs a variable with the given sort.
  static Term MakeVar(std::string name, VarKind kind);
  /// Constructs the function term `symbol(args...)`.
  static Term MakeFunc(std::string symbol, std::vector<Term> args);

  /// Default-constructed Term is the atom "" (useful only as a placeholder).
  Term();

  TermKind kind() const;
  bool is_atom() const { return kind() == TermKind::kAtom; }
  bool is_var() const { return kind() == TermKind::kVariable; }
  bool is_func() const { return kind() == TermKind::kFunction; }

  /// Atom spelling; requires is_atom().
  const std::string& atom_name() const;
  /// Variable name; requires is_var().
  const std::string& var_name() const;
  /// Variable sort; requires is_var().
  VarKind var_kind() const;
  /// Function symbol; requires is_func().
  const std::string& functor() const;
  /// Function arguments; requires is_func().
  const std::vector<Term>& args() const;

  /// True iff the term contains no variables.
  bool IsGround() const;

  /// Inserts every variable occurring in the term into \p out.
  void CollectVariables(std::set<Term>* out) const;

  /// Structural hash (cached at construction).
  size_t Hash() const;

  /// Concrete syntax: atoms verbatim, variables verbatim, `f(a,B)`.
  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b);
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }
  /// Total order (kind, then spelling, then arguments); used for canonical
  /// printing and deterministic iteration.
  friend bool operator<(const Term& a, const Term& b) {
    return Compare(a, b) < 0;
  }
  /// Three-way form of operator<: negative, zero or positive. Visits each
  /// nesting level once, so comparing deep terms is linear in their size.
  friend int Compare(const Term& a, const Term& b);

 private:
  struct Rep;
  explicit Term(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

/// Hash functor for unordered containers keyed by Term.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

/// \brief A finite mapping from variables to terms, applied simultaneously.
///
/// Bindings are keyed by variable (name + sort). Composition and
/// idempotent application are provided; the rewrite layer extends this with
/// set-pattern bindings (\S3.1 "Set Mappings").
class TermSubstitution {
 public:
  TermSubstitution() = default;

  /// Binds \p var (must be a variable) to \p value. Returns false and leaves
  /// the substitution unchanged if \p var is already bound to a different
  /// term.
  bool Bind(const Term& var, const Term& value);

  /// Looks up the binding for \p var; returns nullptr if unbound.
  const Term* Lookup(const Term& var) const;

  /// Removes the binding for \p var (no-op if unbound). Supports the
  /// bind-trail undo used by backtracking matchers: record each variable
  /// freshly bound, and on failure unbind exactly those instead of copying
  /// the whole substitution up front.
  void Unbind(const Term& var);

  bool empty() const { return bindings_.empty(); }
  size_t size() const { return bindings_.size(); }

  /// Applies the substitution to \p t (simultaneous, non-recursive on
  /// introduced variables).
  Term Apply(const Term& t) const;

  /// Applies the substitution to every binding's right-hand side; used to
  /// keep most-general unifiers in triangular-solved form.
  void ApplyToRange(const TermSubstitution& other);

  const std::map<Term, Term>& bindings() const { return bindings_; }

  std::string ToString() const;

 private:
  std::map<Term, Term> bindings_;
};

/// \brief Syntactic unification of two terms.
///
/// Atoms unify with equal atoms; variables unify with any term of a
/// compatible sort (object-id variables never unify with label/value
/// variables or with terms bound to them); function terms unify
/// componentwise. Implements the occurs check. On success, extends \p subst
/// (both input terms are first instantiated by it) to a most general
/// unifier; on failure, \p subst is left unchanged.
///
/// Used by query-view composition (\S3.1 Step 2A) and the labeled-FD chase
/// (\S3.3).
bool Unify(const Term& a, const Term& b, TermSubstitution* subst);

/// \brief Whether binding \p var to \p value respects the variable sorts:
/// label/value variables never bind to function terms (those are object
/// ids); object-id variables bind to atoms or function terms. Variables of
/// either sort may alias each other — V_O / V_C disjointness concerns
/// variable *names* within one rule (checked positionally at parse time),
/// not bindings created by unification.
bool SortsCompatible(const Term& var, const Term& value);

}  // namespace tslrw

#endif  // TSLRW_OEM_TERM_H_
