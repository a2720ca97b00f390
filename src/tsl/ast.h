#ifndef TSLRW_TSL_AST_H_
#define TSLRW_TSL_AST_H_

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/source_span.h"
#include "oem/term.h"

namespace tslrw {

struct ObjectPattern;

/// A set value pattern `{ <o1> ... <on> }` (\S2). Under the paper's subset
/// semantics a set pattern requires the matched object to be set-valued and
/// to contain a (not necessarily distinct-id) match for each member; the
/// object "may also have other subobjects".
using SetPattern = std::vector<ObjectPattern>;

/// \brief The value field of an object pattern: either a term (variable,
/// atomic constant, or function term) or a set pattern (possibly empty).
class PatternValue {
 public:
  /// A term value. Atomic constants, label/value variables, or (in heads)
  /// function terms.
  static PatternValue FromTerm(Term t);
  /// A set pattern `{...}`; an empty set pattern matches any set object.
  static PatternValue FromSet(SetPattern members);

  /// Default: the empty set pattern.
  PatternValue() = default;

  bool is_term() const { return term_.has_value(); }
  bool is_set() const { return !is_term(); }

  const Term& term() const { return *term_; }
  const SetPattern& set() const { return members_; }
  SetPattern& mutable_set() { return members_; }

  std::string ToString() const;

  friend bool operator==(const PatternValue& a, const PatternValue& b);
  friend bool operator!=(const PatternValue& a, const PatternValue& b) {
    return !(a == b);
  }
  friend bool operator<(const PatternValue& a, const PatternValue& b);

 private:
  std::optional<Term> term_;
  SetPattern members_;
};

/// \brief How an object pattern is reached from its parent — plain TSL
/// uses only kChild; the other two are the regular-path-expression
/// extension the paper defers to future work (\S7), supported by the
/// evaluator (and rejected, explicitly, by the rewriting pipeline).
enum class StepKind : uint8_t {
  /// A direct subobject (`<Y l V>`), the \S2 semantics.
  kChild,
  /// `<Y l+ V>`: Y is reached through one or more edges into l-labeled
  /// objects (a chain parent -> o1 -> ... -> ok = Y, every oi labeled l).
  kClosure,
  /// `<Y ** V>`: Y is any proper descendant of the parent, through any
  /// labels; the label field is the unused sentinel atom `**`.
  kDescendant,
};

/// \brief An object pattern `<oid label value>` (\S2).
///
/// In query bodies the oid field is an object-id variable or a ground oid;
/// in heads it is a function term over body variables (a Skolem id). The
/// label is an atom or a label variable. The value is a PatternValue.
struct ObjectPattern {
  Term oid;
  Term label;
  PatternValue value;
  /// Edge semantics from the enclosing pattern; meaningful only for
  /// members of set patterns in bodies (top-level conditions and heads are
  /// always kChild).
  StepKind step = StepKind::kChild;
  /// Position of the pattern's opening `<` in the text it was parsed from;
  /// unknown (invalid) for programmatically built patterns. Ignored by
  /// equality/ordering; preserved by substitution and re-sorting so
  /// diagnostics can point into the original rule text.
  SourceSpan span = {};

  std::string ToString() const;

  /// Inserts all variables in oid/label/value (recursively) into \p out.
  void CollectVariables(std::set<Term>* out) const;

  friend bool operator==(const ObjectPattern& a, const ObjectPattern& b);
  friend bool operator!=(const ObjectPattern& a, const ObjectPattern& b) {
    return !(a == b);
  }
  friend bool operator<(const ObjectPattern& a, const ObjectPattern& b);
};

/// \brief One body condition: an object pattern to be matched against the
/// roots of a named source (`<...>@db`).
struct Condition {
  ObjectPattern pattern;
  /// Source (database or view) name following '@'. TSL queries may refer to
  /// more than one source (\S2).
  std::string source;

  std::string ToString() const;

  friend bool operator==(const Condition& a, const Condition& b) {
    return a.source == b.source && a.pattern == b.pattern;
  }
  friend bool operator<(const Condition& a, const Condition& b) {
    if (a.source != b.source) return a.source < b.source;
    return a.pattern < b.pattern;
  }
};

/// \brief A TSL query (equivalently, a TSL view definition): a head object
/// pattern and a conjunctive body, `head :- cond1 AND ... AND condk` (\S2).
struct TslQuery {
  /// Rule name; for views this is also the source name the rewritten query
  /// uses after '@'.
  std::string name;
  ObjectPattern head;
  std::vector<Condition> body;
  /// Position of the rule's first token (the `(Name)` prefix if present,
  /// else the head's `<`); unknown for programmatic rules. Ignored by
  /// equality.
  SourceSpan span = {};

  std::string ToString() const;

  /// Variables of the head / of the body.
  std::set<Term> HeadVariables() const;
  std::set<Term> BodyVariables() const;

  /// Names of every source mentioned in the body.
  std::set<std::string> Sources() const;

  friend bool operator==(const TslQuery& a, const TslQuery& b) {
    return a.head == b.head && a.body == b.body;
  }
};

/// \brief A union of TSL rules contributing to one answer graph.
///
/// Single TSL rules are the paper's queries; rule sets arise from query-view
/// composition (\S3.1 Step 2A), whose resolution step can produce one rule
/// per unifier. The \S4 equivalence test is defined on the union of the
/// rules' graph-component decompositions, so rule sets are first-class here.
struct TslRuleSet {
  std::vector<TslQuery> rules;

  std::string ToString() const;

  static TslRuleSet Single(TslQuery q) { return TslRuleSet{{std::move(q)}}; }
};

/// \brief Structural hashes consistent with `==`: of a pattern, of a
/// condition, and of a rule (head and body; not the name or the span).
size_t HashPattern(const ObjectPattern& pattern);
size_t HashCondition(const Condition& condition);
size_t HashRule(const TslQuery& rule);

/// \brief HashCondition as a hasher, for unordered containers keyed by
/// exact conditions.
struct ConditionHash {
  size_t operator()(const Condition& condition) const {
    return HashCondition(condition);
  }
};

/// \brief Renders `<oid label value>` patterns, conditions, and rules in the
/// paper's concrete syntax; inverse of ParseTslQuery.
std::string ToString(const SetPattern& set);

/// \brief Applies a term-level substitution to every term in the pattern
/// (oid, label, terms in values, recursively).
ObjectPattern ApplyTermSubstitution(const TermSubstitution& subst,
                                    const ObjectPattern& pattern);
TslQuery ApplyTermSubstitution(const TermSubstitution& subst,
                               const TslQuery& query);

/// \brief Renames every variable of \p query by appending \p suffix,
/// preserving sorts. Used to keep view-body variables apart from the
/// rewriting's variables during composition (each view instantiation gets
/// its own variable space).
TslQuery RenameVariablesApart(const TslQuery& query,
                              const std::string& suffix);

/// \brief Returns \p query with every unannotated body condition qualified
/// by \p source.
TslQuery WithDefaultSource(TslQuery query, const std::string& source);

}  // namespace tslrw

#endif  // TSLRW_TSL_AST_H_
