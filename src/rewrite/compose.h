#ifndef TSLRW_REWRITE_COMPOSE_H_
#define TSLRW_REWRITE_COMPOSE_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "rewrite/substitution.h"
#include "tsl/ast.h"

namespace tslrw {

class ComposeCache;

/// \brief Query–view composition (\S3.1 Step 2A): given a rewriting query
/// Q' whose body refers to views by name, substitutes each `@View`
/// condition by the view's body, unifying the condition's path against the
/// view's head ("extending resolution and unification for semistructured
/// data").
///
/// Mechanics per `@View` path condition:
///  - steps unify top-down against the view head tree; a step descending
///    into a head set value may unify with *any* member, so one condition
///    can yield several resolvents — the result is therefore a union of
///    rules (TSL rule sets are closed under composition, unlike MSL/StruQL,
///    \S6);
///  - a path reaching a head position whose value is a view (copy)
///    variable pushes its remaining steps below that variable into the view
///    body (a set binding), expressing that the copied source subgraph must
///    contain the rest of the path;
///  - a path *tail* variable landing on a head set value is bound to that
///    set pattern; on a head term it unifies with it.
///
/// Unification is oriented view-head term against condition term, so a
/// view variable meeting a rewriting variable is bound to it: composed
/// rules keep the rewriting's variable names wherever the unifier allows.
///
/// View body variables are renamed apart per resolved condition (one
/// instance per ComposeCache entry), so two conditions over one view join
/// only where the unifiers force them to (see (V1)o(Q4)n in Example 3.1,
/// whose two conditions yield X'/X'' and leland-constrained copies).
///
/// A rule's view conditions are resolved in body order. A condition whose
/// unifiers all bind only its own view instance's variables ("local",
/// the common case) touches nothing else in the rule, so a leading run of
/// such conditions is resolved at once: the rule's head and remaining
/// conditions stay as they are, the chosen instantiated view bodies are
/// appended in condition order, and the result is normalized once (one
/// rule per combination of unifiers). A condition with a non-local unifier
/// — one that binds a rule variable (Example 3.1's `P` meeting `f(X')`) or
/// sets a rule variable's value (a tail variable landing on a head set) —
/// is resolved on its own: the unifier is applied to the whole rule, which
/// goes back on the work list, as are resolvents whose pulled-in bodies
/// refer to further views. This keeps the \S3.2 set-binding semantics of
/// Examples 3.2 and 3.4 exact.
///
/// Conditions over sources that are not in \p views pass through untouched.
/// Resolvents with no unifier are dropped; if nothing survives, the result
/// is the empty rule set (a query that returns nothing).
///
/// Each call composes with a ComposeCache of its own, so every caller
/// runs the same algorithm; the overload below shares one across calls.
Result<TslRuleSet> ComposeWithViews(const TslQuery& rewriting,
                                    const std::vector<TslQuery>& views);

/// \brief As above, against the views \p cache was made over, reusing its
/// memoized resolvents.
Result<TslRuleSet> ComposeWithViews(const TslQuery& rewriting,
                                    ComposeCache* cache);

/// \brief Rule-set overload: composes each rule and unions the results.
Result<TslRuleSet> ComposeWithViews(const TslRuleSet& rewriting,
                                    const std::vector<TslQuery>& views);

/// \brief Memo of resolvents per distinct view condition, for repeated
/// compositions against one fixed view list (every candidate of one
/// rewriting search is built from the same few view atoms).
///
/// An entry is keyed by the exact condition. On first use it renames the
/// view apart once, with a fresh instance suffix `_i<N>` from the cache's
/// counter, unifies the condition's path with that instance's head once,
/// and stores, per unifier, the instantiated view body and whether the
/// unifier is local to the instance. Every later rule holding the same
/// condition reuses the entry, instance variables included: rule
/// variables are rule-scoped, and a condition met twice in one derivation
/// (a view over a view re-deriving it) folds into the same instance, which
/// leaves the union of rules equivalent.
///
/// The cache is made over one view list, which it indexes by name on its
/// first use, so a search builds that index once, not once per candidate,
/// and no call can pair the cache with another list.
///
/// Not thread-safe: the verification loop keeps one per search.
class ComposeCache {
 public:
  /// A cache over \p views, which must outlive it.
  explicit ComposeCache(const std::vector<TslQuery>& views) : views_(views) {}
  explicit ComposeCache(std::vector<TslQuery>&&) = delete;  // would dangle

  /// Distinct (condition, view) pairs resolved so far.
  size_t size() const { return entries_.size(); }

 private:
  friend Result<TslRuleSet> ComposeWithViews(const TslQuery&, ComposeCache*);

  /// One unifier of the condition's path with the instance's head.
  struct Resolvent {
    Substitution unifier;
    /// The unifier applied to the instance's body.
    std::vector<Condition> body;
    /// Some condition of `body` is over a view (a view over a view).
    bool refers_to_views = false;
  };

  struct Entry {
    std::vector<Resolvent> resolvents;
    /// Every unifier binds (or sets the value of) only this instance's
    /// variables.
    bool local = true;
  };

  /// Indexes the views by name on the first call.
  void IndexViews();
  bool IsView(const std::string& source) const {
    return view_at_.count(source) > 0;
  }

  /// The entry of \p condition, whose source is a view, computed on first
  /// use. Fails on a regular path step.
  Result<const Entry*> Lookup(const Condition& condition);

  const std::vector<TslQuery>& views_;
  std::unordered_map<Condition, Entry, ConditionHash> entries_;
  int instances_ = 0;
  bool indexed_ = false;
  std::unordered_map<std::string, size_t> view_at_;  // name -> index
};

}  // namespace tslrw

#endif  // TSLRW_REWRITE_COMPOSE_H_
