#ifndef TSLRW_TSL_CANONICAL_H_
#define TSLRW_TSL_CANONICAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tsl/ast.h"

namespace tslrw {

/// \brief The canonical form of a TSL query, used as a plan-cache key by the
/// serving layer: two α-equivalent queries (same rule up to consistent
/// variable renaming and body-condition reordering) canonicalize to
/// byte-identical keys, so they share one cached rewriting-plan list.
///
/// Soundness: `query` is α-equivalent to the input by construction (it is
/// the input with conditions re-sorted and variables renamed), so equal keys
/// always denote α-equivalent queries — a collision can never serve the
/// wrong plans. Completeness is best-effort: for adversarially symmetric
/// bodies (condition canonicalization is graph-canonicalization-shaped) two
/// α-equivalent inputs may, in theory, keep distinct keys, which costs a
/// redundant plan computation and nothing else.
struct CanonicalForm {
  /// The renamed, re-sorted query. Name and source spans are cleared (they
  /// are presentation, not semantics); variables are `O0, O1, ...`
  /// (object-id sort) and `C0, C1, ...` (label/value sort) in first-occurrence
  /// order over head-then-body.
  TslQuery query;
  /// The byte key: `query.ToString()`. Equal keys <=> byte-identical
  /// canonical renderings.
  std::string key;
  /// Stable 64-bit fingerprint of `key` (FNV-1a): identical across runs,
  /// platforms, and processes, unlike std::hash. Used to pick a cache shard.
  uint64_t fingerprint = 0;
};

/// \brief Canonicalizes \p query: sorts body conditions by a
/// variable-name-blind shape, renames variables in first-occurrence order,
/// then refines (re-sort by full rendering, re-rename) to a fixpoint.
/// Deterministic for a given input; α-equivalent inputs converge to the same
/// key in all non-pathological cases (and Q1-style head/body renamings and
/// condition permutations always do).
CanonicalForm CanonicalizeQuery(const TslQuery& query);

/// \brief As above, but additionally reports the composed variable renaming
/// from the input query's variables to their canonical `O<i>`/`C<i>` names.
/// Lets callers translate per-variable annotations kept *outside* the query
/// (e.g. a capability's bound-variable set) into the canonical alphabet, so
/// those annotations become α-invariant too. Every variable of the input
/// appears as a key in \p renaming.
CanonicalForm CanonicalizeQuery(const TslQuery& query,
                                std::map<Term, Term>* renaming);

/// \brief The α-key of one pattern or condition: equal keys exactly when
/// the two are equal up to a sort-preserving renaming of their variables.
///
/// One walk in match order (oid, label, step, value, members) spells the
/// input with each variable replaced by its sort and first-occurrence
/// index; a condition's key then appends `@` and the source. Atoms and
/// functors are length-prefixed and every field is tagged, so the key is
/// injective whatever bytes an atom holds. Unlike CanonicalizeQuery this
/// is linear in the input and never reorders: it keys one condition (or a
/// head) on its own, and callers that key a whole rule combine the parts
/// with `vars`, which maps each first-occurrence index back to the
/// variable it stands for.
struct AlphaKey {
  /// The distinct variables, in first-occurrence order.
  std::vector<Term> vars;
  std::string key;
};

AlphaKey AlphaKeyOf(const ObjectPattern& pattern);
AlphaKey AlphaKeyOf(const Condition& condition);

/// \brief FNV-1a 64-bit hash. Stable across processes by construction —
/// cache keys, shard choices, and recorded fingerprints must not depend on
/// the standard library's per-process hash seeding.
uint64_t StableFingerprint(std::string_view bytes);

}  // namespace tslrw

#endif  // TSLRW_TSL_CANONICAL_H_
