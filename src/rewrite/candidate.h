#ifndef TSLRW_REWRITE_CANDIDATE_H_
#define TSLRW_REWRITE_CANDIDATE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/result.h"
#include "rewrite/rewriter.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief One building block for Step 1B candidate bodies: an instantiated
/// view head θ(head(V)) or an original query condition, plus the set of
/// query-body conditions it "covers" (the \S3.4 heuristic's bookkeeping).
struct CandidateAtom {
  Condition condition;
  std::set<size_t> covers;
  bool is_view = false;
};

/// \brief Step 1A + atom assembly: discovers all containment mappings from
/// each (chased) view body into the (chased) query body and materializes
/// one view atom per mapping, followed by one atom per query condition.
/// \p mappings_found, if non-null, receives the total mapping count.
///
/// With \p allow_partial_mappings, view body paths may stay unmapped
/// (BodyMapping::kUnmapped): the instantiated head then keeps unbound view
/// variables, which is the extra freedom the maximally-contained rewriting
/// search needs (an over-restrictive view is still a sound source of
/// contained answers). View variables are renamed apart per view in that
/// mode, so leftovers never capture query variables.
Result<std::vector<CandidateAtom>> BuildCandidateAtoms(
    const TslQuery& chased_query, const std::vector<TslQuery>& chased_views,
    size_t* mappings_found, bool allow_partial_mappings = false);

/// \brief Step 1B enumeration: subsets of atoms of size 1..k (Lemma 5.2),
/// shortest first, subject to (i) at least one view atom, (ii)
/// `options.require_total` excludes query-condition atoms, (iii) the cover
/// heuristic, when enabled, demands the union of covers equal the whole
/// query body.
class CandidateEnumerator {
 public:
  CandidateEnumerator(std::vector<CandidateAtom> atoms,
                      size_t num_query_conditions,
                      const RewriteOptions& options)
      : atoms_(std::move(atoms)),
        num_query_conditions_(num_query_conditions),
        options_(options) {
    // The cover bookkeeping is precompiled to one bitmask per atom when
    // the query body fits in one word (it essentially always does; Lemma
    // 5.2 bounds useful candidates by the body size), plus, for the walk's
    // pruning, the OR and the widest of the masks from each index on.
    const size_t n = atoms_.size();
    view_from_.assign(n + 1, false);
    for (size_t i = n; i-- > 0;) {
      view_from_[i] = view_from_[i + 1] || atoms_[i].is_view;
    }
    if (num_query_conditions_ <= 64) {
      cover_masks_.reserve(n);
      for (const CandidateAtom& atom : atoms_) {
        uint64_t mask = 0;
        for (size_t c : atom.covers) mask |= uint64_t{1} << c;
        cover_masks_.push_back(mask);
      }
      cover_from_.assign(n + 1, 0);
      widest_from_.assign(n + 1, 0);
      for (size_t i = n; i-- > 0;) {
        const uint64_t mask = Eligible(i) ? cover_masks_[i] : 0;
        cover_from_[i] = cover_from_[i + 1] | mask;
        widest_from_[i] = std::max<size_t>(widest_from_[i + 1],
                                           std::popcount(mask));
      }
      full_cover_mask_ = num_query_conditions_ == 64
                             ? ~uint64_t{0}
                             : (uint64_t{1} << num_query_conditions_) - 1;
    }
  }

  const std::vector<CandidateAtom>& atoms() const { return atoms_; }

  /// Invokes \p fn on each admissible atom-index subset, in order of size
  /// and then lexicographically, until \p fn returns false or
  /// `options.max_candidates` subsets have been emitted. `should_stop` is
  /// polled once before each emission. Returns whether enumeration ran to
  /// completion.
  template <typename Fn>
  bool Enumerate(Fn fn) const {
    std::vector<size_t> chosen;
    size_t emitted = 0;
    bool complete = true;
    for (size_t len = 1; len <= num_query_conditions_ && complete; ++len) {
      complete = EnumerateLen(len, 0, 0, false, &chosen, &emitted, fn);
    }
    return complete;
  }

  /// Whether \p chosen (sorted atom indices) satisfies (i)-(iii).
  bool Admissible(const std::vector<size_t>& chosen) const;

 private:
  /// Extends \p chosen (whose covers OR to \p covered, and which holds a
  /// view atom iff \p has_view) with atoms from \p start on, up to \p len
  /// atoms. A subtree is entered only if its leaves can still be
  /// admissible: enough atoms remain, a view atom is chosen or remains,
  /// and under the cover heuristic the remaining atoms' covers can
  /// complete the cover, both together and within the atoms still to be
  /// picked. Every skipped subtree holds no admissible leaf,
  /// so the emitted sequence, the max_candidates cut and the should_stop
  /// polls are those of the full lattice walk.
  template <typename Fn>
  bool EnumerateLen(size_t len, size_t start, uint64_t covered, bool has_view,
                    std::vector<size_t>* chosen, size_t* emitted,
                    Fn fn) const {
    if (chosen->size() == len) {
      if (!Admissible(*chosen)) return true;
      if (*emitted >= options_.max_candidates) return false;
      if (options_.should_stop && options_.should_stop()) return false;
      ++*emitted;
      return fn(*chosen);
    }
    const size_t need = len - chosen->size();
    if (atoms_.size() - start < need) return true;
    if (!has_view && !view_from_[start]) return true;
    if (options_.use_cover_heuristic && !cover_masks_.empty()) {
      const uint64_t missing = full_cover_mask_ & ~covered;
      if ((missing & ~cover_from_[start]) != 0 ||
          static_cast<size_t>(std::popcount(missing)) >
              need * widest_from_[start]) {
        return true;
      }
    }
    for (size_t i = start; i + need <= atoms_.size(); ++i) {
      if (!Eligible(i)) continue;
      chosen->push_back(i);
      bool keep_going = EnumerateLen(
          len, i + 1, covered | (cover_masks_.empty() ? 0 : cover_masks_[i]),
          has_view || atoms_[i].is_view, chosen, emitted, fn);
      chosen->pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// Whether atom \p i may be chosen at all: `require_total` rules out
  /// query-condition atoms.
  bool Eligible(size_t i) const {
    return !options_.require_total || atoms_[i].is_view;
  }

  std::vector<CandidateAtom> atoms_;
  size_t num_query_conditions_;
  const RewriteOptions& options_;
  /// view_from_[i]: some atom at index >= i is a view atom.
  std::vector<bool> view_from_;
  /// One cover bitmask per atom; cover_from_[i] and widest_from_[i], the
  /// OR and the largest popcount of the masks of the eligible atoms at
  /// index >= i. All empty when the body exceeds 64 conditions (Admissible
  /// then falls back to set union, and the walk does not prune on covers).
  std::vector<uint64_t> cover_masks_;
  std::vector<uint64_t> cover_from_;
  std::vector<size_t> widest_from_;
  uint64_t full_cover_mask_ = 0;
};

}  // namespace tslrw

#endif  // TSLRW_REWRITE_CANDIDATE_H_
