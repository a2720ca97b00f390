#ifndef TSLRW_REWRITE_ALPHA_IDS_H_
#define TSLRW_REWRITE_ALPHA_IDS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tsl/ast.h"

namespace tslrw {

/// \brief One rewriting search's table of heads and conditions, with their
/// α-keys (AlphaKeyOf) and variables interned to dense ids, and the rule
/// fingerprints built from them.
///
/// The verification memos key candidates and composed rule sets by vectors
/// of these ids instead of by rendered strings, so a probe hashes a few
/// dozen integers. α-ids are injective over the α-keys, and AlphaKeyOf is
/// injective up to renaming, so equal α-ids mean α-equal parts. Each exact
/// part is rendered once: a search's candidates and composed rules are
/// built from the same few atoms and resolvents, so later meetings only
/// hash it. The memos are shared by every worker of a search, so the table
/// is too: it takes a lock, held only to find or insert an entry (hashing
/// and rendering happen outside it). Ids are comparable only within one
/// table.
class AlphaIdTable {
 public:
  /// What the table knows of one exact condition (or head).
  struct Part {
    uint32_t exact = 0;  // equal conditions, equal ids
    uint32_t alpha = 0;  // α-equal conditions, equal ids
    std::vector<uint32_t> vars;  // distinct variables' ids, α-key order
  };

  /// The entry of \p condition (or \p head), made on first use.
  /// Thread-safe; the reference lives as long as the table.
  const Part& Of(const Condition& condition);
  const Part& Of(const ObjectPattern& head);

  /// The fingerprint of the rule \p head :- \p body (body in body order):
  /// the head's α-id, the body size, the body's α-ids sorted (ties keep
  /// body order), and the wiring, i.e. the first-occurrence index, over
  /// (head, sorted body), of each part's variables in its α-key order.
  /// Equal fingerprints imply the rules are equal up to renaming their
  /// variables and reordering their bodies: the α-ids give each part's
  /// renaming and the wiring makes them one bijection. α-equal rules can
  /// still get distinct fingerprints (parts with equal α-ids keep their
  /// body order, which may wire them differently); a memo miss of that
  /// kind only costs one verification.
  static std::vector<uint32_t> Fingerprint(
      const Part& head, const std::vector<const Part*>& body);

  /// The verdict-memo key of a composed rule set: the rules' fingerprints
  /// sorted and concatenated behind their lengths. Rule names are left
  /// out, so equal keys imply the rule sets are equal up to renaming each
  /// rule's variables and reordering bodies and rules, and get one \S4
  /// verdict. Thread-safe.
  std::vector<uint32_t> VerdictKey(const TslRuleSet& rules);

 private:
  /// A lookup key carrying its hash, computed before the lock is taken.
  template <typename T>
  struct Probe {
    const T* value;
    size_t hash;
  };
  struct PartHash {
    using is_transparent = void;
    size_t operator()(const Condition& c) const { return HashCondition(c); }
    size_t operator()(const ObjectPattern& p) const { return HashPattern(p); }
    template <typename T>
    size_t operator()(const Probe<T>& probe) const { return probe.hash; }
  };
  struct PartEq {
    using is_transparent = void;
    template <typename T>
    bool operator()(const T& a, const T& b) const { return a == b; }
    template <typename T>
    bool operator()(const Probe<T>& a, const T& b) const {
      return *a.value == b;
    }
    template <typename T>
    bool operator()(const T& a, const Probe<T>& b) const {
      return a == *b.value;
    }
  };
  template <typename T>
  using Table = std::unordered_map<T, Part, PartHash, PartEq>;

  /// The entry of \p part in \p table, made on first use.
  template <typename T>
  const Part& Intern(Table<T>& table, const T& part);

  // All guarded by mu_. Entries are never changed or erased, and
  // unordered_map nodes stay put, so a Part may be read without the lock.
  std::mutex mu_;
  std::unordered_map<std::string, uint32_t> alpha_ids_;
  std::unordered_map<Term, uint32_t, TermHash> var_ids_;
  Table<ObjectPattern> heads_;
  Table<Condition> conditions_;
};

}  // namespace tslrw

#endif  // TSLRW_REWRITE_ALPHA_IDS_H_
