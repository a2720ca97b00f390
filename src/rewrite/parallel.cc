#include "rewrite/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "rewrite/alpha_ids.h"
#include "rewrite/compose.h"
#include "rewrite/view_index.h"
#include "tsl/canonical.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Observes the microseconds since \p start into \p hist and adds them to
/// \p total (null \p hist: no-op).
void ObserveSince(Histogram* hist, SteadyClock::time_point start,
                  uint64_t* total) {
  if (hist == nullptr) return;
  const auto us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
  hist->Observe(us);
  *total += us;
}

/// How one candidate's verification ended: the decision points of the
/// Step 1C/2 ladder (safety, chase, composition, \S4 test). Candidates
/// with byte-identical bodies share one outcome.
struct Outcome {
  enum class Stage {
    kUnsafe,      // a head variable occurs in no chosen atom: skipped,
                  // never tested
    kChaseUnsat,  // candidate chase unsatisfiable: skipped, never tested
    kChaseError,  // hard chase error: fails before candidates_tested
    kLateError,   // compose/equivalence error: fails after candidates_tested
    kVerdict,     // tested; `passes` holds the \S4 test's answer
  };
  Stage stage = Stage::kVerdict;
  bool passes = false;
  Status error;
};

/// FNV-1a over interned-id vectors; the memo tables are hash maps because
/// their keys share long common prefixes (α-isomorphic candidates differ
/// only near the end), which makes ordered-map probes degenerate into
/// repeated full-key comparisons.
struct U32VecHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 14695981039346656037ull;
    for (uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Whether some accepted set is a subset of \p chosen (both sorted
/// ascending — `chosen` by enumeration construction, accepted entries
/// because they are former `chosen`s).
bool Dominated(const std::vector<std::vector<size_t>>& accepted,
               const std::vector<size_t>& chosen) {
  for (const std::vector<size_t>& prior : accepted) {
    if (std::includes(chosen.begin(), chosen.end(), prior.begin(),
                      prior.end())) {
      return true;
    }
  }
  return false;
}

/// Memo keys are *cheap α-sound* fingerprints, not the full canonical form
/// (src/tsl/canonical): CanonicalizeQuery costs about as much as the
/// \S4 test it would save (it is graph canonicalization), which
/// would cancel the sharing win on the very workloads the memo targets.
/// Instead each condition contributes its α-key (AlphaKeyOf, exact up to
/// renaming inside that condition), interned to an id in the search's
/// AlphaIdTable; the ids are sorted, and the *wiring* joins them: the
/// first-occurrence index, over (head, sorted conditions), of each
/// condition's distinct variables in its own key order. Equal keys imply
/// the rules are α-isomorphic (the per-condition ids give each condition's
/// renaming and the wiring makes them one bijection), so equal keys imply
/// equal verification outcomes — soundness. α-equivalent rules can still
/// get distinct keys (two conditions with equal α-keys sort by body
/// position, which may wire them differently); such a miss merely costs
/// one full verification. AlphaIdTable::Fingerprint is the one
/// implementation of this format.
///
/// The same idea is applied at two levels. The *candidate* memo keys the
/// whole verification outcome (chase-unsatisfiable or the \S4 verdict) on
/// the candidate rule before any work runs: every candidate shares the one
/// query head, so α-isomorphic bodies verify identically, and a hit skips
/// chase, composition, and the \S4 test outright. Its per-atom
/// parts are interned once at pipeline construction, so the per-candidate
/// key is a sort and a few integer writes. The *verdict* memo
/// (AlphaIdTable::VerdictKey) catches candidates whose bodies differ
/// structurally but compose to α-isomorphic rule sets; it fingerprints
/// each composed rule and sorts the rules' keys. Both levels draw ids from
/// the search's one table.
/// Hard errors are never memoized at either level: an error must re-run so
/// it surfaces with exactly the bytes an unmemoized verification of that
/// candidate produces.

/// `<query>_rw` or `<query>_mc`, the prefix every candidate's name extends
/// with its 1-based emission number.
std::string NamePrefix(const std::string& query_name, CandidateTest test) {
  const bool equivalent = test == CandidateTest::kEquivalent;
  if (query_name.empty()) return equivalent ? "rewriting_rw" : "contained_mc";
  return query_name + (equivalent ? "_rw" : "_mc");
}

/// The verification loop's state for one search. Each emitted candidate is
/// verified and committed before the next is emitted, so the dominance
/// check sees exactly the accepted sets the plain reference loop
/// (src/testing) sees, and no candidate it prunes is ever verified.
class Pipeline {
 public:
  Pipeline(const TslQuery& chased_query,
           const std::vector<TslQuery>& chased_views,
           const std::vector<CandidateAtom>& atoms,
           const ChaseOptions& chase_options, const EquivalenceTester& tester,
           CandidateTest test, const RewriteOptions& options,
           RewriteResult* result)
      : atoms_(atoms),
        chase_options_(chase_options),
        tester_(tester),
        test_(test),
        options_(options),
        result_(result),
        head_(chased_query.head),
        name_prefix_(NamePrefix(chased_query.name, test)),
        compose_cache_(chased_views) {
    head_part_ = &alpha_ids_.Of(head_);
    InternAtoms();
    if (options.metrics != nullptr) {
      chase_us_ = options.metrics->GetHistogram("rewrite.phase.chase_us");
      compose_us_ = options.metrics->GetHistogram("rewrite.phase.compose_us");
      equiv_us_ = options.metrics->GetHistogram("rewrite.phase.equiv_us");
    }
  }

  /// The CandidateEnumerator callback: dominance, the dedupe of identical
  /// bodies, verification (Verify), then commit. Returns false to stop the
  /// enumeration (a hard error committed).
  bool OnCandidate(const std::vector<size_t>& chosen) {
    const size_t seq = ++result_->candidates_generated;
    // Discarded before any of its outcome is examined.
    if (options_.prune_dominated && Dominated(accepted_, chosen)) return true;

    std::vector<uint32_t> body_key;
    body_key.reserve(chosen.size());
    for (size_t i : chosen) body_key.push_back(atom_info_[i].part->exact);
    auto [it, fresh] = body_outcomes_.try_emplace(std::move(body_key));
    if (fresh) it->second = Verify(chosen, seq);

    const Outcome& outcome = it->second;
    switch (outcome.stage) {
      case Outcome::Stage::kUnsafe:
      case Outcome::Stage::kChaseUnsat:
        return true;
      case Outcome::Stage::kChaseError:
        failure_ = outcome.error;
        return false;
      case Outcome::Stage::kLateError:
        ++result_->candidates_tested;
        failure_ = outcome.error;
        return false;
      case Outcome::Stage::kVerdict:
        ++result_->candidates_tested;
        if (outcome.passes) {
          if (options_.prune_dominated) accepted_.push_back(chosen);
          result_->rewritings.push_back(Candidate(chosen, seq));
        }
        return true;
    }
    return true;
  }

  /// The first hard error, or OK.
  const Status& failure() const { return failure_; }
  /// The sum of the timed chase, compose and \S4 steps' samples.
  uint64_t step_us() const { return step_us_; }

 private:
  /// Per-atom key material interned once at construction so the
  /// per-candidate keys are integer appends, not renders.
  struct AtomKeyInfo {
    const AlphaIdTable::Part* part = nullptr;  // ids of the condition
    std::vector<uint32_t> head_slots;  // positions in the head's vars
  };

  /// A completed, error-free verification outcome, shared across
  /// α-isomorphic candidates.
  struct CandidateOutcome {
    bool unsat = false;
    bool passes = false;
  };

  struct ChaseEntry {
    bool unsat = false;
    std::shared_ptr<const TslQuery> chased;  // null when unsat
  };

  void InternAtoms() {
    const std::vector<uint32_t>& head_vars = head_part_->vars;
    atom_info_.reserve(atoms_.size());
    for (const CandidateAtom& atom : atoms_) {
      AtomKeyInfo info;
      info.part = &alpha_ids_.Of(atom.condition);
      for (uint32_t var : info.part->vars) {
        auto at = std::find(head_vars.begin(), head_vars.end(), var);
        if (at != head_vars.end()) {
          info.head_slots.push_back(
              static_cast<uint32_t>(at - head_vars.begin()));
        }
      }
      atom_info_.push_back(std::move(info));
    }
    head_seen_.assign(head_vars.size(), 0);
  }

  /// The candidate over \p chosen, named by its emission number \p seq.
  TslQuery Candidate(const std::vector<size_t>& chosen, size_t seq) const {
    TslQuery candidate;
    candidate.name = name_prefix_ + std::to_string(seq);
    candidate.head = head_;  // Lemma 5.4
    candidate.body.reserve(chosen.size());
    for (size_t i : chosen) candidate.body.push_back(atoms_[i].condition);
    return candidate;
  }

  /// CheckSafety of the candidate over \p chosen, from the interned
  /// variables: every head variable occurs in some chosen atom.
  bool Safe(const std::vector<size_t>& chosen) {
    ++epoch_;
    size_t bound = 0;
    for (size_t i : chosen) {
      for (uint32_t slot : atom_info_[i].head_slots) {
        if (head_seen_[slot] != epoch_) {
          head_seen_[slot] = epoch_;
          ++bound;
        }
      }
    }
    return bound == head_seen_.size();
  }

  /// The candidate-level memo key: the fingerprint of the candidate rule
  /// (AlphaIdTable::Fingerprint), body in enumeration order. Equal keys
  /// exhibit an α-isomorphism that fixes the (shared) head, so equal keys
  /// imply equal chase satisfiability and equal \S4 verdicts.
  std::vector<uint32_t> CandidateKey(const std::vector<size_t>& chosen) const {
    std::vector<const AlphaIdTable::Part*> body;
    body.reserve(chosen.size());
    for (size_t i : chosen) body.push_back(atom_info_[i].part);
    return AlphaIdTable::Fingerprint(*head_part_, body);
  }

  /// Safety, then the candidate memo, chase, composition and \S4 test for
  /// the candidate over \p chosen, named by \p seq. Each step that
  /// actually runs is timed into its rewrite.phase.*_us histogram; a memo
  /// hit observes nothing. Hard-error Statuses are never cached: an error
  /// must surface with the exact message an unmemoized verification of
  /// this candidate produces.
  Outcome Verify(const std::vector<size_t>& chosen, size_t seq) {
    Outcome out;
    if (!Safe(chosen)) {
      out.stage = Outcome::Stage::kUnsafe;
      return out;
    }
    std::vector<uint32_t> alpha_key = CandidateKey(chosen);
    auto memo = candidate_memo_.find(alpha_key);
    if (memo != candidate_memo_.end()) {
      // An α-isomorphic candidate was verified already.
      if (memo->second.unsat) {
        out.stage = Outcome::Stage::kChaseUnsat;
        ++result_->chase_cache_hits;
      } else {
        out.passes = memo->second.passes;
        ++result_->equiv_cache_hits;
      }
      return out;
    }
    const TslQuery candidate = Candidate(chosen, seq);
    // Step 1C through the chase memo. The key is the candidate body's
    // canonical fingerprint (src/tsl/canonical) — α-invariant, like the
    // chase outcome (success/unsat and the result modulo renaming); the
    // stored query keeps the *first* computer's name, which composition
    // carries into rule names — the verdict, the only consumer, is
    // name-blind. The memo engages only under structural constraints:
    // without them the chase is a cheap normalization pass that costs less
    // than its canonical fingerprint, and identical bodies are already
    // deduped.
    const bool use_chase_memo = chase_options_.constraints != nullptr;
    std::shared_ptr<const TslQuery> chased;
    bool chase_unsat = false;
    bool have_entry = false;
    std::string candidate_key;
    if (use_chase_memo) {
      candidate_key = CanonicalizeQuery(candidate).key;
      auto it = chase_memo_.find(candidate_key);
      if (it != chase_memo_.end()) {
        ++result_->chase_cache_hits;
        chase_unsat = it->second.unsat;
        chased = it->second.chased;
        have_entry = true;
      }
    }
    if (!have_entry) {
      const auto start = SteadyClock::now();
      Result<TslQuery> fresh = ChaseQuery(candidate, chase_options_);
      ObserveSince(chase_us_, start, &step_us_);
      if (fresh.ok()) {
        chased = std::make_shared<const TslQuery>(std::move(fresh).value());
      } else if (fresh.status().IsUnsatisfiable()) {
        chase_unsat = true;
      } else {
        out.stage = Outcome::Stage::kChaseError;
        out.error = fresh.status();
        return out;
      }
      if (use_chase_memo) {
        chase_memo_.emplace(std::move(candidate_key),
                            ChaseEntry{chase_unsat, chased});
      }
    }
    if (chase_unsat) {
      out.stage = Outcome::Stage::kChaseUnsat;
      candidate_memo_.emplace(std::move(alpha_key),
                              CandidateOutcome{true, false});
      return out;
    }

    // Step 2 through the search's compose cache and the verdict memo.
    auto start = SteadyClock::now();
    Result<TslRuleSet> composed = ComposeWithViews(*chased, &compose_cache_);
    ObserveSince(compose_us_, start, &step_us_);
    if (!composed.ok()) {
      out.stage = Outcome::Stage::kLateError;
      out.error = composed.status();
      return out;
    }
    std::vector<uint32_t> verdict_key = alpha_ids_.VerdictKey(*composed);
    auto verdict = verdict_memo_.find(verdict_key);
    if (verdict != verdict_memo_.end()) {
      ++result_->equiv_cache_hits;
      out.passes = verdict->second;
    } else {
      start = SteadyClock::now();
      Result<bool> passes = RunCandidateTest(test_, tester_, *composed);
      ObserveSince(equiv_us_, start, &step_us_);
      if (!passes.ok()) {
        out.stage = Outcome::Stage::kLateError;
        out.error = passes.status();
        return out;
      }
      out.passes = *passes;
      verdict_memo_.emplace(std::move(verdict_key), out.passes);
    }
    candidate_memo_.emplace(std::move(alpha_key),
                            CandidateOutcome{false, out.passes});
    return out;
  }

  // Fixed inputs.
  const std::vector<CandidateAtom>& atoms_;
  const ChaseOptions& chase_options_;
  const EquivalenceTester& tester_;
  const CandidateTest test_;
  const RewriteOptions& options_;
  RewriteResult* result_;
  const ObjectPattern head_;
  const std::string name_prefix_;
  // Phase timings; null without a metric registry.
  Histogram* chase_us_ = nullptr;
  Histogram* compose_us_ = nullptr;
  Histogram* equiv_us_ = nullptr;
  uint64_t step_us_ = 0;  // sum of the three phases' samples

  // Commit state.
  std::vector<std::vector<size_t>> accepted_;
  Status failure_;

  // The search's α-key ids, shared by both memo levels.
  AlphaIdTable alpha_ids_;
  // Interned head and per-atom key material; written at construction,
  // then read-only.
  const AlphaIdTable::Part* head_part_ = nullptr;
  std::vector<AtomKeyInfo> atom_info_;
  // Safe's scratch.
  std::vector<uint32_t> head_seen_;
  uint32_t epoch_ = 0;

  // The memos, each keyed as described above.
  std::unordered_map<std::vector<uint32_t>, Outcome, U32VecHash>
      body_outcomes_;
  std::unordered_map<std::string, ChaseEntry> chase_memo_;
  std::unordered_map<std::vector<uint32_t>, CandidateOutcome, U32VecHash>
      candidate_memo_;
  std::unordered_map<std::vector<uint32_t>, bool, U32VecHash> verdict_memo_;
  ComposeCache compose_cache_;
};

}  // namespace

Result<ChasedInputs> ChaseInputs(const TslQuery& query,
                                 const std::vector<TslQuery>& views,
                                 const ChaseOptions& chase_options,
                                 const ViewIndex* index,
                                 ViewProbeOutcome* outcome) {
  if (UsesRegexSteps(query)) {
    return Status::IllFormedQuery(
        "rewriting queries with regular path expressions (l+, **) is the "
        "paper's future work (\\S7); only plain TSL bodies are supported");
  }
  if (index == nullptr) {
    for (const TslQuery& view : views) {
      if (UsesRegexSteps(view)) {
        return Status::IllFormedQuery(
            StrCat("view ", view.name,
                   " uses regular path expressions; rewriting over such "
                   "views is unsupported (\\S7 future work)"));
      }
    }
  }
  ChasedInputs out;
  Result<TslQuery> chased_query = ChaseQuery(query, chase_options);
  if (!chased_query.ok()) {
    if (!chased_query.status().IsUnsatisfiable()) {
      return chased_query.status();
    }
    out.query_unsatisfiable = true;
    return out;
  }
  out.query = std::move(chased_query).value();
  if (index != nullptr) {
    TSLRW_ASSIGN_OR_RETURN(
        std::optional<std::vector<TslQuery>> probed,
        index->ChasedViewsFor(out.query, views, chase_options, outcome));
    if (!probed.has_value()) {
      return Status::Internal(
          "view index declined a view set it claimed to cover");
    }
    out.views = std::move(*probed);
    return out;
  }
  for (const TslQuery& view : views) {
    TSLRW_RETURN_NOT_OK(ValidateQuery(view));
    if (view.name.empty()) {
      return Status::InvalidArgument(
          "views must be named; the name is the rewritten query's source");
    }
    Result<TslQuery> cv = ChaseQuery(view, chase_options);
    if (!cv.ok()) {
      if (cv.status().IsUnsatisfiable()) continue;  // view is always empty
      return cv.status();
    }
    out.views.push_back(std::move(cv).value());
  }
  return out;
}

Result<bool> RunCandidateTest(CandidateTest test,
                              const EquivalenceTester& tester,
                              const TslRuleSet& expansion) {
  if (test == CandidateTest::kEquivalent) {
    return tester.EquivalentTo(expansion);
  }
  if (expansion.rules.empty()) return false;
  return tester.ContainedInReference(expansion);
}

Status VerifyCandidates(const TslQuery& chased_query,
                        const std::vector<TslQuery>& chased_views,
                        const ChaseOptions& chase_options,
                        const EquivalenceTester& tester,
                        CandidateTest test,
                        const CandidateEnumerator& enumerator,
                        const RewriteOptions& options, RewriteResult* result,
                        bool* complete, uint64_t* step_us) {
  Pipeline pipeline(chased_query, chased_views, enumerator.atoms(),
                    chase_options, tester, test, options, result);
  *complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    return pipeline.OnCandidate(chosen);
  });
  *step_us = pipeline.step_us();
  return pipeline.failure();
}

}  // namespace tslrw
