#include "rewrite/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "rewrite/alpha_ids.h"
#include "rewrite/compose.h"
#include "rewrite/view_index.h"
#include "runtime/thread_pool.h"
#include "tsl/canonical.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

/// Candidates per pool task. Large enough that queue/lock/wakeup traffic
/// stays a rounding error next to the per-candidate chase + composition;
/// small enough that a search in the hundreds of candidates still spreads
/// across a pool. (Searches smaller than one batch lose nothing: their
/// wall clock is dominated by the first uncached \S4 test.) Inline
/// verification uses batches of one instead, see Pipeline.
constexpr size_t kBatchSize = 32;

using SteadyClock = std::chrono::steady_clock;

/// Observes the microseconds since \p start into \p hist and adds them to
/// \p total (null \p hist: no-op).
void ObserveSince(Histogram* hist, SteadyClock::time_point start,
                  std::atomic<uint64_t>* total) {
  if (hist == nullptr) return;
  const auto us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
  hist->Observe(us);
  total->fetch_add(us, std::memory_order_relaxed);
}

/// How one candidate's verification ended: the decision points of the
/// Step 1C/2 ladder (safety, chase, composition, \S4 test), which commit
/// replays in enumeration order.
struct Slot {
  enum class Stage {
    kDominated,   // resolved at dispatch: a committed accepted set is a
                  // subset of this candidate's — commit re-proves it
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
  bool done = false;  // guarded by Pipeline::mu_
};
using SlotPtr = std::shared_ptr<Slot>;

/// One emitted candidate, held until its turn to commit. Candidates with
/// byte-identical bodies share one Slot (the work runs once) but keep their
/// own `candidate` — names embed the emission sequence number.
struct Pending {
  size_t seq = 0;  // candidates_generated at emission (1-based)
  std::shared_ptr<TslQuery> candidate;  // null when resolved at dispatch
  std::vector<size_t> chosen;           // sorted atom indices
  SlotPtr slot;
};

struct WorkItem {
  std::shared_ptr<const TslQuery> candidate;
  SlotPtr slot;
  std::vector<uint32_t> alpha_key;  // candidate-level memo key
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
/// one full verification. Which id a key gets depends on interning order,
/// which under the pool depends on scheduling; whether two rules share a
/// key does not, so hits and misses are the same at every worker count.
/// AlphaIdTable::Fingerprint is the one implementation of this format.
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
/// one table per search, because the memos are shared by every worker.
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

/// The verification pipeline. With one worker it builds no pool: each
/// emitted candidate is verified inline as a batch of one and committed
/// before the next is emitted, so dispatch-time dominance pruning sees
/// exactly the accepted sets the plain reference loop (src/testing) sees,
/// and no candidate it prunes is ever verified. With
/// more workers, batches of kBatchSize go to a ThreadPool and commit
/// catches up behind a bounded in-flight window.
class Pipeline {
 public:
  Pipeline(const TslQuery& chased_query,
           const std::vector<TslQuery>& chased_views,
           const std::vector<CandidateAtom>& atoms,
           const ChaseOptions& chase_options, const EquivalenceTester& tester,
           CandidateTest test, const RewriteOptions& options, size_t workers,
           RewriteResult* result)
      : views_(chased_views),
        chase_options_(chase_options),
        tester_(tester),
        test_(test),
        options_(options),
        result_(result),
        head_(chased_query.head),
        name_prefix_(NamePrefix(chased_query.name, test)),
        batch_size_(workers > 1 ? kBatchSize : 1),
        max_pending_(workers * batch_size_ * 4) {
    head_part_ = &alpha_ids_.Of(head_);
    InternAtoms(atoms);
    if (options.metrics != nullptr) {
      chase_us_ = options.metrics->GetHistogram("rewrite.phase.chase_us");
      compose_us_ = options.metrics->GetHistogram("rewrite.phase.compose_us");
      equiv_us_ = options.metrics->GetHistogram("rewrite.phase.equiv_us");
    }
    caches_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      caches_.push_back(std::make_unique<ComposeCache>(views_));
      free_caches_.push_back(i);
    }
    if (workers <= 1) return;  // inline: Flush verifies on this thread
    ThreadPool::Options pool;
    pool.threads = workers;
    // The producer's in-flight bound keeps the depth below this; the slack
    // absorbs partial batches. A full queue is still handled (Flush runs
    // the batch inline), it just should not be the steady state.
    pool.queue_capacity = 2 * max_pending_ + 16;
    // The pool lives for one search; small searches dispatch fewer batches
    // than there are workers, so start threads only as batches arrive.
    pool.lazy_spawn = true;
    pool_ = std::make_unique<ThreadPool>(pool);
  }

  /// The CandidateEnumerator callback; runs on the producing thread.
  /// Returns false to stop the enumeration (a hard error committed).
  bool OnCandidate(const std::vector<CandidateAtom>& atoms,
                   const std::vector<size_t>& chosen) {
    std::unique_lock<std::mutex> lock(mu_);
    if (failed_) return false;
    ++result_->candidates_generated;
    const size_t seq = result_->candidates_generated;
    CommitReady();
    if (failed_) return false;

    Pending p;
    p.seq = seq;
    // `chosen` is only consulted by the dominance checks; skip the copy
    // when pruning is off.
    if (options_.prune_dominated) p.chosen = chosen;

    if (options_.prune_dominated && Dominated(accepted_, p.chosen)) {
      // The accepted prefix only grows, so the authoritative commit-time
      // dominance check is guaranteed to discard this candidate too: skip
      // the verification work entirely.
      p.slot = std::make_shared<Slot>();
      p.slot->stage = Slot::Stage::kDominated;
      p.slot->done = true;
      pending_.push_back(std::move(p));
      return true;
    }

    auto candidate = std::make_shared<TslQuery>();
    candidate->name = name_prefix_ + std::to_string(seq);
    candidate->head = head_;  // Lemma 5.4
    std::vector<uint32_t> body_key;
    body_key.reserve(chosen.size());
    for (size_t i : chosen) {
      candidate->body.push_back(atoms[i].condition);
      body_key.push_back(atom_info_[i].part->exact);
    }
    p.candidate = candidate;

    auto it = body_slots_.find(body_key);
    if (it != body_slots_.end()) {
      p.slot = it->second;  // identical body already in flight or finished
    } else if (!Safe(chosen)) {
      p.slot = std::make_shared<Slot>();
      p.slot->stage = Slot::Stage::kUnsafe;
      p.slot->done = true;
      body_slots_.emplace(std::move(body_key), p.slot);
    } else {
      std::vector<uint32_t> alpha_key = CandidateKey(chosen);
      p.slot = std::make_shared<Slot>();
      if (LookupCandidateMemo(alpha_key, p.slot.get())) {
        p.slot->done = true;  // α-isomorphic candidate already verified
      } else {
        batch_.push_back(WorkItem{candidate, p.slot, std::move(alpha_key)});
      }
      body_slots_.emplace(std::move(body_key), p.slot);
      if (batch_.size() >= batch_size_) Flush(lock);
    }
    pending_.push_back(std::move(p));
    // Inline, the slot is already done: commit it now, so the next
    // candidate's dominance check and a hard error's early stop happen
    // exactly where the reference loop has them.
    CommitReady();

    // Bounded in-flight window: block — committing whatever lands — rather
    // than let enumeration outrun the commit frontier without limit.
    if (pending_.size() >= max_pending_) Flush(lock);
    while (!failed_ && pending_.size() >= max_pending_) {
      CommitReady();
      if (failed_ || pending_.size() < max_pending_) break;
      slot_ready_.wait(lock);
    }
    return !failed_;
  }

  /// Flushes stragglers, commits everything, joins the pool, and folds the
  /// shared-work counters into the result and the summed step timers into
  /// \p step_us. Returns the first in-order hard error, or OK.
  Status Finish(uint64_t* step_us) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      Flush(lock);
      while (!failed_ && !pending_.empty()) {
        CommitReady();
        if (failed_ || pending_.empty()) break;
        if (!pending_.front().slot->done) slot_ready_.wait(lock);
      }
    }
    // Drains work items stranded behind a hard error; their outcomes are
    // never committed.
    if (pool_ != nullptr) pool_->Shutdown();
    result_->chase_cache_hits += chase_hits_.load();
    result_->equiv_cache_hits += equiv_hits_.load();
    *step_us = step_us_.load();
    return failed_ ? failure_ : Status::OK();
  }

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

  void InternAtoms(const std::vector<CandidateAtom>& atoms) {
    const std::vector<uint32_t>& head_vars = head_part_->vars;
    atom_info_.reserve(atoms.size());
    for (const CandidateAtom& atom : atoms) {
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

  /// CheckSafety of the candidate over \p chosen, from the interned
  /// variables: every head variable occurs in some chosen atom. Producer
  /// thread only: the scratch members are not shared.
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

  /// On a candidate-memo hit, writes the memoized stage into \p slot (not
  /// `done` — dispatch and worker paths finalize differently) and counts
  /// the skipped work. Takes memo_mu_; see the lock-order note on memo_mu_.
  bool LookupCandidateMemo(const std::vector<uint32_t>& alpha_key,
                           Slot* slot) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = candidate_memo_.find(alpha_key);
    if (it == candidate_memo_.end()) return false;
    if (it->second.unsat) {
      slot->stage = Slot::Stage::kChaseUnsat;
      chase_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot->stage = Slot::Stage::kVerdict;
      slot->passes = it->second.passes;
      equiv_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void StoreCandidateMemo(const std::vector<uint32_t>& alpha_key,
                          CandidateOutcome outcome) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    candidate_memo_.emplace(alpha_key, outcome);
  }

  /// Commits every ready in-order outcome: dominance, then the slot's
  /// stage, in enumeration order. Caller holds mu_.
  void CommitReady() {
    while (!failed_ && !pending_.empty() && pending_.front().slot->done) {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      if (options_.prune_dominated && Dominated(accepted_, p.chosen)) {
        continue;  // discarded before any of its outcome is examined
      }
      const Slot& slot = *p.slot;
      switch (slot.stage) {
        case Slot::Stage::kDominated:
          // Unreachable: dispatch-time dominance implies commit-time
          // dominance (the accepted prefix only grows). Skipping is the
          // right answer regardless.
          break;
        case Slot::Stage::kUnsafe:
        case Slot::Stage::kChaseUnsat:
          break;
        case Slot::Stage::kChaseError:
          failure_ = slot.error;
          failed_ = true;
          break;
        case Slot::Stage::kLateError:
          ++result_->candidates_tested;
          failure_ = slot.error;
          failed_ = true;
          break;
        case Slot::Stage::kVerdict:
          ++result_->candidates_tested;
          if (slot.passes) {
            if (options_.prune_dominated) {
              accepted_.push_back(std::move(p.chosen));
            }
            result_->rewritings.push_back(std::move(*p.candidate));
          }
          break;
      }
    }
  }

  /// Hands the current batch to the pool, or verifies it on this thread
  /// when there is no pool or the pool is saturated. Outcomes are outcomes
  /// wherever they are computed; commit order is unaffected. Caller holds
  /// mu_ (released only around an inline run).
  void Flush(std::unique_lock<std::mutex>& lock) {
    if (batch_.empty()) return;
    auto batch = std::make_shared<std::vector<WorkItem>>(std::move(batch_));
    batch_.clear();
    if (pool_ != nullptr &&
        pool_->TrySubmit([this, batch] { RunBatch(*batch); }).ok()) {
      ++result_->batches_dispatched;
      return;
    }
    lock.unlock();
    RunBatch(*batch);
    lock.lock();
  }

  void RunBatch(std::vector<WorkItem>& batch) {
    size_t cache_index = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (!free_caches_.empty()) {
        cache_index = free_caches_.back();
        free_caches_.pop_back();
      }
    }
    // Only a saturated-pool fallback run can find every cache taken; it
    // starts a fresh one rather than sharing.
    std::unique_ptr<ComposeCache> local;
    if (cache_index == SIZE_MAX) local = std::make_unique<ComposeCache>(views_);
    ComposeCache& cache = local ? *local : *caches_[cache_index];
    // Publish the whole batch under one lock with one wakeup — per-item
    // lock-and-notify traffic would rival a memo-hit verification itself.
    // The producer (the only slot_ready_ waiter) has batches of slack in
    // its in-flight window, so coarser signaling does not stall it.
    std::vector<Slot> outs;
    outs.reserve(batch.size());
    for (WorkItem& item : batch) {
      outs.push_back(Verify(*item.candidate, item.alpha_key, cache));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < batch.size(); ++i) {
        outs[i].done = true;
        *batch[i].slot = std::move(outs[i]);
      }
    }
    slot_ready_.notify_one();
    if (cache_index != SIZE_MAX) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      free_caches_.push_back(cache_index);
    }
  }

  /// Chase + compose + \S4 test for one candidate, through the memos.
  /// The tester is shared: its tests are const, and its chase options
  /// carry no fired-constraints sink.
  /// Each step that actually runs is timed into its rewrite.phase.*_us
  /// histogram; a memo hit observes nothing. Hard-error Statuses are never
  /// cached: an error must surface with the exact message an unmemoized
  /// verification of this candidate produces.
  Slot Verify(const TslQuery& candidate,
              const std::vector<uint32_t>& alpha_key, ComposeCache& cache) {
    Slot out;
    // The candidate memo first: an α-isomorphic candidate may have
    // finished (even earlier in this very batch) since this one was
    // dispatched, and a hit skips every step below.
    if (LookupCandidateMemo(alpha_key, &out)) return out;
    // Step 1C through the chase memo. The key is the candidate body's
    // canonical fingerprint (src/tsl/canonical) — α-invariant, like the
    // chase outcome (success/unsat and the result modulo renaming); the
    // stored query keeps the *first* computer's name, which composition
    // carries into rule names — the verdict, the only consumer, is
    // name-blind. The memo engages only under structural constraints:
    // without them the chase is a cheap normalization pass that costs less
    // than its canonical fingerprint, and identical bodies were already
    // deduped producer-side.
    const bool use_chase_memo = chase_options_.constraints != nullptr;
    std::shared_ptr<const TslQuery> chased;
    bool chase_unsat = false;
    bool have_entry = false;
    std::string candidate_key;
    if (use_chase_memo) {
      candidate_key = CanonicalizeQuery(candidate).key;
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = chase_memo_.find(candidate_key);
      if (it != chase_memo_.end()) {
        chase_hits_.fetch_add(1, std::memory_order_relaxed);
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
        out.stage = Slot::Stage::kChaseError;
        out.error = fresh.status();
        return out;
      }
      if (use_chase_memo) {
        std::lock_guard<std::mutex> lock(memo_mu_);
        chase_memo_.emplace(std::move(candidate_key),
                            ChaseEntry{chase_unsat, chased});
      }
    }
    if (chase_unsat) {
      out.stage = Slot::Stage::kChaseUnsat;
      StoreCandidateMemo(alpha_key, CandidateOutcome{true, false});
      return out;
    }

    // Step 2 through the per-worker compose cache and the verdict memo.
    auto start = SteadyClock::now();
    Result<TslRuleSet> composed = ComposeWithViews(*chased, &cache);
    ObserveSince(compose_us_, start, &step_us_);
    if (!composed.ok()) {
      out.stage = Slot::Stage::kLateError;
      out.error = composed.status();
      return out;
    }
    std::vector<uint32_t> verdict_key = alpha_ids_.VerdictKey(*composed);
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = verdict_memo_.find(verdict_key);
      if (it != verdict_memo_.end()) {
        equiv_hits_.fetch_add(1, std::memory_order_relaxed);
        out.passes = it->second;
        candidate_memo_.emplace(alpha_key,
                                CandidateOutcome{false, out.passes});
        return out;
      }
    }
    start = SteadyClock::now();
    Result<bool> passes = RunCandidateTest(test_, tester_, *composed);
    ObserveSince(equiv_us_, start, &step_us_);
    if (!passes.ok()) {
      out.stage = Slot::Stage::kLateError;
      out.error = passes.status();
      return out;
    }
    out.passes = *passes;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      verdict_memo_.emplace(std::move(verdict_key), *passes);
      candidate_memo_.emplace(alpha_key, CandidateOutcome{false, *passes});
    }
    return out;
  }

  struct ChaseEntry {
    bool unsat = false;
    std::shared_ptr<const TslQuery> chased;  // null when unsat
  };

  // Fixed inputs.
  const std::vector<TslQuery>& views_;
  const ChaseOptions& chase_options_;
  const EquivalenceTester& tester_;
  const CandidateTest test_;
  const RewriteOptions& options_;
  RewriteResult* result_;
  const ObjectPattern head_;
  const std::string name_prefix_;
  const size_t batch_size_;
  const size_t max_pending_;
  // Phase timings (lock-free); null without a metric registry.
  Histogram* chase_us_ = nullptr;
  Histogram* compose_us_ = nullptr;
  Histogram* equiv_us_ = nullptr;
  std::atomic<uint64_t> step_us_{0};  // sum of the three phases' samples

  // Producer/commit state; guarded by mu_ (slot_ready_ signals new done
  // slots). `result_` and `accepted_` are written by the producer thread
  // only, under mu_.
  std::mutex mu_;
  std::condition_variable slot_ready_;
  std::deque<Pending> pending_;
  std::vector<WorkItem> batch_;
  std::unordered_map<std::vector<uint32_t>, SlotPtr, U32VecHash> body_slots_;
  std::vector<std::vector<size_t>> accepted_;
  bool failed_ = false;
  Status failure_;

  // The search's α-key ids, shared by both memo levels (thread-safe).
  AlphaIdTable alpha_ids_;
  // Interned head and per-atom key material; written at construction,
  // then read-only.
  const AlphaIdTable::Part* head_part_ = nullptr;
  std::vector<AtomKeyInfo> atom_info_;
  // Producer-only Safe scratch (single producer thread).
  std::vector<uint32_t> head_seen_;
  uint32_t epoch_ = 0;

  // Shared memos; guarded by memo_mu_. Lock order: the producer takes
  // memo_mu_ while holding mu_ (dispatch-time candidate-memo probe);
  // workers take each alone — never memo_mu_ then mu_.
  std::mutex memo_mu_;
  std::unordered_map<std::string, ChaseEntry> chase_memo_;
  std::unordered_map<std::vector<uint32_t>, CandidateOutcome, U32VecHash>
      candidate_memo_;
  std::unordered_map<std::vector<uint32_t>, bool, U32VecHash> verdict_memo_;
  std::atomic<size_t> chase_hits_{0};
  std::atomic<size_t> equiv_hits_{0};

  // Per-worker composition memos (mutable, so never shared), handed out
  // per RunBatch; guarded by cache_mu_.
  std::mutex cache_mu_;
  std::vector<std::unique_ptr<ComposeCache>> caches_;
  std::vector<size_t> free_caches_;

  // Null when verifying inline. Last: joins before members die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

size_t ResolveParallelism(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

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
                        const RewriteOptions& options, size_t workers,
                        RewriteResult* result, bool* complete,
                        uint64_t* step_us) {
  Pipeline pipeline(chased_query, chased_views, enumerator.atoms(),
                    chase_options, tester, test, options, workers, result);
  *complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    return pipeline.OnCandidate(enumerator.atoms(), chosen);
  });
  return pipeline.Finish(step_us);
}

}  // namespace tslrw
