// CandidateEnumerator (Step 1B) against a brute-force walk: every subset of
// size 1..n in order of size and then lexicographically, filtered by
// Admissible. The enumerator skips subtrees of the subset lattice that hold
// no admissible subset; these tests check that the skipping never changes
// what is emitted, in what order, where a max_candidates or should_stop cut
// lands, or the returned completion flag. The reference rewriter shares the
// enumerator, so parity with it cannot catch a pruning bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/string_util.h"
#include "rewrite/candidate.h"

namespace tslrw {
namespace {

using Subsets = std::vector<std::vector<size_t>>;

/// Every admissible subset, in enumeration order, by walking all subsets.
Subsets BruteForce(const CandidateEnumerator& enumerator,
                   size_t num_query_conditions) {
  Subsets out;
  const size_t n = enumerator.atoms().size();
  for (size_t len = 1; len <= num_query_conditions && len <= n; ++len) {
    std::vector<size_t> chosen(len);
    for (size_t i = 0; i < len; ++i) chosen[i] = i;
    while (true) {
      if (enumerator.Admissible(chosen)) out.push_back(chosen);
      // Next combination in lexicographic order.
      size_t k = len;
      while (k > 0 && chosen[k - 1] == n - len + (k - 1)) --k;
      if (k == 0) break;
      ++chosen[k - 1];
      for (size_t j = k; j < len; ++j) chosen[j] = chosen[j - 1] + 1;
    }
  }
  return out;
}

struct Walk {
  Subsets emitted;
  size_t polls = 0;
  bool complete = false;
};

/// Enumerates, stopping the walk from \p fn_stop_at emissions on (0: never)
/// and answering should_stop true from poll \p stop_poll on (0: never).
Walk Enumerate(const std::vector<CandidateAtom>& atoms, size_t conditions,
               RewriteOptions options, size_t fn_stop_at = 0,
               size_t stop_poll = 0) {
  Walk run;
  options.should_stop = [&run, stop_poll] {
    ++run.polls;
    return stop_poll != 0 && run.polls >= stop_poll;
  };
  CandidateEnumerator enumerator(atoms, conditions, options);
  run.complete = enumerator.Enumerate([&](const std::vector<size_t>& chosen) {
    run.emitted.push_back(chosen);
    return fn_stop_at == 0 || run.emitted.size() < fn_stop_at;
  });
  return run;
}

std::vector<CandidateAtom> RandomAtoms(std::mt19937_64& rng,
                                       size_t conditions, size_t count) {
  std::vector<CandidateAtom> atoms(count);
  for (CandidateAtom& atom : atoms) {
    atom.is_view = rng() % 3 != 0;
    // Mostly narrow covers, as view atoms over one arm are; sometimes
    // wide ones, and sometimes none.
    const size_t width = rng() % 4 == 0 ? rng() % (conditions + 1) : 1;
    for (size_t w = 0; w < width; ++w) atom.covers.insert(rng() % conditions);
  }
  return atoms;
}

void ExpectMatchesBruteForce(const std::vector<CandidateAtom>& atoms,
                             size_t conditions, RewriteOptions options,
                             std::mt19937_64& rng) {
  const Subsets all =
      BruteForce(CandidateEnumerator(atoms, conditions, options), conditions);

  Walk full = Enumerate(atoms, conditions, options);
  EXPECT_EQ(full.emitted, all);
  EXPECT_EQ(full.polls, all.size());
  EXPECT_TRUE(full.complete);

  // A max_candidates cut anywhere, mostly inside a level.
  const size_t cut = all.empty() ? 0 : rng() % all.size();
  options.max_candidates = cut;
  Walk limited = Enumerate(atoms, conditions, options);
  EXPECT_EQ(limited.emitted, Subsets(all.begin(), all.begin() + cut));
  EXPECT_EQ(limited.polls, cut);
  EXPECT_EQ(limited.complete, all.size() <= cut);
  options.max_candidates = all.size();
  EXPECT_TRUE(Enumerate(atoms, conditions, options).complete);
  options.max_candidates = RewriteOptions{}.max_candidates;

  if (all.empty()) return;
  // should_stop firing at some poll, and the callback stopping the walk.
  const size_t poll = 1 + rng() % all.size();
  Walk stopped = Enumerate(atoms, conditions, options, 0, poll);
  EXPECT_EQ(stopped.emitted, Subsets(all.begin(), all.begin() + poll - 1));
  EXPECT_EQ(stopped.polls, poll);
  EXPECT_FALSE(stopped.complete);
  Walk halted = Enumerate(atoms, conditions, options, poll);
  EXPECT_EQ(halted.emitted, Subsets(all.begin(), all.begin() + poll));
  EXPECT_FALSE(halted.complete);
}

TEST(CandidateEnumeratorTest, MatchesBruteForceOnRandomAtomSets) {
  size_t emitted = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t conditions = 1 + rng() % 6;
    const size_t count = 1 + rng() % 13;
    const std::vector<CandidateAtom> atoms =
        RandomAtoms(rng, conditions, count);
    for (bool heuristic : {true, false}) {
      for (bool total : {false, true}) {
        SCOPED_TRACE(StrCat("seed=", seed, " heuristic=", heuristic,
                            " require_total=", total));
        RewriteOptions options;
        options.use_cover_heuristic = heuristic;
        options.require_total = total;
        ExpectMatchesBruteForce(atoms, conditions, options, rng);
        emitted += BruteForce(CandidateEnumerator(atoms, conditions, options),
                              conditions)
                       .size();
      }
    }
  }
  EXPECT_GT(emitted, 1000u);
}

TEST(CandidateEnumeratorTest, StarShapeEmitsOnlyCovers) {
  // The cold-search shape: per arm one view atom and one query-condition
  // atom, each covering its arm. Under the heuristic exactly the 2^k
  // choices of one atom per arm that use a view are admissible, all of
  // size k.
  constexpr size_t kArms = 5;
  std::vector<CandidateAtom> atoms;
  for (bool view : {true, false}) {
    for (size_t arm = 0; arm < kArms; ++arm) {
      CandidateAtom atom;
      atom.is_view = view;
      atom.covers = {arm};
      atoms.push_back(atom);
    }
  }
  RewriteOptions options;
  Walk run = Enumerate(atoms, kArms, options);
  EXPECT_EQ(run.emitted.size(), (size_t{1} << kArms) - 1);
  for (const std::vector<size_t>& chosen : run.emitted) {
    EXPECT_EQ(chosen.size(), kArms);
  }
  std::mt19937_64 rng(7);
  ExpectMatchesBruteForce(atoms, kArms, options, rng);
}

TEST(CandidateEnumeratorTest, WideBodiesFallBackToSetUnion) {
  // Over 64 query conditions the cover masks are off; the walk must still
  // emit what Admissible accepts.
  constexpr size_t kConditions = 70;
  std::mt19937_64 rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<CandidateAtom> atoms(1 + rng() % 6);
    for (CandidateAtom& atom : atoms) {
      atom.is_view = rng() % 3 != 0;
      for (size_t c = 0; c < kConditions; ++c) {
        if (rng() % 3 == 0) atom.covers.insert(c);
      }
    }
    for (bool heuristic : {true, false}) {
      RewriteOptions options;
      options.use_cover_heuristic = heuristic;
      ExpectMatchesBruteForce(atoms, kConditions, options, rng);
    }
  }
}

}  // namespace
}  // namespace tslrw
