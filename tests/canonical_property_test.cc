// Property: AlphaKeyOf (tsl/canonical.h) is exactly "equal up to
// α-renaming" on the conditions the random rule generator produces. An
// α-renamed copy keeps its key, and two conditions whose single-condition
// CanonicalizeQuery keys differ get different α-keys (and conversely).
// Parameterized over seeds.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "testing/random_rules.h"
#include "tsl/canonical.h"

namespace tslrw {
namespace {

class AlphaKeyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// \p c with every occurrence of \p from replaced by \p to.
Condition Substituted(const Condition& c, const Term& from, const Term& to) {
  TermSubstitution s;
  s.Bind(from, to);
  Condition out = c;
  out.pattern = ApplyTermSubstitution(s, c.pattern);
  return out;
}

/// Every body condition of a few random queries and views, plus each
/// variant that identifies two of a condition's variables of one sort (the
/// generator never repeats a variable inside a condition on its own).
std::vector<Condition> RandomConditions(uint64_t seed) {
  testing::RandomRules rules(seed, 3, 3, "l0");
  std::vector<TslQuery> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(rules.Query("Q", "db"));
  queries.push_back(rules.View("V1", "db"));
  queries.push_back(rules.CopyView("V2", "db"));
  queries.push_back(rules.DeepView("V3", "other"));
  std::vector<Condition> out;
  for (const TslQuery& q : queries) {
    for (const Condition& c : q.body) {
      out.push_back(c);
      std::set<Term> vars;
      c.pattern.CollectVariables(&vars);
      for (const Term& a : vars) {
        for (const Term& b : vars) {
          if (a < b && a.var_kind() == b.var_kind()) {
            out.push_back(Substituted(c, b, a));
          }
        }
      }
    }
  }
  return out;
}

/// Renames every variable of \p c to a fresh name, in reverse name order,
/// keeping its sort.
Condition AlphaRenamed(const Condition& c) {
  std::set<Term> vars;
  c.pattern.CollectVariables(&vars);
  TermSubstitution renaming;
  size_t i = vars.size();
  for (const Term& v : vars) {
    renaming.Bind(v, Term::MakeVar(StrCat("R", --i), v.var_kind()));
  }
  Condition renamed = c;
  renamed.pattern = ApplyTermSubstitution(renaming, c.pattern);
  return renamed;
}

/// The CanonicalizeQuery key of \p c as the body of a ground-headed rule.
std::string SingleConditionKey(const Condition& c) {
  TslQuery q;
  q.head.oid = Term::MakeFunc("ans", {});
  q.head.label = Term::MakeAtom("out");
  q.head.value = PatternValue::FromTerm(Term::MakeAtom("yes"));
  q.body = {c};
  return CanonicalizeQuery(q).key;
}

TEST_P(AlphaKeyPropertyTest, AlphaRenamedCopiesShareTheKey) {
  for (const Condition& c : RandomConditions(GetParam())) {
    const Condition renamed = AlphaRenamed(c);
    EXPECT_EQ(AlphaKeyOf(c).key, AlphaKeyOf(renamed).key)
        << c.ToString() << " vs " << renamed.ToString();
    EXPECT_EQ(AlphaKeyOf(c).vars.size(), AlphaKeyOf(renamed).vars.size());
  }
}

TEST_P(AlphaKeyPropertyTest, KeysSeparateExactlyWhatCanonicalFormsSeparate) {
  const std::vector<Condition> conditions = RandomConditions(GetParam());
  std::vector<std::string> alpha;
  std::vector<std::string> canonical;
  for (const Condition& c : conditions) {
    alpha.push_back(AlphaKeyOf(c).key);
    canonical.push_back(SingleConditionKey(c));
  }
  for (size_t i = 0; i < conditions.size(); ++i) {
    for (size_t j = i + 1; j < conditions.size(); ++j) {
      EXPECT_EQ(canonical[i] == canonical[j], alpha[i] == alpha[j])
          << conditions[i].ToString() << " vs " << conditions[j].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlphaKeyPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace tslrw
