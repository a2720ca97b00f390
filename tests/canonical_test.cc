#include "tsl/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fixtures.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;

// The plan-cache regression the serving layer depends on: two α-equivalent
// parses of (Q1) — head and body variables renamed, conditions reordered —
// must canonicalize to byte-identical keys.
TEST(CanonicalTest, AlphaEquivalentParsesOfQ1ShareOneKey) {
  TslQuery q1 = MustParse(testing::kQ1, "Q1");
  TslQuery q1_renamed = MustParse(
      "<f(Person) female {<f(Sub) Lbl Val>}> :- "
      "<Person person {<Gen gender female> <Sub Lbl Val>}>@db",
      "Q1Renamed");
  CanonicalForm a = CanonicalizeQuery(q1);
  CanonicalForm b = CanonicalizeQuery(q1_renamed);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.query, b.query);
}

TEST(CanonicalTest, HeadVariableNamingIsIrrelevant) {
  // Same rule, only the head's variable spelling differs — the old
  // TslQuery equality would keep these apart.
  TslQuery a = MustParse("<f(P) out Z> :- <P p {<X name Z>}>@db");
  TslQuery b = MustParse("<f(Q) out W> :- <Q p {<Y name W>}>@db");
  EXPECT_FALSE(a == b);  // plain equality is name-sensitive
  EXPECT_EQ(CanonicalizeQuery(a).key, CanonicalizeQuery(b).key);
}

TEST(CanonicalTest, ConditionOrderIsIrrelevant) {
  TslQuery a = MustParse(
      "<f(P) out yes> :- "
      "<P p {<V venue sigmod>}>@db AND <P p {<U year y97>}>@db");
  TslQuery b = MustParse(
      "<f(P) out yes> :- "
      "<P p {<U year y97>}>@db AND <P p {<V venue sigmod>}>@db");
  EXPECT_EQ(CanonicalizeQuery(a).key, CanonicalizeQuery(b).key);
}

TEST(CanonicalTest, RenamingAndReorderingTogether) {
  TslQuery a = MustParse(
      "<f(P) out {<X Y Z>}> :- "
      "<P pub {<V venue sigmod>}>@db AND <P pub {<X Y Z>}>@db");
  TslQuery b = MustParse(
      "<f(Pp) out {<A B C>}> :- "
      "<Pp pub {<A B C>}>@db AND <Pp pub {<Vv venue sigmod>}>@db");
  EXPECT_EQ(CanonicalizeQuery(a).key, CanonicalizeQuery(b).key);
}

TEST(CanonicalTest, DistinctQueriesKeepDistinctKeys) {
  TslQuery sigmod = MustParse("<f(P) out yes> :- <P p {<V venue sigmod>}>@db");
  TslQuery vldb = MustParse("<f(P) out yes> :- <P p {<V venue vldb>}>@db");
  TslQuery other_source =
      MustParse("<f(P) out yes> :- <P p {<V venue sigmod>}>@cache");
  EXPECT_NE(CanonicalizeQuery(sigmod).key, CanonicalizeQuery(vldb).key);
  EXPECT_NE(CanonicalizeQuery(sigmod).key,
            CanonicalizeQuery(other_source).key);
}

TEST(CanonicalTest, RuleNameAndSpanDoNotLeakIntoTheKey) {
  TslQuery named = MustParse(testing::kQ3, "Q3");
  TslQuery anonymous = MustParse(testing::kQ3);
  EXPECT_EQ(CanonicalizeQuery(named).key, CanonicalizeQuery(anonymous).key);
}

TEST(CanonicalTest, CanonicalQueryIsAlphaEquivalentToTheInput) {
  // Soundness of the cache key: the canonical query must be the input up
  // to renaming — same number of conditions, same sources, same shape.
  TslQuery q = MustParse(testing::kQ1, "Q1");
  CanonicalForm form = CanonicalizeQuery(q);
  EXPECT_EQ(form.query.body.size(), q.body.size());
  EXPECT_EQ(form.query.Sources(), q.Sources());
  EXPECT_EQ(form.query.HeadVariables().size(), q.HeadVariables().size());
  EXPECT_EQ(form.query.BodyVariables().size(), q.BodyVariables().size());
}

TEST(CanonicalTest, CanonicalizationIsIdempotent) {
  TslQuery q = MustParse(testing::kQ2, "Q2");
  CanonicalForm once = CanonicalizeQuery(q);
  CanonicalForm twice = CanonicalizeQuery(once.query);
  EXPECT_EQ(once.key, twice.key);
}

TEST(CanonicalTest, InputAlreadyUsingCanonicalAlphabetIsHandled) {
  // Variables named O0/C0 in the "wrong" positions must not collide with
  // the names the renamer assigns (simultaneous substitution).
  TslQuery tricky = MustParse("<f(O1) out C1> :- <O1 p {<O0 C0 C1>}>@db");
  TslQuery plain = MustParse("<f(A) out V> :- <A p {<B L V>}>@db");
  EXPECT_EQ(CanonicalizeQuery(tricky).key, CanonicalizeQuery(plain).key);
}

TEST(CanonicalTest, StableFingerprintIsProcessIndependent) {
  // FNV-1a 64 with the standard offset/prime: pin known values so a
  // platform or refactor can never silently change recorded fingerprints.
  EXPECT_EQ(StableFingerprint(""), 14695981039346656037ULL);
  EXPECT_EQ(StableFingerprint("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(StableFingerprint("hello"), 0xa430d84680aabd0bULL);
}

TEST(CanonicalTest, AlphaKeyIsAlphaInvariant) {
  auto cond = [](std::string_view text) {
    return MustParse(text, "Q").body.front();
  };
  auto key = [](const Condition& c) { return AlphaKeyOf(c).key; };
  EXPECT_EQ(key(cond("<f(P) o y> :- <P p {<X name Z>}>@db")),
            key(cond("<f(Q) o y> :- <Q p {<Y name W>}>@db")));
  // Different source, same pattern: distinct.
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {<X name Z>}>@db")),
            key(cond("<f(P) o y> :- <P p {<X name Z>}>@other")));
  // Repeated variables must not collide with distinct ones.
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {<X Y Y>}>@db")),
            key(cond("<f(P) o y> :- <P p {<X Y Z>}>@db")));

  // `<P p {<X label value>}>@db` with the member's step set directly.
  auto member = [](Term label, StepKind step, PatternValue value) {
    ObjectPattern m;
    m.oid = Term::MakeVar("X", VarKind::kObjectId);
    m.label = std::move(label);
    m.step = step;
    m.value = std::move(value);
    Condition condition;
    condition.source = "db";
    condition.pattern.oid = Term::MakeVar("P", VarKind::kObjectId);
    condition.pattern.label = Term::MakeAtom("p");
    condition.pattern.value = PatternValue::FromSet({std::move(m)});
    return condition;
  };
  const Term z = Term::MakeVar("Z", VarKind::kLabelValue);
  // A label variable vs a label atom, even one spelled like the variable.
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {<X L Z>}>@db")),
            key(cond("<f(P) o y> :- <P p {<X name Z>}>@db")));
  EXPECT_NE(key(member(Term::MakeVar("L", VarKind::kLabelValue),
                       StepKind::kChild, PatternValue::FromTerm(z))),
            key(member(Term::MakeAtom("L"), StepKind::kChild,
                       PatternValue::FromTerm(z))));
  // A `**` or `l+` step vs a plain step with the same label.
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {<X name+ Z>}>@db")),
            key(cond("<f(P) o y> :- <P p {<X name Z>}>@db")));
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {<X ** Z>}>@db")),
            key(member(Term::MakeAtom("**"), StepKind::kChild,
                       PatternValue::FromTerm(z))));
  // The same text as a set value and as an atomic value.
  EXPECT_NE(key(cond("<f(P) o y> :- <P p {}>@db")),
            key(cond("<f(P) o y> :- <P p \"{}\">@db")));
  EXPECT_NE(key(member(Term::MakeAtom("name"), StepKind::kChild,
                       PatternValue::FromSet({}))),
            key(member(Term::MakeAtom("name"), StepKind::kChild,
                       PatternValue::FromTerm(Term::MakeAtom("{}")))));
}

TEST(CanonicalTest, AlphaKeyReportsVariablesInFirstOccurrenceOrder) {
  AlphaKey alpha = AlphaKeyOf(
      MustParse("<f(P) o y> :- <P p {<X L Z> <Y L Z>}>@db").body.front());
  std::vector<std::string> names;
  for (const Term& v : alpha.vars) names.push_back(v.var_name());
  EXPECT_EQ(names, (std::vector<std::string>{"P", "X", "L", "Z", "Y"}));
  // A head is keyed on its own: `y` is an atom, P repeats.
  AlphaKey head =
      AlphaKeyOf(MustParse("<f(P,P) o y> :- <P p {<X L Z>}>@db").head);
  ASSERT_EQ(head.vars.size(), 1u);
  EXPECT_EQ(head.vars.front().var_name(), "P");
}

/// `<oid label value>@source`, built without the parser so atoms may hold
/// any byte.
Condition Ground(Term oid, Term label, Term value, std::string source) {
  Condition c;
  c.source = std::move(source);
  c.pattern.oid = std::move(oid);
  c.pattern.label = std::move(label);
  c.pattern.value = PatternValue::FromTerm(std::move(value));
  return c;
}

TEST(CanonicalTest, AlphaKeyIsInjectiveOnAtomsHoldingSeparators) {
  auto a = [](std::string name) { return Term::MakeAtom(std::move(name)); };
  auto f = [](std::string functor, std::vector<Term> args) {
    return Term::MakeFunc(std::move(functor), std::move(args));
  };
  // The pairs a length-blind spelling would merge.
  auto key = [](const Condition& c) { return AlphaKeyOf(c).key; };
  EXPECT_NE(key(Ground(f("f", {a("a"), a("b")}), a("l"), a("v"), "db")),
            key(Ground(f("f", {a("a;ab")}), a("l"), a("v"), "db")));
  EXPECT_NE(key(Ground(f("f", {a("a"), a("b")}), a("l"), a("v"), "db")),
            key(Ground(f("f", {a("a,b")}), a("l"), a("v"), "db")));

  const std::vector<std::string> spellings = {
      "",    "a",      "b",     "ab",  "a;ab", "a,b", "a;",  ";",
      ",",   "(",      ")",     "a(b", "a)",   "\"a\"", "a\\", "@",
      "a@db", "<a>",   "#",     "a#1", "|",    "a|b", "1",   "12",
      "a1;", "a1;b",   "f(a,b)", "=",  "{}",   "s0;", "O0;", "C1;"};
  std::vector<Term> terms;
  for (const std::string& s : spellings) {
    terms.push_back(a(s));
    terms.push_back(f(s, {}));
    terms.push_back(f(s, {a("b")}));
    terms.push_back(f("f", {a(s)}));
    terms.push_back(f("f", {a("a"), a(s)}));
    terms.push_back(f("f", {a(s), a("b")}));
  }
  std::vector<Condition> conditions;
  for (const Term& t : terms) {
    conditions.push_back(Ground(t, a("l"), a("v"), "db"));  // oid
    conditions.push_back(Ground(a("o"), t, a("v"), "db"));  // label
    conditions.push_back(Ground(a("o"), a("l"), t, "db"));  // value
  }
  for (const std::string& s : spellings) {
    conditions.push_back(Ground(a("o"), a("l"), a("v"), s));  // source
  }
  std::sort(conditions.begin(), conditions.end());
  conditions.erase(std::unique(conditions.begin(), conditions.end()),
                   conditions.end());
  std::map<std::string, const Condition*> seen;
  for (const Condition& c : conditions) {
    auto [it, inserted] = seen.emplace(key(c), &c);
    EXPECT_TRUE(inserted) << it->second->ToString() << " and "
                          << c.ToString() << " share the key " << it->first;
  }
}

}  // namespace
}  // namespace tslrw
