#include "oem/term.h"

#include <gtest/gtest.h>

#include <set>

namespace tslrw {
namespace {

Term Atom(const char* s) { return Term::MakeAtom(s); }
Term OidVar(const char* s) { return Term::MakeVar(s, VarKind::kObjectId); }
Term ValVar(const char* s) { return Term::MakeVar(s, VarKind::kLabelValue); }

TEST(TermTest, AtomBasics) {
  Term a = Atom("person");
  EXPECT_TRUE(a.is_atom());
  EXPECT_EQ(a.atom_name(), "person");
  EXPECT_TRUE(a.IsGround());
  EXPECT_EQ(a.ToString(), "person");
  EXPECT_EQ(a, Atom("person"));
  EXPECT_NE(a, Atom("publication"));
}

TEST(TermTest, VariableSortsDistinguishEquality) {
  Term p_oid = OidVar("P");
  Term p_val = ValVar("P");
  EXPECT_NE(p_oid, p_val);
  EXPECT_FALSE(p_oid.IsGround());
  EXPECT_EQ(p_oid.ToString(), "P");
}

TEST(TermTest, FunctionTermStructure) {
  Term f = Term::MakeFunc("f", {OidVar("P"), Atom("x")});
  EXPECT_TRUE(f.is_func());
  EXPECT_EQ(f.functor(), "f");
  ASSERT_EQ(f.args().size(), 2u);
  EXPECT_EQ(f.ToString(), "f(P,x)");
  EXPECT_FALSE(f.IsGround());
  EXPECT_TRUE(Term::MakeFunc("f", {Atom("p1")}).IsGround());
}

TEST(TermTest, EqualityIsStructural) {
  Term a = Term::MakeFunc("f", {OidVar("P"), OidVar("Q")});
  Term b = Term::MakeFunc("f", {OidVar("P"), OidVar("Q")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, Term::MakeFunc("f", {OidVar("Q"), OidVar("P")}));
  EXPECT_NE(a, Term::MakeFunc("g", {OidVar("P"), OidVar("Q")}));
}

TEST(TermTest, OrderingIsTotalAndConsistent) {
  std::set<Term> terms{Atom("b"), Atom("a"), OidVar("X"),
                       Term::MakeFunc("f", {Atom("a")})};
  EXPECT_EQ(terms.size(), 4u);
  EXPECT_FALSE(Atom("a") < Atom("a"));
}

TEST(TermTest, DeepTermsCompareInLinearTime) {
  // Regression: comparing two equal function terms used to cost 2^depth
  // (std::vector's operator< asks `<` both ways on equal elements), so a
  // 26-deep oid took seconds. Depth 64 would never finish.
  constexpr int kDepth = 64;
  Term a = Atom("x");
  Term b = Atom("x");
  Term c = Atom("y");
  for (int d = 0; d < kDepth; ++d) {
    a = Term::MakeFunc("f", {a});
    b = Term::MakeFunc("f", {b});
    c = Term::MakeFunc("f", {c});
  }
  EXPECT_EQ(Compare(a, b), 0);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_LT(Compare(a, c), 0);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(c < a);
  // The order is unchanged: kind, then spelling, then arguments, with a
  // proper prefix first.
  EXPECT_LT(Compare(Atom("z"), OidVar("A")), 0);
  EXPECT_LT(Compare(OidVar("Z"), ValVar("A")), 0);
  EXPECT_LT(Compare(Term::MakeFunc("f", {Atom("a")}),
                    Term::MakeFunc("f", {Atom("a"), Atom("a")})),
            0);
  EXPECT_GT(Compare(Term::MakeFunc("g", {Atom("a")}),
                    Term::MakeFunc("f", {Atom("b"), Atom("a")})),
            0);
}

TEST(TermTest, CollectVariables) {
  Term t = Term::MakeFunc("f", {OidVar("P"), Term::MakeFunc("g", {ValVar("Y")}),
                                Atom("c")});
  std::set<Term> vars;
  t.CollectVariables(&vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars.count(OidVar("P")));
  EXPECT_TRUE(vars.count(ValVar("Y")));
}

TEST(SubstitutionTest, BindAndApply) {
  TermSubstitution s;
  EXPECT_TRUE(s.Bind(OidVar("P"), Atom("p1")));
  EXPECT_TRUE(s.Bind(ValVar("Y"), Atom("name")));
  // Rebinding to the same value is idempotent; to a new value, rejected.
  EXPECT_TRUE(s.Bind(OidVar("P"), Atom("p1")));
  EXPECT_FALSE(s.Bind(OidVar("P"), Atom("p2")));
  EXPECT_EQ(s.Apply(Term::MakeFunc("f", {OidVar("P"), ValVar("Y")})),
            Term::MakeFunc("f", {Atom("p1"), Atom("name")}));
  // Unbound variables pass through.
  EXPECT_EQ(s.Apply(OidVar("Q")), OidVar("Q"));
}

TEST(SubstitutionTest, SortsOfSameNameAreIndependent) {
  TermSubstitution s;
  EXPECT_TRUE(s.Bind(OidVar("X"), Atom("o1")));
  EXPECT_EQ(s.Apply(ValVar("X")), ValVar("X"));
}

TEST(UnifyTest, AtomWithAtom) {
  TermSubstitution s;
  EXPECT_TRUE(Unify(Atom("a"), Atom("a"), &s));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(Unify(Atom("a"), Atom("b"), &s));
}

TEST(UnifyTest, VariableBinds) {
  TermSubstitution s;
  EXPECT_TRUE(Unify(OidVar("P"), Atom("p1"), &s));
  EXPECT_EQ(s.Apply(OidVar("P")), Atom("p1"));
}

TEST(UnifyTest, FunctionTermsUnifyComponentwise) {
  TermSubstitution s;
  Term lhs = Term::MakeFunc("f", {OidVar("P"), ValVar("Y")});
  Term rhs = Term::MakeFunc("f", {Atom("p1"), Atom("name")});
  EXPECT_TRUE(Unify(lhs, rhs, &s));
  EXPECT_EQ(s.Apply(lhs), rhs);
}

TEST(UnifyTest, FunctorMismatchFails) {
  TermSubstitution s;
  EXPECT_FALSE(Unify(Term::MakeFunc("f", {OidVar("P")}),
                     Term::MakeFunc("g", {OidVar("P")}), &s));
  EXPECT_FALSE(Unify(Term::MakeFunc("f", {OidVar("P")}),
                     Term::MakeFunc("f", {OidVar("P"), OidVar("Q")}), &s));
}

TEST(UnifyTest, OccursCheckRejectsCyclicBinding) {
  TermSubstitution s;
  EXPECT_FALSE(
      Unify(OidVar("P"), Term::MakeFunc("f", {OidVar("P")}), &s));
}

TEST(UnifyTest, SortDisciplineEnforced) {
  TermSubstitution s;
  // A label/value variable cannot unify with a function term (oids only).
  EXPECT_FALSE(Unify(ValVar("Y"), Term::MakeFunc("f", {Atom("a")}), &s));
  // An oid variable can.
  EXPECT_TRUE(Unify(OidVar("P"), Term::MakeFunc("f", {Atom("a")}), &s));
  // Variables of different sorts may alias each other (sorts are a
  // positional discipline, not a semantic type): see SortsCompatible.
  TermSubstitution s2;
  EXPECT_TRUE(Unify(OidVar("X"), ValVar("X'"), &s2));
}

TEST(UnifyTest, TransitiveChains) {
  // f(P, P) with f(p1, Q) forces Q = p1.
  TermSubstitution s;
  Term lhs = Term::MakeFunc("f", {OidVar("P"), OidVar("P")});
  Term rhs = Term::MakeFunc("f", {Atom("p1"), OidVar("Q")});
  EXPECT_TRUE(Unify(lhs, rhs, &s));
  EXPECT_EQ(s.Apply(OidVar("Q")), Atom("p1"));
}

TEST(UnifyTest, FailureLeavesSubstitutionUntouched) {
  TermSubstitution s;
  ASSERT_TRUE(s.Bind(OidVar("P"), Atom("p1")));
  Term lhs = Term::MakeFunc("f", {OidVar("P"), Atom("x")});
  Term rhs = Term::MakeFunc("f", {Atom("p2"), Atom("x")});
  EXPECT_FALSE(Unify(lhs, rhs, &s));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Apply(OidVar("P")), Atom("p1"));
}

TEST(UnifyTest, RespectsExistingBindings) {
  TermSubstitution s;
  ASSERT_TRUE(s.Bind(OidVar("P"), Atom("p1")));
  EXPECT_TRUE(Unify(OidVar("P"), Atom("p1"), &s));
  EXPECT_FALSE(Unify(OidVar("P"), Atom("p2"), &s));
}

}  // namespace
}  // namespace tslrw
