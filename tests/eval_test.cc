#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "oem/bisim.h"
#include "oem/generator.h"
#include "tsl/normal_form.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

Term Atom(const char* s) { return Term::MakeAtom(s); }

SourceCatalog PersonCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person {
        <g1 gender female>
        <n1 name ashish>
        <ph1 phone "555-1234">
      }>
      <p2 person {
        <g2 gender male>
        <n2 name rahul>
      }>
    })"));
  return catalog;
}

TEST(EvalTest, Q1SemanticsFromSection2) {
  SourceCatalog catalog = PersonCatalog();
  auto answer = Evaluate(MustParse(testing::kQ1, "Q1"), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Only p1 is female. The answer root is f(p1), labeled female, with one
  // f(x) subobject per (x,y,z) subobject of p1 — fused into one object.
  Term fp1 = Term::MakeFunc("f", {Atom("p1")});
  EXPECT_EQ(answer->roots(), std::set<Oid>{fp1});
  const OemObject* root = answer->Find(fp1);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->label, "female");
  ASSERT_TRUE(root->value.is_set());
  EXPECT_EQ(root->value.children().size(), 3u);
  const OemObject* copied_name =
      answer->Find(Term::MakeFunc("f", {Atom("n1")}));
  ASSERT_NE(copied_name, nullptr);
  EXPECT_EQ(copied_name->label, "name");
  EXPECT_EQ(copied_name->value.atom(), "ashish");
}

TEST(EvalTest, NormalFormPreservesSemantics) {
  SourceCatalog catalog = PersonCatalog();
  TslQuery q1 = MustParse(testing::kQ1, "Q");
  TslQuery q2 = ToNormalForm(q1);
  auto a1 = Evaluate(q1, catalog);
  auto a2 = Evaluate(q2, catalog);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_TRUE(a1->Equals(*a2));
}

TEST(EvalTest, EmptyResultWhenNothingMatches) {
  SourceCatalog catalog = PersonCatalog();
  auto answer =
      Evaluate(MustParse("<f(P) r yes> :- <P person {<G gender other>}>@db"),
               catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->roots().empty());
  EXPECT_EQ(answer->size(), 0u);
}

TEST(EvalTest, ConstantsFilterAtomicValues) {
  SourceCatalog catalog = PersonCatalog();
  auto answer = Evaluate(
      MustParse("<f(P) match yes> :- <P person {<N name rahul>}>@db"),
      catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->roots(), std::set<Oid>{Term::MakeFunc("f", {Atom("p2")})});
}

TEST(EvalTest, LabelVariablesBindToLabels) {
  SourceCatalog catalog = PersonCatalog();
  // Project the label of every subobject of p1 as an atomic value.
  auto answer = Evaluate(
      MustParse("<f(P,Y) lab Y> :- <P person {<X Y Z>}>@db"), catalog);
  ASSERT_TRUE(answer.ok());
  // p1 has 3 subobject labels, p2 has 2; one answer object each.
  EXPECT_EQ(answer->roots().size(), 5u);
  const OemObject* o =
      answer->Find(Term::MakeFunc("f", {Atom("p1"), Atom("gender")}));
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->value.atom(), "gender");
}

TEST(EvalTest, FusionMergesSameSkolemOid) {
  SourceCatalog catalog = PersonCatalog();
  // One f(P) object per person, fusing each (X,Y,Z) into its child set.
  auto answer = Evaluate(
      MustParse("<f(P) rec {<f(X) Y Z>}> :- <P person {<X Y Z>}>@db"),
      catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->roots().size(), 2u);
  const OemObject* r1 = answer->Find(Term::MakeFunc("f", {Atom("p1")}));
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->value.children().size(), 3u);
}

TEST(EvalTest, FusionConflictOnContradictoryAtomics) {
  SourceCatalog catalog = PersonCatalog();
  // f() (one shared oid) would need two different atomic values.
  auto answer =
      Evaluate(MustParse("<f() v Z> :- <P person {<G gender Z>}>@db"),
               catalog);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFusionConflict);
}

TEST(EvalTest, SetValueBindingCopiesSubgraph) {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person {
        <n1 name { <l1 last smith> <f1 first jo> }>
      }>
    })"));
  // V binds to the set value of n1; the answer object adopts n1's children
  // and the subgraph is copied.
  auto answer = Evaluate(
      MustParse("<f(X) copy V> :- <P person {<X name V>}>@db"), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  Term fx = Term::MakeFunc("f", {Atom("n1")});
  const OemObject* root = answer->Find(fx);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->value.children().size(), 2u);
  const OemObject* l1 = answer->Find(Atom("l1"));
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->value.atom(), "smith");
}

TEST(EvalTest, SetValueBindingWithCyclicSubgraph) {
  // "the query result can actually be a graph: a constructed tree with
  //  (perhaps cyclic) subgraphs potentially hanging off some branches".
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person {
        <k1 knows { <p2 person { <k2 knows { @p1 } > }> }>
      }>
    })"));
  auto answer = Evaluate(
      MustParse("<f(X) copy V> :- <P person {<X knows V>}>@db"), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->Validate().ok());
  // The cycle p1 -> k1 -> p2 -> k2 -> p1 is present in the copied portion.
  EXPECT_NE(answer->Find(Atom("p1")), nullptr);
  EXPECT_NE(answer->Find(Atom("k2")), nullptr);
}

TEST(EvalTest, Q10AndQ11AreEquivalentOnData) {
  // Example 3.4's pair: (Q11) uses a set variable, (Q10) the chased form.
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <s1 p {
        <u1 university stanford>
        <d1 dept { <dn1 deptname cs> }>
      }>
      <s2 p { <u2 university berkeley> }>
    })"));
  auto a10 = Evaluate(MustParse(testing::kQ10, "Q"), catalog);
  auto a11 = Evaluate(MustParse(testing::kQ11, "Q"), catalog);
  ASSERT_TRUE(a10.ok()) << a10.status();
  ASSERT_TRUE(a11.ok()) << a11.status();
  EXPECT_TRUE(a10->Equals(*a11))
      << "Q10:\n" << a10->ToString() << "Q11:\n" << a11->ToString();
}

TEST(EvalTest, MultipleSources) {
  SourceCatalog catalog;
  catalog.Put(MustParseDb("database db1 { <a x u> }"));
  catalog.Put(MustParseDb("database db2 { <b y v> }"));
  auto answer = Evaluate(
      MustParse("<f(A,B) pair yes> :- <A x U>@db1 AND <B y V>@db2"), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->roots().size(), 1u);
}

TEST(EvalTest, MissingSourceFails) {
  SourceCatalog catalog = PersonCatalog();
  auto answer = Evaluate(MustParse("<f(P) r yes> :- <P a V>@nope"), catalog);
  EXPECT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsNotFound());
}

TEST(EvalTest, DefaultSourceUsedWhenUnannotated) {
  SourceCatalog catalog = PersonCatalog();
  EvalOptions options;
  options.default_source = "db";
  auto answer = Evaluate(
      MustParse("<f(P) found yes> :- <P person {<G gender female>}>"),
      catalog, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->roots().size(), 1u);
}

TEST(EvalTest, JoinAcrossConditions) {
  SourceCatalog catalog = PersonCatalog();
  // Join on P: gender female AND a phone subobject.
  auto answer = Evaluate(MustParse(
      "<f(P) both yes> :- <P person {<G gender female>}>@db AND "
      "<P person {<H phone W>}>@db"), catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->roots().size(), 1u);
  // Nobody is male with a phone.
  auto none = Evaluate(MustParse(
      "<f(P) both yes> :- <P person {<G gender male>}>@db AND "
      "<P person {<H phone W>}>@db"), catalog);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->roots().empty());
}

TEST(EvalTest, SetPatternMembersMayShareAWitness) {
  SourceCatalog catalog = PersonCatalog();
  // Both members can match the same gender subobject of p1.
  auto answer = Evaluate(MustParse(
      "<f(P) ok yes> :- <P person {<G gender female> <X Y female>}>@db"),
      catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->roots().size(), 1u);
}

TEST(EvalTest, MatchingOverMaterializedViewWithSkolemOids) {
  // Materialize (V1) and run a query against its g(...)/pp(...)/h(...)
  // answer objects; the body oid patterns are function terms. (V1) ranges
  // over objects labeled `p`, the paper's abbreviation.
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p { <n1 name ashish> <g1 gender female> }>
      <p2 p { <n2 name rahul> }>
    })"));
  auto view = MaterializeView(MustParse(testing::kV1, "V1"), catalog);
  ASSERT_TRUE(view.ok()) << view.status();
  catalog.Put(std::move(*view));
  auto answer = Evaluate(
      MustParse("<r(P) person-with-values yes> :- "
                "<g(P) p {<h(X) v ashish>}>@V1"),
      catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->roots(),
            std::set<Oid>{Term::MakeFunc("r", {Atom("p1")})});
}

TEST(EvalTest, EmptySetPatternMatchesAnySetObject) {
  SourceCatalog catalog = PersonCatalog();
  auto answer =
      Evaluate(MustParse("<f(P) isset yes> :- <P person {}>@db"), catalog);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->roots().size(), 2u);
  // Atomic objects do not match {}.
  auto none =
      Evaluate(MustParse("<f(G) isset yes> :- <P person {<G gender {}>}>@db"),
               catalog);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->roots().empty());
}

TEST(EvalTest, RuleSetUnionFusesAcrossRules) {
  SourceCatalog catalog = PersonCatalog();
  TslRuleSet rules;
  rules.rules.push_back(
      MustParse("<f(P) rec {<f(G) has-gender Z>}> :- "
                "<P person {<G gender Z>}>@db", "R"));
  rules.rules.push_back(
      MustParse("<f(P) rec {<f(N) has-name Z>}> :- "
                "<P person {<N name Z>}>@db", "R"));
  auto answer = EvaluateRuleSet(rules, catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const OemObject* r1 = answer->Find(Term::MakeFunc("f", {Atom("p1")}));
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->value.children().size(), 2u);  // gender + name contributions
}

TEST(EvalTest, AnswersAreDeterministic) {
  GeneratorOptions opt;
  opt.seed = 11;
  opt.num_roots = 8;
  opt.max_depth = 3;
  opt.num_labels = 3;
  SourceCatalog catalog;
  OemDatabase db = GenerateOemDatabase("db", opt);
  catalog.Put(db);
  TslQuery q = MustParse("<f(X,Y) out Z> :- <R l0 {<X Y Z>}>@db");
  auto a1 = Evaluate(q, catalog);
  auto a2 = Evaluate(q, catalog);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_TRUE(a1->Equals(*a2));
  EXPECT_EQ(a1->ToString(), a2->ToString());
}

TEST(EvalTest, DeepConstantHeadOidEvaluatesQuickly) {
  // Regression: a 26-deep constant head oid took 4.3 s over two objects,
  // because every answer-map lookup compared equal deep terms in 2^depth.
  constexpr int kDepth = 64;
  std::string oid = "c";
  for (int d = 0; d < kDepth; ++d) oid = "f(" + oid + ")";
  SourceCatalog catalog;
  catalog.Put(MustParseDb("database db { <o1 a \"1\"> <o2 a \"2\"> }"));
  auto answer = Evaluate(
      MustParse("<" + oid + " out yes> :- <X a V>@db", "Deep"), catalog);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->roots().size(), 1u);
  EXPECT_EQ(answer->size(), 1u);
}

}  // namespace
}  // namespace tslrw
