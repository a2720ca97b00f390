// Byte-identity of compiled plan execution: for every rule set, ExecuteIr
// must return exactly the answer of the tree walker — same graph, same
// roots, same database name, and the same error (code and message) on the
// same input. docs/IR.md states the argument; this suite pins it across
// the paper fixtures, DTD-shaped data and seeded-random rules. The mediator
// and the server, which always run the IR, are checked against the tree
// walker's answer to the original query over the sources (Theorem 5.5),
// under injected faults and at 8 concurrent requests.

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "constraints/dtd.h"
#include "eval/evaluator.h"
#include "fixtures.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "oem/generator.h"
#include "obs/metrics.h"
#include "service/server.h"
#include "testing/random_rules.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

/// Renders an evaluation outcome so that equal strings mean byte-identical
/// observables: status on error, else database name + canonical text.
std::string RenderOutcome(Result<OemDatabase> result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  const OemDatabase& db = *result;
  return db.name() + "\n" + db.ToString();
}

/// Tree-vs-IR identity for one rule.
void ExpectQueryIdentity(const TslQuery& query, const SourceCatalog& catalog,
                         const std::string& default_source = "db") {
  EvalOptions eval_opts;
  eval_opts.default_source = default_source;
  std::string tree = RenderOutcome(Evaluate(query, catalog, eval_opts));
  auto program = PlanCompiler().Compile(query);
  ASSERT_TRUE(program.ok()) << program.status();
  IrExecOptions exec;
  exec.default_source = default_source;
  std::string ir = RenderOutcome(ExecuteIr(**program, catalog, exec));
  EXPECT_EQ(tree, ir) << query.ToString();
}

/// Tree-vs-IR identity for a rule set sharing one answer database.
void ExpectRuleSetIdentity(const TslRuleSet& rules,
                           const SourceCatalog& catalog) {
  std::string tree = RenderOutcome(EvaluateRuleSet(rules, catalog));
  auto program = PlanCompiler().Compile(rules);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(tree, RenderOutcome(ExecuteIr(**program, catalog)));
}

/// Tree-vs-IR identity for a plan set executed plan-by-plan: one answer per
/// plan (how the mediator runs rewritten plan sets), with match units
/// shared across all plans on the IR side.
void ExpectPlanSetIdentity(const std::vector<TslQuery>& plans,
                           const SourceCatalog& catalog) {
  std::vector<std::string> tree;
  tree.reserve(plans.size());
  for (const TslQuery& plan : plans) {
    tree.push_back(RenderOutcome(Evaluate(plan, catalog)));
  }
  auto program = PlanCompiler().CompilePlans(plans);
  ASSERT_TRUE(program.ok()) << program.status();
  auto answers = ExecuteIrPerSegment(**program, catalog);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(tree[i],
              (*answers)[i].name() + "\n" + (*answers)[i].ToString())
        << "plan " << i << "\n"
        << plans[i].ToString();
  }
}

SourceCatalog PeopleCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person {
        <g1 gender female>
        <n1 name {<l1 last smith> <f1 first ann>}>
        <u1 university stanford>
      }>
      <p2 person {
        <g2 gender male>
        <n2 name {<l2 last jones> <f2 first bo>}>
      }>
      <p3 p {
        <x1 name {<z1 last stanford>}>
        <y1 office leland>
      }>
      <p4 p {
        <x2 phone leland>
        <u2 university stanford>
      }>
    })"));
  return catalog;
}

TEST(IrEquivalenceTest, PaperFixtureSuite) {
  SourceCatalog catalog = PeopleCatalog();
  for (std::string_view text :
       {testing::kQ1, testing::kQ2, testing::kQ3, testing::kQ5, testing::kQ7,
        testing::kQ9, testing::kQ10, testing::kQ11, testing::kQ12,
        testing::kQ13, testing::kQ14}) {
    ExpectQueryIdentity(MustParse(text, "Q"), catalog);
  }
}

TEST(IrEquivalenceTest, SetValueCopyAndFusion) {
  SourceCatalog catalog = PeopleCatalog();
  // Whole-subgraph copies (value variables over set objects) exercise the
  // CopySubgraph path.
  ExpectQueryIdentity(
      MustParse("<c(P) copy V> :- <P person V>@db", "Copy"), catalog);
  ExpectQueryIdentity(
      MustParse("<c(P) copy {<f(X) m V>}> :- <P person {<X name V>}>@db",
                "DeepCopy"),
      catalog);
  // Two rules fusing into the same answer objects.
  TslRuleSet fused;
  fused.rules = {
      MustParse("<f(P) person {<g(G) has Z>}> :- "
                "<P person {<G gender Z>}>@db",
                "R1"),
      MustParse("<f(P) person {<h(X) copy V>}> :- "
                "<P person {<X name V>}>@db",
                "R2"),
  };
  ExpectRuleSetIdentity(fused, catalog);
}

TEST(IrEquivalenceTest, ErrorsAreIdentical) {
  SourceCatalog catalog = PeopleCatalog();
  // Unsafe head variable (never bound by the body).
  ExpectQueryIdentity(
      MustParse("<f(P) out W0> :- <P person {}>@db", "Unsafe"), catalog);
  // Subgraph binding used where an atomic term is required (oid position).
  ExpectQueryIdentity(
      MustParse("<f(V) out yes> :- <P person V>@db", "SubgraphOid"),
      catalog);
  // Head value instantiates to a function term.
  ExpectQueryIdentity(
      MustParse("<f(P) out g(P)> :- <P person {}>@db", "FuncValue"),
      catalog);
  // Missing source: an error only when evaluation actually reaches the
  // condition — after an empty frontier the tree walker stops resolving,
  // and lazy IR source resolution must stop at the same point.
  ExpectQueryIdentity(
      MustParse("<f(P) out yes> :- <P person {}>@nosuch", "MissingSource"),
      catalog);
  ExpectQueryIdentity(
      MustParse("<f(P) out yes> :- "
                "<P nolabel {}>@db AND <P person {}>@nosuch",
                "UnreachedSource"),
      catalog);
}

TEST(IrEquivalenceTest, DtdShapedSuite) {
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p {
        <n1 name {<l1 last smith> <f1 first ann>
                  <a1 alias {<l2 last stanford> <f2 first annie>}>}>
        <ph1 phone "555">
        <ad1 address "main st">
      }>
      <p2 p {
        <n2 name {<l3 last stanford> <f3 first bo>}>
        <ph2 phone "556">
      }>
    })"));
  ExpectQueryIdentity(MustParse(testing::kQ7, "Q7"), catalog);
  ExpectQueryIdentity(MustParse(testing::kQ12, "Q12"), catalog);
  ExpectQueryIdentity(MustParse(testing::kQ13, "Q13"), catalog);
  ExpectQueryIdentity(
      MustParse("<f(P) names {<X Y Z>}> :- <P p {<N name {<X Y Z>}>}>@db",
                "AllNames"),
      catalog);
}

TEST(IrEquivalenceTest, RegexStepSuite) {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <r1 part {
        <s1 part {<s2 part {<l1 leaf v0>}> <l2 leaf v1>}>
        <o1 other {<l3 leaf v2>}>
      }>
    })"));
  // Label-closure chains and descendant steps drive StepCandidates' BFS,
  // shared verbatim between the walker and the interpreter.
  ExpectQueryIdentity(
      MustParse("<f(X) out Z> :- <R part {<X part+ {<L leaf Z>}>}>@db",
                "Chain"),
      catalog);
  ExpectQueryIdentity(
      MustParse("<f(X) out Z> :- <R part {<X ** Z>}>@db", "Desc"), catalog);
}

TEST(IrEquivalenceTest, SeededRandomSuite) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorOptions gen;
    gen.seed = seed;
    gen.num_roots = 6;
    gen.max_depth = 3;
    gen.num_labels = 3;
    gen.num_values = 3;
    gen.root_label = "root";
    gen.share_probability = 0.2;
    SourceCatalog catalog;
    OemDatabase db = GenerateOemDatabase("db", gen);
    catalog.Put(db);

    testing::RandomRules rules(seed, /*num_labels=*/3, /*num_values=*/3,
                               "root");
    std::vector<TslQuery> plans = {
        rules.Query("Q0", "db"), rules.View("V0", "db"),
        rules.CopyView("V1", "db"), rules.DeepView("V2", "db"),
        rules.Query("Q1", "db"),
    };
    for (const TslQuery& plan : plans) {
      ExpectQueryIdentity(plan, catalog);
    }
    ExpectPlanSetIdentity(plans, catalog);
    TslRuleSet set;
    set.rules = {plans[0], plans[4]};
    ExpectRuleSetIdentity(set, catalog);
  }
}

/// Units with a body in the op vector — the units an execution can
/// materialize.
size_t LiveUnits(const IrProgram& program) {
  size_t live = 0;
  for (const IrUnit& unit : program.units) {
    if (unit.begin < unit.end) ++live;
  }
  return live;
}

/// The two plans of CseSharesAlphaEquivalentConditions: they differ only by
/// variable naming.
std::vector<TslQuery> AlphaEquivalentPlans() {
  return {
      MustParse("<f(P) out Z> :- <P person {<X name Z>}>@db", "A"),
      MustParse("<f(Q) out W> :- <Q person {<Y name W>}>@db", "B"),
  };
}

TEST(IrEquivalenceTest, CseSharesAlphaEquivalentConditions) {
  SourceCatalog catalog = PeopleCatalog();
  // The two conditions share one unit, and answers do not change.
  std::vector<TslQuery> plans = AlphaEquivalentPlans();
  ExpectPlanSetIdentity(plans, catalog);

  MetricRegistry metrics;
  PlanCompiler compiler(&metrics);
  auto program = compiler.CompilePlans(plans);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(metrics.GetCounter("ir.units_shared")->value(), 1u);
  EXPECT_EQ(LiveUnits(**program), 1u);

  // A shared unit is materialized exactly once per execution.
  MetricRegistry exec_metrics;
  IrExecOptions exec;
  exec.metrics = &exec_metrics;
  auto answers = ExecuteIrPerSegment(**program, catalog, exec);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(exec_metrics.GetCounter("ir.units_materialized")->value(), 1u);
}

/// A k = 3 star plan set over replica views: plan j reads arm i from the
/// mirror `V<i>m` when bit i of j is set, else from `V<i>`, and odd plans
/// rename every variable so that a unit's sorted columns come in a
/// different order than the reusing condition's first occurrences.
std::vector<TslQuery> ReplicaStarPlans() {
  std::vector<TslQuery> plans;
  for (int j = 0; j < 8; ++j) {
    const bool odd = j % 2 == 1;
    const std::string root = odd ? "Z" : "P";
    std::vector<std::string> conditions;
    for (int i = 0; i < 3; ++i) {
      conditions.push_back(StrCat("<", root, " rec {<", odd ? "A" : "X", i,
                                  " l", i, " u", i, ">}>@V", i,
                                  (j >> i) & 1 ? "m" : ""));
    }
    plans.push_back(MustParse(StrCat("<f(", root, ") hit yes> :- ",
                                     Join(conditions, " AND ")),
                              StrCat("S", j)));
  }
  return plans;
}

/// Each arm's view and its mirror hold the same rows; p1 and p2 match every
/// arm, p3 misses arm 1.
SourceCatalog ReplicaStarCatalog() {
  SourceCatalog catalog;
  for (int i = 0; i < 3; ++i) {
    for (const char* mirror : {"", "m"}) {
      std::string text = StrCat("database V", i, mirror, " {\n");
      for (int r = 1; r <= 3; ++r) {
        const bool hit = !(i == 1 && r == 3);
        StrAppend(&text, "<p", r, " rec {<c", r, "_", i, " l", i, " ",
                  hit ? StrCat("u", i) : "x", ">}>\n");
      }
      StrAppend(&text, "}");
      catalog.Put(MustParseDb(text));
    }
  }
  return catalog;
}

TEST(IrEquivalenceTest, CompiledProgramShapesArePinned) {
  struct Case {
    const char* name;
    std::vector<TslQuery> plans;
    SourceCatalog catalog;
    size_t ops;
    size_t live_units;
    uint64_t units_shared;
    size_t roots;  ///< answer roots summed over the plans
  };
  const Case cases[] = {
      {"Q1", {MustParse(testing::kQ1, "Q1")}, PeopleCatalog(), 18, 1, 0, 1},
      {"alpha pair", AlphaEquivalentPlans(), PeopleCatalog(), 19, 1, 1, 4},
      {"replica star", ReplicaStarPlans(), ReplicaStarCatalog(), 110, 6, 18,
       16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectPlanSetIdentity(c.plans, c.catalog);
    MetricRegistry metrics;
    auto program = PlanCompiler(&metrics).CompilePlans(c.plans);
    ASSERT_TRUE(program.ok()) << program.status();
    EXPECT_EQ((*program)->ops.size(), c.ops);
    EXPECT_EQ(LiveUnits(**program), c.live_units);
    EXPECT_EQ(metrics.GetCounter("ir.units_shared")->value(), c.units_shared);
    auto answers = ExecuteIrPerSegment(**program, c.catalog);
    ASSERT_TRUE(answers.ok()) << answers.status();
    size_t roots = 0;
    for (const OemDatabase& answer : *answers) roots += answer.roots().size();
    EXPECT_EQ(roots, c.roots);
  }
}

TEST(IrEquivalenceTest, DisassemblyListsOpsAndUnits) {
  PlanCompiler compiler;
  auto program =
      compiler.Compile(MustParse(testing::kQ1, "Q1"));
  ASSERT_TRUE(program.ok()) << program.status();
  std::string text = Disassemble(**program);
  for (const char* needle :
       {"program: 18 op(s), 1 segment(s), 1 unit(s)", "iter_roots",
        "match_oid", "join_unit", "emit_row", "emit_head", "fuse_root",
        "unit 0 @db fp="}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  // Dumps are deterministic.
  EXPECT_EQ(text, Disassemble(**program));
}

// --- mediator and server: served answers against the reference --------------

SourceCatalog BiblioCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database s1 {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Constraints"> <v2 venue "VLDB"> <y2 year "1997">
      }>
    })"));
  catalog.Put(MustParseDb(R"(
    database s2 {
      <b1 publication {
        <u1 title "Wrappers"> <w1 venue "SIGMOD"> <x1 year "1997">
      }>
    })"));
  return catalog;
}

/// s1 exposes a 1997 filter; s2 is replicated behind two α-equivalent dump
/// mirrors, so a dead mirror has somewhere to fail over, and also exports
/// each publication's whole value, which a copying head needs.
std::vector<SourceDescription> BiblioSources() {
  Capability y97;
  y97.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  Capability dump_a;
  dump_a.view = MustParse(
      "<da(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "DumpA");
  Capability dump_b;
  dump_b.view = MustParse(
      "<db(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "DumpB");
  Capability whole;
  whole.view =
      MustParse("<w(P') pub V'> :- <P' publication V'>@s2", "Whole");
  return {SourceDescription{"s1", {y97}}, SourceDescription{"s2", {dump_a}},
          SourceDescription{"s2", {dump_b}},
          SourceDescription{"s2", {whole}}};
}

/// The served queries: a filter per source, a projection of titles, and a
/// head that copies each publication's whole member subgraph.
std::vector<TslQuery> BiblioQueries() {
  return {
      MustParse("<f(P) out yes> :- <P publication {<U year \"1997\">}>@s1",
                "Q97"),
      MustParse(
          "<g(P) sigmod yes> :- <P publication {<V venue \"SIGMOD\">}>@s2",
          "Sigmod"),
      MustParse("<t(X) title T> :- "
                "<P publication {<U year \"1997\"> <X title T>}>@s1",
                "Titles"),
      MustParse("<c(P) pub V> :- <P publication V>@s2", "Copy"),
  };
}

/// The oracle: the tree walker's answer to the original query over the
/// sources. Theorem 5.5 makes a complete served answer byte-identical to it.
OemDatabase Reference(const TslQuery& query, const SourceCatalog& catalog) {
  Result<OemDatabase> answer = Evaluate(query, catalog);
  EXPECT_TRUE(answer.ok()) << answer.status();
  return answer.ok() ? std::move(*answer) : OemDatabase();
}

std::string RenderDb(const OemDatabase& db) {
  return db.name() + "\n" + db.ToString();
}

/// True when every root and object of \p part is in \p whole with the same
/// label and atomic value, and every set's members are members there too.
bool IsSubDatabase(const OemDatabase& part, const OemDatabase& whole) {
  for (const Oid& root : part.roots()) {
    if (whole.roots().count(root) == 0) return false;
  }
  for (const auto& [oid, obj] : part.objects()) {
    const OemObject* other = whole.Find(oid);
    if (other == nullptr || other->label != obj.label ||
        other->is_atomic() != obj.is_atomic()) {
      return false;
    }
    if (obj.is_atomic()) {
      if (other->value.atom() != obj.value.atom()) return false;
      continue;
    }
    for (const Oid& child : obj.value.children()) {
      if (other->value.children().count(child) == 0) return false;
    }
  }
  return true;
}

TEST(IrEquivalenceTest, DegradedAnswersMatchTheReference) {
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  SourceCatalog catalog = BiblioCatalog();
  for (const TslQuery& query : BiblioQueries()) {
    const OemDatabase reference = Reference(query, catalog);
    ASSERT_FALSE(reference.roots().empty()) << query.ToString();
    const std::string& source = query.body.front().source;
    for (const char* dead : {"", "s1", "s2"}) {
      for (uint64_t seed = 0; seed < 8; ++seed) {
        CatalogWrapper base;
        VirtualClock clock;
        FaultInjector injector(&base, seed, &clock);
        if (*dead != '\0') {
          FaultSchedule schedule;
          schedule.steady_state = Fault::Unavailable();
          injector.SetSchedule(dead, schedule);
        }
        ExecutionPolicy policy;
        policy.wrapper = &injector;
        policy.clock = &clock;
        policy.seed = seed;
        policy.retry.max_attempts = 2;
        policy.retry.initial_backoff_ticks = 1;
        auto answer = mediator->Answer(query, catalog, policy);
        ASSERT_TRUE(answer.ok()) << answer.status();
        const std::string context =
            StrCat(query.name, " dead=", dead, " seed ", seed, "\n",
                   RenderDb(answer->result));
        if (answer->complete()) {
          EXPECT_EQ(RenderDb(reference), RenderDb(answer->result)) << context;
        } else {
          EXPECT_TRUE(IsSubDatabase(answer->result, reference)) << context;
        }
        // When the query's own source is the dead one, the degraded path
        // must actually have run. A source is listed as unreachable once
        // every view exporting it failed; Copy's only plan reads Whole, so
        // s2's dump mirrors are never tried for it.
        if (source == dead) {
          EXPECT_FALSE(answer->complete()) << context;
          if (query.name != "Copy") {
            EXPECT_EQ(answer->unreachable_sources,
                      std::vector<std::string>{source})
                << context;
          }
        }
      }
    }
  }
}

TEST(IrEquivalenceTest, ParallelServerAnswersMatchTheReference) {
  // A concurrent request mix at parallelism 8 (the TSan CI job runs this
  // binary): every answer must equal the reference byte for byte.
  SourceCatalog catalog = BiblioCatalog();
  const std::vector<TslQuery> queries = BiblioQueries();
  std::vector<std::string> references;
  for (const TslQuery& query : queries) {
    references.push_back(RenderDb(Reference(query, catalog)));
  }
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  ServerOptions options;
  options.threads = 8;
  QueryServer server(std::move(*mediator), catalog, options);
  constexpr size_t kRequests = 24;
  std::vector<std::future<Result<ServeResponse>>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    ServeOptions serve;
    serve.seed = i;
    auto submitted = server.Submit(queries[i % queries.size()], serve);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<ServeResponse> response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->answer.complete()) << "request " << i;
    EXPECT_EQ(references[i % queries.size()],
              RenderDb(response->answer.result))
        << "request " << i;
  }
}

}  // namespace
}  // namespace tslrw
