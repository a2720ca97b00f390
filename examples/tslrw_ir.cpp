// Compiled plan execution: lowers a capability-based rewriting plan set to
// the flat register IR (src/ir), disassembles the program (what the
// `plan <Q> ir` shell command prints), and proves the point of the
// exercise — the interpreter's answer is byte-identical to the tree
// walker's, both for the query compiled directly and end to end through
// the mediator.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "eval/evaluator.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "ir/ir.h"
#include "mediator/mediator.h"
#include "oem/parser.h"
#include "tsl/parser.h"

namespace {

void Fail(const tslrw::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(tslrw::Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace tslrw;

  SourceCatalog catalog;
  catalog.Put(Must(ParseOemDatabase(R"(
    database db {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Wrappers"> <v2 venue "VLDB"> <y2 year "1997">
      }>
      <a3 publication {
        <t3 title "Mediators"> <v3 venue "SIGMOD"> <y3 year "1996">
      }>
    })")));

  // Two α-equivalent dump views (replicated mirrors) plus a venue index:
  // the rewriter produces several plans whose bodies share submatches,
  // which the compiler turns into shared match units.
  auto view = [](const char* name, const std::string& text) {
    Capability cap;
    cap.view = Must(ParseTslQuery(text, name));
    return cap;
  };
  Mediator mediator = Must(Mediator::Make({SourceDescription{
      "db",
      {view("MirrorA",
            "<ma(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db"),
       view("MirrorB",
            "<mb(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@db"),
       view("Venues",
            "<vi(P') entry {<V' venue W'>}> :- "
            "<P' publication {<V' venue W'>}>@db")}}}));

  TslQuery query = Must(ParseTslQuery(
      R"(<f(P,R) sigmod hit> :-
           <P publication {<U year "1997">}>@db AND
           <R publication {<V venue "SIGMOD">}>@db)",
      "Sigmod97"));
  std::printf("query: %s\n\n", query.ToString().c_str());

  MediatorPlanSet plans = Must(mediator.Plan(query));
  std::printf("%zu capability plan(s):\n", plans.size());
  std::vector<TslQuery> rewritings;
  for (const MediatorPlan& plan : plans) {
    std::printf("  %s\n", plan.ToString().c_str());
    rewritings.push_back(plan.rewriting);
  }

  // The compiled program, disassembled (what `plan <Q> ir` prints).
  PlanCompiler compiler;
  auto program = Must(compiler.CompilePlans(rewritings));
  std::printf("\n=== disassembly ===\n%s", Disassemble(*program).c_str());

  // Byte-identity, two ways. First the original query, tree walker vs
  // interpreter:
  OemDatabase tree_answer = Must(Evaluate(query, catalog));
  OemDatabase ir_answer =
      Must(ExecuteIr(*Must(compiler.Compile(query)), catalog));
  bool all_identical = ir_answer.ToString() == tree_answer.ToString() &&
                       ir_answer.name() == tree_answer.name();
  // Then end to end: the mediator's answer, which runs the compiled plan
  // over the fetched view results, against the query evaluated directly.
  DegradedAnswer served = Must(mediator.Answer(query, catalog));
  all_identical = all_identical && served.complete() &&
                  served.result.ToString() == tree_answer.ToString() &&
                  served.result.name() == tree_answer.name();

  std::printf("\ntree vs IR byte-identical: %s\n%s",
              all_identical ? "yes" : "NO (bug!)",
              tree_answer.ToString().c_str());
  return all_identical ? 0 : 1;
}
