#include "repl/repl.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace tslrw {
namespace {

using ::testing::Test;

class ReplTest : public Test {
 protected:
  std::string Run(std::string_view line) { return session_.Execute(line); }

  void Prepare() {
    EXPECT_NE(Run("source database db { <p1 p { <n1 name ann> "
                  "<g1 gender female> }> <p2 p { <n2 name bob> }> }")
                  .find("source db defined"),
              std::string::npos);
    EXPECT_NE(Run("view (V1) <g(P') p {<pp(P',Y') pr Y'> <h(X') v Z'>}> :- "
                  "<P' p {<X' Y' Z'>}>@db")
                  .find("view V1 defined"),
              std::string::npos);
    EXPECT_NE(Run("query (Q) <f(P) out yes> :- <P p {<X Y ann>}>@db")
                  .find("query Q defined"),
              std::string::npos);
  }

  ReplSession session_;
};

TEST_F(ReplTest, HelpAndUnknown) {
  EXPECT_NE(Run("help").find("rewrite <query>"), std::string::npos);
  EXPECT_NE(Run("frobnicate").find("unknown command"), std::string::npos);
  EXPECT_EQ(Run(""), "");
  EXPECT_EQ(Run("% a comment"), "");
}

TEST_F(ReplTest, QuitEndsSession) {
  EXPECT_FALSE(session_.done());
  Run("quit");
  EXPECT_TRUE(session_.done());
}

TEST_F(ReplTest, EvalProducesAnswerDatabase) {
  Prepare();
  std::string out = Run("eval Q");
  EXPECT_NE(out.find("f(p1)"), std::string::npos);
  EXPECT_EQ(out.find("p2"), std::string::npos);
}

TEST_F(ReplTest, RewriteFindsViewRewriting) {
  Prepare();
  std::string out = Run("rewrite Q");
  EXPECT_NE(out.find("1 rewriting(s)"), std::string::npos);
  EXPECT_NE(out.find("@V1"), std::string::npos);
}

TEST_F(ReplTest, ExplainShowsPipelineStages) {
  Prepare();
  std::string out = Run("explain Q");
  EXPECT_NE(out.find("chased query:"), std::string::npos);
  EXPECT_NE(out.find("step 1A"), std::string::npos);
  EXPECT_NE(out.find("expands to:"), std::string::npos);
}

TEST_F(ReplTest, EquivalentComparesQueries) {
  Prepare();
  Run("query (Q2) <f(R) out yes> :- <R p {<W M ann>}>@db");
  EXPECT_EQ(Run("equivalent Q Q2"), "equivalent\n");
  Run("query (Q3) <f(R) out yes> :- <R p {<W M bob>}>@db");
  EXPECT_EQ(Run("equivalent Q Q3"), "not equivalent\n");
  EXPECT_NE(Run("equivalent Q nosuch").find("error"), std::string::npos);
}

TEST_F(ReplTest, MinimizeDropsRedundantCondition) {
  Prepare();
  Run("query (QR) <f(P) out yes> :- <P p {<X Y ann>}>@db AND "
      "<P p {<W M U>}>@db");
  std::string out = Run("minimize QR");
  // One condition survives.
  EXPECT_EQ(out.find(" AND "), std::string::npos);
}

TEST_F(ReplTest, MaterializeTurnsViewIntoSource) {
  Prepare();
  std::string out = Run("materialize V1");
  EXPECT_NE(out.find("materialized as a source"), std::string::npos);
  EXPECT_TRUE(session_.catalog().Contains("V1"));
  // A query straight over the materialized view evaluates.
  Run("query (QV) <r(P) hit yes> :- <g(P) p {<h(X) v ann>}>@V1");
  EXPECT_NE(Run("eval QV").find("r(p1)"), std::string::npos);
}

TEST_F(ReplTest, DtdCommandEnablesConstraintRewriting) {
  Prepare();
  Run("query (Q7) <f(P) stanford yes> :- "
      "<P p {<X name {<Z last stanford>}>}>@db");
  EXPECT_NE(Run("rewrite Q7").find("0 rewriting(s)"), std::string::npos);
  EXPECT_NE(Run("dtd <!ELEMENT p (name, phone)> "
                "<!ELEMENT name (last, first)> <!ELEMENT phone CDATA> "
                "<!ELEMENT last CDATA> <!ELEMENT first CDATA>")
                .find("constraints set"),
            std::string::npos);
  EXPECT_NE(Run("rewrite Q7").find("1 rewriting(s)"), std::string::npos);
  EXPECT_NE(Run("show constraints").find("<!ELEMENT p"), std::string::npos);
}

TEST_F(ReplTest, DataguideInfersConstraintsFromInstance) {
  Prepare();
  std::string out = Run("dataguide db");
  EXPECT_NE(out.find("constraints inferred"), std::string::npos);
  EXPECT_NE(out.find("<!ELEMENT p"), std::string::npos);
  EXPECT_NE(Run("dataguide nosuch").find("error"), std::string::npos);
}

TEST_F(ReplTest, ContainedCommand) {
  Prepare();
  Run("view (Fem) <v(P') fem {<w(X') nm Z'>}> :- "
      "<P' p {<G' gender female>}>@db AND <P' p {<X' name Z'>}>@db");
  Run("query (All) <f(P) out Z> :- <P p {<X name Z>}>@db");
  std::string out = Run("contained All total");
  EXPECT_NE(out.find("contained rule(s)"), std::string::npos);
  EXPECT_NE(out.find("@Fem"), std::string::npos);
}

TEST_F(ReplTest, ShowListsState) {
  EXPECT_EQ(Run("show sources"), "no sources\n");
  Prepare();
  EXPECT_NE(Run("show sources").find("db: "), std::string::npos);
  EXPECT_NE(Run("show views").find("(V1)"), std::string::npos);
  EXPECT_NE(Run("show queries").find("(Q)"), std::string::npos);
  EXPECT_EQ(Run("show constraints"), "no constraints\n");
  EXPECT_NE(Run("show wat").find("usage"), std::string::npos);
}

TEST_F(ReplTest, ErrorsAreRenderedNotFatal) {
  EXPECT_NE(Run("source database broken {").find("error"), std::string::npos);
  EXPECT_NE(Run("view <unnamed> :- <X a V>@db").find("error"),
            std::string::npos);
  EXPECT_NE(Run("query (Bad) <f(P) out W> :- <P a V>@db").find("error"),
            std::string::npos);  // unsafe
  EXPECT_NE(Run("eval NoSuch").find("error"), std::string::npos);
  EXPECT_NE(Run("dtd <!BROKEN>").find("error"), std::string::npos);
  EXPECT_FALSE(session_.done());
}


TEST_F(ReplTest, ExecuteScriptRunsStatementsWithContinuations) {
  std::string out = session_.ExecuteScript(
      "source database db { <p1 p { <n1 name ann> } > }\n"
      "% comment line\n"
      "query (Q) <f(P) out yes> :- \\\n"
      "  <P p {<X name ann>}>@db\n"
      "eval Q\n");
  EXPECT_NE(out.find("source db defined"), std::string::npos);
  EXPECT_NE(out.find("query Q defined"), std::string::npos);
  EXPECT_NE(out.find("f(p1)"), std::string::npos);
}

TEST_F(ReplTest, AnalyzeRendersCaretDiagnostics) {
  Prepare();
  Run("query (QCart) <f(P) out V> :- <P p V>@db AND <Q r W>@db");
  std::string out = Run("analyze QCart");
  EXPECT_NE(out.find("[TSL102]"), std::string::npos) << out;
  EXPECT_NE(out.find("QCart:1:"), std::string::npos) << out;
  // The caret snippet quotes the text as typed at `query`.
  EXPECT_NE(out.find("1 | (QCart) <f(P) out V>"), std::string::npos) << out;
  EXPECT_NE(out.find("^"), std::string::npos) << out;
  EXPECT_NE(out.find("0 error(s)"), std::string::npos) << out;
}

TEST_F(ReplTest, AnalyzeWithoutArgumentCoversAllRules) {
  Prepare();
  Run("view (Vdup) <g2(P') p {<pp2(P',Y') pr Y'> <h2(X') v Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  std::string out = Run("analyze");
  // V1 and Vdup are interchangeable, so the dead-view pass flags both.
  EXPECT_NE(out.find("[TSL104]"), std::string::npos) << out;
  EXPECT_NE(Run("analyze nosuch").find("error"), std::string::npos);
  // `:analyze` is accepted as an alias for editor integrations.
  EXPECT_EQ(Run(":analyze Q").find("unknown command"), std::string::npos);
}

TEST_F(ReplTest, LoadAndWriteRoundTripThroughFiles) {
  Prepare();
  std::string dir = ::testing::TempDir();
  std::string data_path = dir + "/tslrw_repl_test_db.oem";
  EXPECT_NE(Run("write db " + data_path).find("wrote db"),
            std::string::npos);
  std::string script_path = dir + "/tslrw_repl_test.tsl";
  {
    std::ofstream script(script_path);
    script << "query (FromFile) <f(P) out yes> :- <P p {<X name ann>}>@db\n"
           << "eval FromFile\n";
  }
  std::string out = Run("load " + script_path);
  EXPECT_NE(out.find("query FromFile defined"), std::string::npos);
  EXPECT_NE(out.find("f(p1)"), std::string::npos);
  // A fresh session can reload the written source.
  ReplSession fresh;
  std::ifstream data(data_path);
  std::ostringstream buffer;
  buffer << data.rdbuf();
  EXPECT_NE(fresh.Execute("source " + buffer.str()).find("source db defined"),
            std::string::npos);
  EXPECT_NE(Run("load /no/such/path.tsl").find("error"), std::string::npos);
  EXPECT_NE(Run("write nosuch " + data_path).find("error"),
            std::string::npos);
}

TEST_F(ReplTest, CapabilityCommandDefinesAndValidates) {
  Prepare();
  EXPECT_NE(Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
                "<P' p {<X' Y' Z'>}>@db")
                .find("capability Dump of db defined"),
            std::string::npos);
  EXPECT_NE(Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
                "<P' p {<X' Y' Z'>}>@db")
                .find("redefined"),
            std::string::npos);
  EXPECT_NE(Run("show capabilities").find("Dump"), std::string::npos);
  // Unnamed views and views over a foreign source are rejected.
  EXPECT_NE(Run("capability db <d(P') p {<X' Y' Z'>}> :- "
                "<P' p {<X' Y' Z'>}>@db")
                .find("error"),
            std::string::npos);
  EXPECT_NE(Run("capability db (Bad) <d(P') p {<X' Y' Z'>}> :- "
                "<P' p {<X' Y' Z'>}>@other")
                .find("foreign source"),
            std::string::npos);
  EXPECT_NE(Run("capability").find("usage"), std::string::npos);
}

TEST_F(ReplTest, FaultCommandScriptsAndClears) {
  EXPECT_NE(Run("fault db unavailable").find("fault on db"),
            std::string::npos);
  EXPECT_NE(Run("show faults").find("db"), std::string::npos);
  EXPECT_NE(Run("fault db flaky 0.5").find("fault on db"), std::string::npos);
  EXPECT_NE(Run("fault db slow 3").find("fault on db"), std::string::npos);
  EXPECT_NE(Run("fault db truncated 1").find("fault on db"),
            std::string::npos);
  EXPECT_NE(Run("fault db none").find("cleared"), std::string::npos);
  EXPECT_EQ(Run("show faults"), "no faults\n");
  EXPECT_NE(Run("fault db sideways").find("usage"), std::string::npos);
  EXPECT_NE(Run("fault").find("usage"), std::string::npos);
}

TEST_F(ReplTest, PlanCommandListsPlansAndDumpsIr) {
  Prepare();
  // With only views defined the command lists equivalent rewritings.
  std::string views_out = Run("plan Q");
  EXPECT_NE(views_out.find("rewriting plan(s)"), std::string::npos)
      << views_out;
  EXPECT_NE(views_out.find("@V1"), std::string::npos) << views_out;
  // `ir` appends the disassembly of the compiled plan set.
  std::string ir_out = Run("plan Q ir");
  EXPECT_NE(ir_out.find("program: "), std::string::npos) << ir_out;
  EXPECT_NE(ir_out.find("unit 0 @V1"), std::string::npos) << ir_out;
  EXPECT_NE(ir_out.find("join_unit"), std::string::npos) << ir_out;
  EXPECT_NE(ir_out.find("emit_head"), std::string::npos) << ir_out;
  EXPECT_NE(ir_out.find("segment 0"), std::string::npos) << ir_out;
  // Declared capabilities take precedence over raw views.
  Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  std::string cap_out = Run("plan Q ir");
  EXPECT_NE(cap_out.find("capability plan(s)"), std::string::npos) << cap_out;
  EXPECT_NE(cap_out.find("fuse_root"), std::string::npos) << cap_out;
  // Usage and error paths render, never throw.
  EXPECT_NE(Run("plan").find("usage"), std::string::npos);
  EXPECT_NE(Run("plan Q sideways").find("usage"), std::string::npos);
  EXPECT_NE(Run("plan NoSuch").find("error"), std::string::npos);
  ReplSession bare;
  bare.Execute("source database db { <p1 p { <n1 name ann> }> }");
  bare.Execute("query (Q) <f(X) out yes> :- <X p {}>@db");
  EXPECT_NE(bare.Execute("plan Q").find("error"), std::string::npos);
}

TEST_F(ReplTest, MediateAnswersAndReportsFaults) {
  Prepare();
  Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  std::string healthy = Run("mediate Q");
  EXPECT_NE(healthy.find("f(p1)"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("execution: complete"), std::string::npos) << healthy;
  // A dead source leaves no total plan: the answer degrades and says so.
  Run("fault db unavailable");
  std::string degraded = Run("mediate Q seed 3");
  EXPECT_NE(degraded.find("execution: degraded"), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("unreachable: db"), std::string::npos) << degraded;
  EXPECT_NE(Run("mediate NoSuch").find("error"), std::string::npos);
  EXPECT_NE(Run("mediate Q seed").find("usage"), std::string::npos);
  ReplSession bare;
  EXPECT_NE(bare.Execute("mediate Q").find("error"), std::string::npos);
}

TEST_F(ReplTest, ServeAnswersThroughThePlanCache) {
  Prepare();
  // The server needs capabilities; before `serve start`, serving errors.
  EXPECT_NE(Run("serve Q").find("no server running"), std::string::npos);
  EXPECT_NE(Run("serve start").find("no capabilities"), std::string::npos);
  Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  EXPECT_NE(Run("serve start threads 2 queue 16 cache 8")
                .find("serving 1 source interface(s) on 2 thread(s)"),
            std::string::npos);
  EXPECT_NE(Run("serve start").find("already running"), std::string::npos);

  std::string cold = Run("serve Q");
  EXPECT_NE(cold.find("f(p1)"), std::string::npos) << cold;
  EXPECT_NE(cold.find("plan cache: miss"), std::string::npos) << cold;
  std::string warm = Run("serve Q seed 7");
  EXPECT_NE(warm.find("plan cache: hit"), std::string::npos) << warm;

  std::string stats = Run("stats");
  EXPECT_NE(stats.find("1 hit(s)"), std::string::npos) << stats;
  EXPECT_NE(stats.find("1 miss(es)"), std::string::npos) << stats;

  EXPECT_NE(Run("serve stop").find("server stopped"), std::string::npos);
  // After the server stops, `stats` still shows the session metric sink
  // the serving layer recorded into.
  std::string after = Run("stats");
  EXPECT_NE(after.find("metrics:"), std::string::npos) << after;
  EXPECT_NE(after.find("serve.plan_cache_hits 1"), std::string::npos) << after;
  EXPECT_NE(after.find("serve.completed 2"), std::string::npos) << after;
  EXPECT_NE(Run("serve").find("usage"), std::string::npos);
}

TEST_F(ReplTest, ServeRoutesMutationsThroughSnapshotSwaps) {
  Prepare();
  Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  Run("serve start");
  ASSERT_NE(Run("serve Q").find("f(p1)"), std::string::npos);

  // Redefining the source publishes a new catalog snapshot; the cached
  // plans survive, so the fresh data is served off a plan-cache hit.
  std::string redefine =
      Run("source database db { <p3 p { <n3 name ann> }> }");
  EXPECT_NE(redefine.find("published"), std::string::npos) << redefine;
  std::string after = Run("serve Q");
  EXPECT_NE(after.find("f(p3)"), std::string::npos) << after;
  EXPECT_EQ(after.find("f(p1)"), std::string::npos) << after;
  EXPECT_NE(after.find("plan cache: hit"), std::string::npos) << after;

  // A genuine capability change replaces the server's mediator, and
  // selective maintenance invalidates the cached plans that the new view
  // could extend: the next serving plans afresh.
  EXPECT_NE(Run("capability db (Dump2) <d2(P') p {<X' Y' Z'>}> :- "
                "<P' p {<X' Y' Z'>}>@db")
                .find("server mediator replaced"),
            std::string::npos);
  std::string replanned = Run("serve Q");
  EXPECT_NE(replanned.find("plan cache: miss"), std::string::npos)
      << replanned;
  std::string stats = Run("stats");
  EXPECT_NE(stats.find("1 catalog swap(s)"), std::string::npos) << stats;
  EXPECT_NE(stats.find("1 mediator swap(s)"), std::string::npos) << stats;
}

TEST_F(ReplTest, CompileAnalyzesTheCatalogAndAttachesToTheServer) {
  // Nothing declared yet: compile has no catalog to work on.
  EXPECT_NE(Run("compile").find("no capabilities or views"),
            std::string::npos);
  EXPECT_NE(Run("compile everything").find("usage"), std::string::npos);

  Prepare();
  Run("capability db (Dump) <d(P') p {<X' Y' Z'>}> :- "
      "<P' p {<X' Y' Z'>}>@db");
  Run("capability db (DumpCopy) <d(Q') p {<U' V' W'>}> :- "
      "<Q' p {<U' V' W'>}>@db");
  std::string report = Run("compile");
  EXPECT_NE(report.find("TSL201"), std::string::npos) << report;
  EXPECT_NE(report.find("compiled 2 view(s)"), std::string::npos) << report;

  // With a server running, compile only reports: the server's mediator
  // already plans through the view index it built at Make, and serving
  // carries on untouched.
  Run("serve start");
  std::string served = Run("compile");
  EXPECT_NE(served.find("compiled 2 view(s)"), std::string::npos) << served;
  EXPECT_EQ(served.find("attached"), std::string::npos) << served;
  EXPECT_NE(Run("serve Q").find("f(p1)"), std::string::npos);
  Run("serve stop");
}

}  // namespace
}  // namespace tslrw
