#include "catalog/compiler.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostic.h"
#include "catalog/diff.h"
#include "common/string_util.h"
#include "constraints/dtd.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "rewrite/chase.h"
#include "rewrite/rewriter.h"
#include "rewrite/signature.h"
#include "rewrite/view_index.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;

CompiledCatalog MustCompile(const std::vector<TslQuery>& views,
                            const StructuralConstraints* constraints = nullptr,
                            CatalogCompileOptions options = {}) {
  auto catalog = CompileCatalog(DescribeViews(views), constraints, options);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  return std::move(catalog).ValueOrDie();
}

const Diagnostic* FindDiag(const CompiledCatalog& catalog, DiagCode code,
                           std::string_view rule) {
  for (const Diagnostic& d : catalog.diagnostics()) {
    if (d.code == code && d.rule == rule) return &d;
  }
  return nullptr;
}

StructuralConstraints OneLeafDtd() {
  auto dtd = Dtd::Parse("<!ELEMENT root (leaf)> <!ELEMENT leaf CDATA>");
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return StructuralConstraints(std::move(dtd).ValueOrDie());
}

/// The compile-time chase options: constraints plus every view name exempt
/// (what CompileCatalog itself uses; probes must match by contract).
ChaseOptions CompileChaseOptions(const std::vector<TslQuery>& views,
                                 const StructuralConstraints* constraints) {
  ChaseOptions options;
  options.constraints = constraints;
  for (const TslQuery& v : views) {
    options.constraint_exempt_sources.insert(v.name);
  }
  return options;
}

TEST(CatalogCompilerTest, IndexesACleanCatalogWithoutDiagnostics) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "V0"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@db",
                "V1"),
  };
  auto catalog = MustCompile(views);
  ASSERT_EQ(catalog.index().views().size(), 2u);
  for (const IndexedView& v : catalog.index().views()) {
    EXPECT_EQ(v.state, IndexedViewState::kIndexed);
    EXPECT_FALSE(v.chased.body.empty());
    EXPECT_FALSE(v.required.empty());
    EXPECT_FALSE(v.anchor.empty());
    EXPECT_TRUE(std::binary_search(v.required.begin(), v.required.end(),
                                   v.anchor));
  }
  EXPECT_TRUE(catalog.index().servable());
  EXPECT_EQ(catalog.error_count(), 0u);
  EXPECT_TRUE(catalog.diagnostics().empty())
      << catalog.diagnostics().front().ToString();
}

TEST(CatalogCompilerTest, Tsl201FlagsAlphaEquivalentDuplicates) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "VA"),
      MustParse("<v(Q') vout {<w(Y') m W'>}> :- <Q' root {<Y' l0 W'>}>@db",
                "VB"),
  };
  auto catalog = MustCompile(views);
  // The later catalog entry is the duplicate; the first copy is unflagged.
  const Diagnostic* d = FindDiag(catalog, DiagCode::kDuplicateView, "VB");
  ASSERT_NE(d, nullptr) << catalog.Summary();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(d->span.valid());
  EXPECT_NE(d->message.find("VA"), std::string::npos) << d->message;
  EXPECT_EQ(FindDiag(catalog, DiagCode::kDuplicateView, "VA"), nullptr);
}

TEST(CatalogCompilerTest, Tsl200FlagsSubsumedViews) {
  // Every answer of the constant-tail view is produced by the variable-tail
  // view, so Narrow ⊑ Wide (and not conversely).
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "Wide"),
      MustParse("<v(P') vout {<w(X') m c0>}> :- <P' root {<X' l0 c0>}>@db",
                "Narrow"),
  };
  auto catalog = MustCompile(views);
  ASSERT_FALSE(catalog.lattice().empty());
  const CatalogLatticeEdge& edge = catalog.lattice().front();
  EXPECT_EQ(catalog.index().views()[edge.subsumed].name, "Narrow");
  EXPECT_EQ(catalog.index().views()[edge.subsuming].name, "Wide");
  EXPECT_FALSE(edge.equivalent);

  const Diagnostic* d = FindDiag(catalog, DiagCode::kViewSubsumed, "Narrow");
  ASSERT_NE(d, nullptr) << catalog.Summary();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(d->span.valid());
  EXPECT_NE(d->message.find("Wide"), std::string::npos) << d->message;
  EXPECT_EQ(FindDiag(catalog, DiagCode::kViewSubsumed, "Wide"), nullptr);
}

TEST(CatalogCompilerTest, Tsl202FlagsViewsProvenEmptyByTheChase) {
  // Under <!ELEMENT root (leaf)> a root has exactly one leaf child, so the
  // two conditions fuse and the distinct constant tails conflict.
  StructuralConstraints constraints = OneLeafDtd();
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout yes> :- "
                "<P' root {<X1' leaf va>}>@db AND "
                "<P' root {<X2' leaf vb>}>@db",
                "Empty"),
      MustParse("<v(P') vout Z'> :- <P' root {<X' leaf Z'>}>@db", "Live"),
  };
  auto catalog = MustCompile(views, &constraints);
  const IndexedView* empty = nullptr;
  for (const IndexedView& v : catalog.index().views()) {
    if (v.name == "Empty") empty = &v;
  }
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->state, IndexedViewState::kUnsatisfiable);

  const Diagnostic* d =
      FindDiag(catalog, DiagCode::kViewUnsatisfiable, "Empty");
  ASSERT_NE(d, nullptr) << catalog.Summary();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(d->span.valid());
  EXPECT_GE(catalog.error_count(), 1u);
  // An unsatisfiable view is still a servable catalog: probes skip it,
  // exactly as the full scan drops it.
  EXPECT_TRUE(catalog.index().servable());
}

TEST(CatalogCompilerTest, Tsl203FlagsBoundVariablesAbsentFromTheHead) {
  Capability cap;
  cap.view =
      MustParse("<v(P') vout Z'> :- <P' root {<X' l0 Z'>}>@db", "Bound");
  cap.bound_variables = {"X'"};  // in the body, never in the head
  SourceDescription sd{"db", {cap}};
  auto catalog = CompileCatalog({sd}, nullptr);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const Diagnostic* d =
      FindDiag(*catalog, DiagCode::kUnreachableCapability, "Bound");
  ASSERT_NE(d, nullptr) << catalog->Summary();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(d->span.valid());
  EXPECT_NE(d->message.find("X'"), std::string::npos) << d->message;
}

TEST(CatalogCompilerTest, Tsl204BudgetedViewsFallBackToOnlineChase) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "Big"),
  };
  CatalogCompileOptions options;
  options.max_chase_conditions = 0;
  auto catalog = MustCompile(views, nullptr, options);
  ASSERT_EQ(catalog.index().views().size(), 1u);
  EXPECT_EQ(catalog.index().views()[0].state, IndexedViewState::kAlwaysScan);

  const Diagnostic* d =
      FindDiag(catalog, DiagCode::kChaseBudgetExceeded, "Big");
  ASSERT_NE(d, nullptr) << catalog.Summary();
  EXPECT_EQ(d->severity, Severity::kWarning);

  // The budgeted view is admitted by every probe and chased per query, so
  // indexed rewriting still matches the full scan byte for byte.
  TslQuery query =
      MustParse("<f(P) out yes> :- <P root {<X l0 W>}>@db", "Q");
  RewriteOptions plain;
  auto full = RewriteQuery(query, views, plain);
  ASSERT_TRUE(full.ok()) << full.status();
  RewriteOptions indexed;
  indexed.view_index = &catalog.index();
  auto fast = RewriteQuery(query, views, indexed);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_EQ(full->rewritings.size(), fast->rewritings.size());
  for (size_t i = 0; i < full->rewritings.size(); ++i) {
    EXPECT_EQ(full->rewritings[i].ToString(), fast->rewritings[i].ToString());
  }
}

TEST(CatalogCompilerTest, DiagnosticsComeOutSorted) {
  // Three findings from different passes; the report must still be in
  // (line, column, code) order however the passes appended them.
  StructuralConstraints constraints = OneLeafDtd();
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout yes> :- "
                "<P' root {<X1' leaf va>}>@db AND "
                "<P' root {<X2' leaf vb>}>@db",
                "Empty"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "DupA"),
      MustParse("<v(Q') vout {<w(Y') m W'>}> :- <Q' root {<Y' l0 W'>}>@db",
                "DupB"),
  };
  auto catalog = MustCompile(views, &constraints);
  ASSERT_GE(catalog.diagnostics().size(), 2u);
  const std::vector<Diagnostic>& diags = catalog.diagnostics();
  for (size_t i = 1; i < diags.size(); ++i) {
    const Diagnostic& a = diags[i - 1];
    const Diagnostic& b = diags[i];
    auto key = [](const Diagnostic& d) {
      return std::make_tuple(d.span.line, d.span.column,
                             static_cast<int>(d.code), d.rule, d.message);
    };
    EXPECT_LE(key(a), key(b)) << a.ToString() << " vs " << b.ToString();
  }
}

TEST(CatalogCompilerTest, ProbeSkipsViewsWhoseSignaturesCannotMap) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "L0"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@db",
                "L1"),
  };
  auto catalog = MustCompile(views);
  ChaseOptions chase_options = CompileChaseOptions(views, nullptr);
  TslQuery query =
      MustParse("<f(P) out yes> :- <P root {<X l0 W>}>@db", "Q");
  auto chased = ChaseQuery(query, chase_options);
  ASSERT_TRUE(chased.ok()) << chased.status();

  ViewProbeOutcome outcome;
  auto probed = catalog.index().ChasedViewsFor(*chased, views,
                                                chase_options, &outcome);
  ASSERT_TRUE(probed.ok()) << probed.status();
  ASSERT_TRUE(probed->has_value());
  // L1 requires the ground label l1 the query cannot provide: no
  // containment mapping can exist, so the probe prunes it.
  EXPECT_EQ(outcome.admitted, 1u);
  EXPECT_EQ(outcome.skipped, 1u);
  ASSERT_EQ((*probed)->size(), 1u);
  EXPECT_EQ((*probed)->front().name, "L0");
}

TEST(CatalogCompilerTest, ProbeForceIncludesViewsTheQueryNames) {
  // The query's body ranges over the view L1 itself; composition resolves
  // that name from the returned list, so the probe must keep L1 even
  // though no signature admits it.
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@db",
                "L1"),
  };
  auto catalog = MustCompile(views);
  ChaseOptions chase_options = CompileChaseOptions(views, nullptr);
  TslQuery query =
      MustParse("<f(P) out yes> :- <v(P) vout {<X m W>}>@L1", "Q");
  auto chased = ChaseQuery(query, chase_options);
  ASSERT_TRUE(chased.ok()) << chased.status();

  ViewProbeOutcome outcome;
  auto probed = catalog.index().ChasedViewsFor(*chased, views,
                                                chase_options, &outcome);
  ASSERT_TRUE(probed.ok()) << probed.status();
  ASSERT_TRUE(probed->has_value());
  EXPECT_EQ(outcome.admitted, 1u);
  EXPECT_EQ(outcome.skipped, 0u);
}

TEST(CatalogCompilerTest, CoversViewsRequiresTheExactViewVector) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "A"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@db",
                "B"),
  };
  auto catalog = MustCompile(views);
  const ViewIndex& index = catalog.index();
  EXPECT_TRUE(index.CoversViews(views));
  // Subsets (failover replans) and permutations decline: the probe answers
  // only for the compiled catalog, everything else takes the full scan.
  EXPECT_FALSE(index.CoversViews({views[0]}));
  EXPECT_FALSE(index.CoversViews({views[1], views[0]}));
  EXPECT_FALSE(index.CoversViews({}));

  ChaseOptions chase_options = CompileChaseOptions(views, nullptr);
  TslQuery query =
      MustParse("<f(P) out yes> :- <P root {<X l0 W>}>@db", "Q");
  auto chased = ChaseQuery(query, chase_options);
  ASSERT_TRUE(chased.ok()) << chased.status();
  auto probed =
      index.ChasedViewsFor(*chased, {views[0]}, chase_options, nullptr);
  ASSERT_TRUE(probed.ok()) << probed.status();
  EXPECT_FALSE(probed->has_value());
}

TEST(CatalogCompilerTest, InvalidViewsMakeTheCatalogUnservable) {
  std::vector<TslQuery> views = {
      // Unsafe: head variable W never bound in the body.
      MustParse("<v(P') vout W> :- <P' root {<X' l0 Z'>}>@db", "Bad"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "Good"),
  };
  auto catalog = MustCompile(views);
  EXPECT_FALSE(catalog.index().servable());
  EXPECT_FALSE(catalog.index().CoversViews(views));
  // The analyzer fold reports the specifics as error-level findings.
  EXPECT_GE(catalog.error_count(), 1u);
}

TEST(CatalogCompilerTest, DescribeViewsGroupsBySource) {
  std::vector<TslQuery> views = {
      MustParse("<v(P') a {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@s1",
                "A"),
      MustParse("<v(P') b {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@s2",
                "B"),
      MustParse("<v(P') c {<w(X') m Z'>}> :- <P' root {<X' l2 Z'>}>@s1",
                "C"),
  };
  std::vector<SourceDescription> sources = DescribeViews(views);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].source, "s1");
  ASSERT_EQ(sources[0].capabilities.size(), 2u);
  EXPECT_EQ(sources[0].capabilities[0].view.name, "A");
  EXPECT_EQ(sources[0].capabilities[1].view.name, "C");
  EXPECT_EQ(sources[1].source, "s2");
  ASSERT_EQ(sources[1].capabilities.size(), 1u);
  EXPECT_EQ(sources[1].capabilities[0].view.name, "B");
}

TEST(CatalogCompilerTest, SummaryAndMetricsReportTheCompile) {
  MetricRegistry metrics;
  CatalogCompileOptions options;
  options.metrics = &metrics;
  std::vector<TslQuery> views = {
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db",
                "A"),
      MustParse("<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l1 Z'>}>@db",
                "B"),
  };
  auto catalog = MustCompile(views, nullptr, options);
  std::string summary = catalog.Summary();
  EXPECT_NE(summary.find("compiled 2 view(s)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("2 indexed"), std::string::npos) << summary;
  EXPECT_EQ(metrics.GetCounter("catalog.compiles")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("catalog.views_compiled")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("catalog.views_indexed")->value(), 2u);
}

/// Reads \p path whole; empty when it cannot be opened.
std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compiles one catalog file the way `tslrw_compile` does (every rule a
/// capability view, `%bind <View> <Var...>` lines as binding patterns) and
/// renders its report as `tslrw_compile --lattice` prints it, each line
/// prefixed with \p name.
std::string CompileReport(const std::string& name, const std::string& text) {
  auto views = ParseTslProgram(text);
  if (!views.ok()) return StrCat("parse error: ", views.status().ToString());
  std::vector<SourceDescription> sources = DescribeViews(*views);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string word, view;
    if (!(words >> word) || word != "%bind" || !(words >> view)) continue;
    for (SourceDescription& source : sources) {
      for (Capability& capability : source.capabilities) {
        if (capability.view.name != view) continue;
        while (words >> word) capability.bound_variables.insert(word);
      }
    }
  }
  auto catalog = CompileCatalog(sources, nullptr);
  if (!catalog.ok()) {
    return StrCat("compile error: ", catalog.status().ToString());
  }
  std::string out;
  for (const Diagnostic& d : catalog->diagnostics()) {
    out += StrCat(name, ":", RenderDiagnostic(d, text));
  }
  const std::vector<IndexedView>& indexed = catalog->index().views();
  for (const CatalogLatticeEdge& edge : catalog->lattice()) {
    out += StrCat(name, ": lattice: ", indexed[edge.subsumed].name,
                  edge.equivalent ? " == " : " <= ",
                  indexed[edge.subsuming].name, "\n");
  }
  if (catalog->lattice_truncated()) {
    out += StrCat(name, ": lattice: (truncated by containment budget)\n");
  }
  return StrCat(out, name, ": ", catalog->Summary(), "\n");
}

TEST(CatalogCompilerTest, FixtureReportsMatchTheirExpectedText) {
  // Every catalog under tests/catalogs has its report committed beside it
  // (X.tsl -> X.expected): diagnostics with their caret snippets, lattice
  // edges and summary, byte for byte.
  const std::filesystem::path root = TSLRW_CATALOGS_DIR;
  std::vector<std::filesystem::path> catalogs;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.path().extension() == ".tsl") catalogs.push_back(entry.path());
  }
  std::sort(catalogs.begin(), catalogs.end());
  ASSERT_GE(catalogs.size(), 3u);
  for (const std::filesystem::path& path : catalogs) {
    const std::string name = path.lexically_relative(root).generic_string();
    std::filesystem::path expected = path;
    expected.replace_extension(".expected");
    ASSERT_TRUE(std::filesystem::exists(expected)) << expected;
    EXPECT_EQ(CompileReport(name, ReadFile(path)), ReadFile(expected))
        << name;
  }
}

TEST(CatalogSignatureTest, FeaturesAreAlphaInvariantNecessaryConditions) {
  ChaseOptions plain;
  TslQuery va = MustParse(
      "<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db", "A");
  TslQuery vb = MustParse(
      "<v(Q') vout {<w(Y') m W'>}> :- <Q' root {<Y' l0 W'>}>@db", "B");
  auto ca = ChaseQuery(va, plain);
  auto cb = ChaseQuery(vb, plain);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto ra = RequiredFeatures(*ca);
  auto rb = RequiredFeatures(*cb);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(*ra, *rb);  // α-renaming does not change the signature
  EXPECT_TRUE(std::is_sorted(ra->begin(), ra->end()));

  // A query matching the view provides every required feature; a query on
  // a different label misses at least one.
  TslQuery q_hit =
      MustParse("<f(P) out yes> :- <P root {<X l0 W>}>@db", "QH");
  TslQuery q_miss =
      MustParse("<f(P) out yes> :- <P root {<X l1 W>}>@db", "QM");
  auto ch = ChaseQuery(q_hit, plain);
  auto cm = ChaseQuery(q_miss, plain);
  ASSERT_TRUE(ch.ok() && cm.ok());
  auto ph = ProvidedFeatures(*ch);
  auto pm = ProvidedFeatures(*cm);
  ASSERT_TRUE(ph.ok() && pm.ok());
  auto subset = [](const std::vector<std::string>& req,
                   const std::set<std::string>& prov) {
    for (const std::string& r : req) {
      if (prov.count(r) == 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(subset(*ra, ph->provided));
  EXPECT_FALSE(subset(*ra, pm->provided));
}

// --- catalog diffs (the negative paths selective maintenance relies on) -----

TEST(CatalogDiffTest, AlphaRenamedViewDiffsAsUnchanged) {
  // Same view name, consistently renamed variables: plan-equivalent, so
  // the delta must be empty — a swap to this catalog is a maintenance
  // no-op and every cached plan survives.
  std::vector<SourceDescription> old_sources = DescribeViews({MustParse(
      "<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db", "V0")});
  std::vector<SourceDescription> new_sources = DescribeViews({MustParse(
      "<v(Q') vout {<w(Y') m W'>}> :- <Q' root {<Y' l0 W'>}>@db", "V0")});
  CatalogDelta delta =
      ComputeCatalogDelta(old_sources, nullptr, new_sources, nullptr);
  EXPECT_TRUE(delta.empty()) << delta.ToString();
  EXPECT_TRUE(delta.changed.empty());
  EXPECT_FALSE(delta.constraints_changed);
}

TEST(CatalogDiffTest, ConstraintBodyOnlyChangeDiffsAsChanged) {
  // Identical views, different DTD: no view-level entries, but the
  // constraints fingerprint differs — and constraints shape every chase,
  // so the delta must not read as empty.
  std::vector<SourceDescription> sources = DescribeViews({MustParse(
      "<v(P') vout {<w(X') m Z'>}> :- <P' root {<X' l0 Z'>}>@db", "V0")});
  StructuralConstraints one_leaf = OneLeafDtd();
  auto other_dtd =
      Dtd::Parse("<!ELEMENT root (leaf, extra)> <!ELEMENT leaf CDATA>");
  ASSERT_TRUE(other_dtd.ok()) << other_dtd.status();
  StructuralConstraints other(std::move(other_dtd).ValueOrDie());

  CatalogDelta delta =
      ComputeCatalogDelta(sources, &one_leaf, sources, &other);
  EXPECT_TRUE(delta.constraints_changed) << delta.ToString();
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(delta.added.empty() && delta.removed.empty() &&
              delta.changed.empty());

  // The same DTD on both sides is not a constraints change...
  EXPECT_FALSE(ComputeCatalogDelta(sources, &one_leaf, sources, &one_leaf)
                   .constraints_changed);
  // ...but attaching or dropping constraints entirely is.
  EXPECT_TRUE(ComputeCatalogDelta(sources, nullptr, sources, &one_leaf)
                  .constraints_changed);
  EXPECT_TRUE(ComputeCatalogDelta(sources, &one_leaf, sources, nullptr)
                  .constraints_changed);
}

}  // namespace
}  // namespace tslrw
