#include "catalog/compiler.h"

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "equiv/equivalence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/chase.h"
#include "rewrite/signature.h"
#include "rewrite/view_index.h"
#include "tsl/canonical.h"
#include "tsl/normal_form.h"

namespace tslrw {

namespace {

/// Budget on the lattice's containment tests, which are quadratic in the
/// number of views before the signature prefilter: when it is hit,
/// lattice_truncated() is set and the remaining pairs are skipped.
constexpr size_t kMaxContainmentPairs = 10000;

Diagnostic MakeDiag(DiagCode code, SourceSpan span, std::string rule,
                    std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = DiagCodeSeverity(code);
  d.span = span;
  d.rule = std::move(rule);
  d.message = std::move(message);
  return d;
}

}  // namespace

uint64_t ConstraintsFingerprint(const StructuralConstraints* constraints) {
  // The DTD dump is deterministic (sorted element maps), so it doubles as
  // the constraint set's identity.
  if (constraints == nullptr) return StableFingerprint("no-constraints");
  return StableFingerprint(constraints->dtd().ToString());
}

std::vector<SourceDescription> DescribeViews(
    const std::vector<TslQuery>& views) {
  std::vector<SourceDescription> out;
  std::map<std::string, size_t> by_source;
  for (const TslQuery& view : views) {
    // ValidateDescriptions requires a view to range over its description's
    // source only, so the first body condition names the right group; a
    // bodyless view gets a group of its own.
    const std::string source =
        view.body.empty() ? view.name : view.body.front().source;
    auto [it, inserted] = by_source.emplace(source, out.size());
    if (inserted) out.push_back(SourceDescription{source, {}});
    out[it->second].capabilities.push_back(Capability{view, {}});
  }
  return out;
}

CompiledCatalog::CompiledCatalog(ViewIndex index,
                                 std::vector<CatalogLatticeEdge> lattice,
                                 bool lattice_truncated,
                                 std::vector<Diagnostic> diagnostics)
    : index_(std::move(index)),
      lattice_(std::move(lattice)),
      lattice_truncated_(lattice_truncated),
      diagnostics_(std::move(diagnostics)) {
  SortDiagnostics(&diagnostics_);
}

size_t CompiledCatalog::error_count() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

std::string CompiledCatalog::Summary() const {
  size_t indexed = 0, always = 0, unsat = 0, invalid = 0;
  for (const IndexedView& e : index_.views()) {
    switch (e.state) {
      case IndexedViewState::kIndexed: ++indexed; break;
      case IndexedViewState::kAlwaysScan: ++always; break;
      case IndexedViewState::kUnsatisfiable: ++unsat; break;
      case IndexedViewState::kInvalid: ++invalid; break;
    }
  }
  size_t errors = 0, warnings = 0, notes = 0;
  for (const Diagnostic& d : diagnostics_) {
    switch (d.severity) {
      case Severity::kError: ++errors; break;
      case Severity::kWarning: ++warnings; break;
      case Severity::kNote: ++notes; break;
    }
  }
  return StrCat("compiled ", index_.views().size(), " view(s): ", indexed,
                " indexed, ", always, " always-scan, ", unsat,
                " unsatisfiable, ", invalid, " invalid; lattice: ",
                lattice_.size(), lattice_truncated_ ? " edge(s), truncated"
                                                    : " edge(s)",
                "; ", errors, " error(s), ", warnings, " warning(s), ", notes,
                " note(s)");
}

Result<CompiledCatalog> CompileCatalog(
    const std::vector<SourceDescription>& sources,
    const StructuralConstraints* constraints,
    const CatalogCompileOptions& options) {
  ScopedSpan compile_span(options.tracer, "catalog.compile");
  CountIf(options.metrics, "catalog.compiles");
  TSLRW_RETURN_NOT_OK(ValidateDescriptions(sources));

  std::vector<const Capability*> caps;
  std::vector<TslQuery> views;
  for (const SourceDescription& sd : sources) {
    for (const Capability& cap : sd.capabilities) {
      caps.push_back(&cap);
      views.push_back(cap.view);
    }
  }
  const size_t n = caps.size();
  compile_span.Annotate("views", static_cast<uint64_t>(n));

  // The containment tests below chase under RewriteQuery's view options:
  // the constraints describe source data, never view answer objects, so
  // every view name is exempt.
  ChaseOptions chase_options;
  chase_options.constraints = constraints;
  for (const TslQuery& view : views) {
    chase_options.constraint_exempt_sources.insert(view.name);
  }

  // The same index a Mediator over these sources builds at Make, except
  // for the chase budget.
  ScopedSpan chase_span(options.tracer, "catalog.chase_views");
  ViewIndex index =
      ViewIndex::Build(views, constraints, options.max_chase_conditions);
  chase_span.EndNow();
  const std::vector<IndexedView>& indexed_views = index.views();

  // α-invariant identity of each raw definition: TSL201 groups by it and
  // the lattice skips the containment test for equal pairs.
  std::vector<uint64_t> raw_fingerprint(n);
  std::vector<Diagnostic> diags;
  for (size_t i = 0; i < n; ++i) {
    const TslQuery& view = views[i];
    const IndexedView& iv = indexed_views[i];
    raw_fingerprint[i] = CanonicalizeQuery(view).fingerprint;

    // TSL203: the mediator delivers a parameter by splicing the constant
    // into the capability head's instantiation, so a bound variable the
    // head never mentions can never be supplied — no binding pattern
    // reaches the capability.
    for (const std::string& var : caps[i]->bound_variables) {
      bool in_head = false;
      for (const Term& v : view.HeadVariables()) {
        in_head = in_head || v.var_name() == var;
      }
      if (!in_head) {
        diags.push_back(MakeDiag(
            DiagCode::kUnreachableCapability, view.span, view.name,
            StrCat("bound variable ", var, " does not occur in the head of ",
                   view.name,
                   "; the mediator can never instantiate it, so no "
                   "admissible binding pattern reaches this capability")));
      }
    }

    switch (iv.state) {
      case IndexedViewState::kIndexed:
        break;
      case IndexedViewState::kAlwaysScan:
        // A hard chase failure fails the compile; only the budget leaves a
        // healthy view unchased.
        if (!iv.chase_status.ok()) return iv.chase_status;
        diags.push_back(MakeDiag(
            DiagCode::kChaseBudgetExceeded, view.span, view.name,
            StrCat("normal-form body of ", view.name, " has ",
                   ToNormalForm(view).body.size(),
                   " conditions, over the offline chase budget of ",
                   options.max_chase_conditions,
                   "; the view will be chased per query instead")));
        break;
      case IndexedViewState::kUnsatisfiable:
        diags.push_back(MakeDiag(
            DiagCode::kViewUnsatisfiable, view.span, view.name,
            StrCat("chase proves ", view.name, " empty under the catalog's "
                   "constraints (", iv.chase_status.message(),
                   "); the view can contribute no rewriting and is dropped "
                   "from the compiled index")));
        break;
      case IndexedViewState::kInvalid:
        // The per-rule analyzer pass below reports the specifics
        // (TSL001-TSL004); the catalog just records that its signatures
        // prove nothing and must not be served.
        break;
    }
  }

  // TSL201: α-equivalent duplicates, by canonical fingerprint of the raw
  // definitions. Every copy after the first (in catalog order) is flagged.
  std::map<uint64_t, std::vector<size_t>> by_fingerprint;
  for (size_t i = 0; i < n; ++i) {
    if (indexed_views[i].state != IndexedViewState::kInvalid) {
      by_fingerprint[raw_fingerprint[i]].push_back(i);
    }
  }
  for (const auto& [fp, group] : by_fingerprint) {
    for (size_t k = 1; k < group.size(); ++k) {
      const TslQuery& view = caps[group[k]]->view;
      diags.push_back(MakeDiag(
          DiagCode::kDuplicateView, view.span, view.name,
          StrCat(view.name, " is α-equivalent to ", caps[group[0]]->view.name,
                 "; duplicate capabilities widen the rewriting search "
                 "without adding coverage")));
    }
  }

  // Subsumption lattice over the indexed views: i ⊑ j when every answer i
  // contributes is also produced by j (\S4 one-sided containment of the
  // chased definitions). The signature prefilter skips pairs where the
  // subsuming side requires a feature the subsumed side's body cannot
  // provide — such a containment mapping cannot exist.
  std::vector<CatalogLatticeEdge> lattice;
  bool truncated = false;
  size_t tested = 0;
  ScopedSpan lattice_span(options.tracer, "catalog.lattice");
  std::vector<uint32_t> indexed;
  for (size_t i = 0; i < n; ++i) {
    if (indexed_views[i].state == IndexedViewState::kIndexed) {
      indexed.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<std::set<std::string>> provided(n);
  for (uint32_t i : indexed) {
    TSLRW_ASSIGN_OR_RETURN(QueryFeatureSet qf,
                           ProvidedFeatures(indexed_views[i].chased));
    provided[i] = std::move(qf.provided);
  }
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (uint32_t j : indexed) {
    std::optional<EquivalenceTester> tester;
    for (uint32_t i : indexed) {
      if (i == j) continue;
      if (raw_fingerprint[i] == raw_fingerprint[j]) {
        contained[i][j] = true;  // α-equivalent, no test needed
        continue;
      }
      if (truncated) continue;
      if (!FeaturesSubset(indexed_views[j].required, provided[i])) {
        continue;
      }
      if (tested >= kMaxContainmentPairs) {
        truncated = true;
        continue;
      }
      ++tested;
      if (!tester.has_value()) {
        Result<EquivalenceTester> made = EquivalenceTester::Make(
            TslRuleSet::Single(indexed_views[j].chased), chase_options);
        if (!made.ok()) return made.status();
        tester.emplace(std::move(made).value());
      }
      TSLRW_ASSIGN_OR_RETURN(
          bool c, tester->ContainedInReference(
                      TslRuleSet::Single(indexed_views[i].chased)));
      if (c) contained[i][j] = true;
    }
  }
  for (uint32_t i : indexed) {
    for (uint32_t j : indexed) {
      if (i != j && contained[i][j]) {
        lattice.push_back(CatalogLatticeEdge{i, j, contained[j][i]});
      }
    }
  }
  // TSL200: one finding per subsumed view, naming its (first) subsumer.
  // α-duplicate pairs are TSL201's; for mutually-contained distinct
  // definitions only the later catalog entry is flagged, so one of an
  // equivalent pair always survives unflagged.
  for (uint32_t i : indexed) {
    for (uint32_t j : indexed) {
      if (i == j || !contained[i][j]) continue;
      if (raw_fingerprint[i] == raw_fingerprint[j]) continue;
      if (contained[j][i] && i < j) continue;
      const TslQuery& view = caps[i]->view;
      diags.push_back(MakeDiag(
          DiagCode::kViewSubsumed, view.span, view.name,
          contained[j][i]
              ? StrCat(view.name, " is equivalent to ",
                       indexed_views[j].name,
                       " under the catalog's constraints; it only widens "
                       "the rewriting search")
              : StrCat(view.name, " is subsumed by ", indexed_views[j].name,
                       ": every answer it contributes is already produced "
                       "there, so it only widens the rewriting search")));
      break;
    }
  }
  lattice_span.Annotate("edges", static_cast<uint64_t>(lattice.size()));
  lattice_span.Annotate("containment_tests", static_cast<uint64_t>(tested));
  lattice_span.EndNow();
  CountIf(options.metrics, "catalog.containment_tests", tested);

  // Fold in the per-rule analyzer findings (TSL0xx/1xx). The cross-rule
  // TSL104 dead-view pass stays off, and TSL200/201 do not replace it:
  // they test containment pair by pair, while TSL104 finds a view covered
  // by a rewriting over all the others, possibly a join of several. Only
  // `tslrw_analyze` and the shell's `analyze` report TSL104.
  ScopedSpan analyze_span(options.tracer, "catalog.analyze_rules");
  AnalyzerOptions analyzer_options;
  analyzer_options.constraints = constraints;
  analyzer_options.constraint_exempt_sources =
      chase_options.constraint_exempt_sources;
  analyzer_options.detect_dead_views = false;
  AnalysisReport report = Analyzer(analyzer_options).AnalyzeRules(views);
  diags.insert(diags.end(), report.diagnostics.begin(),
               report.diagnostics.end());
  analyze_span.EndNow();

  CompiledCatalog catalog(std::move(index), std::move(lattice), truncated,
                          std::move(diags));
  size_t indexed_count = 0;
  for (const IndexedView& e : catalog.index().views()) {
    if (e.state == IndexedViewState::kIndexed) ++indexed_count;
  }
  compile_span.Annotate("indexed", static_cast<uint64_t>(indexed_count));
  compile_span.Annotate("lattice_edges",
                        static_cast<uint64_t>(catalog.lattice().size()));
  compile_span.Annotate("diagnostics",
                        static_cast<uint64_t>(catalog.diagnostics().size()));
  if (truncated) compile_span.Annotate("truncated", "true");
  CountIf(options.metrics, "catalog.views_compiled", n);
  CountIf(options.metrics, "catalog.views_indexed", indexed_count);
  CountIf(options.metrics, "catalog.diagnostics",
          catalog.diagnostics().size());
  return catalog;
}

}  // namespace tslrw
