#ifndef TSLRW_ANALYSIS_ANALYZER_H_
#define TSLRW_ANALYSIS_ANALYZER_H_

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "constraints/inference.h"
#include "rewrite/chase.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Knobs for the Analyzer.
struct AnalyzerOptions {
  /// DTD-derived constraints on the source data; enables the \S3.3 chase
  /// rules inside the unsatisfiability and redundancy passes.
  const StructuralConstraints* constraints = nullptr;
  /// Sources the constraint-derived chase rules must ignore (view names,
  /// exactly as in ChaseOptions).
  std::set<std::string> constraint_exempt_sources;
  /// Run the chase/containment-backed passes (TSL006 unsatisfiable body,
  /// TSL101 redundant condition, TSL104 dead view). These run the paper's
  /// own machinery and cost more than the syntactic passes; turn them off
  /// for editor-latency linting.
  bool semantic_passes = true;
  /// Run the cross-rule TSL104 pass in AnalyzeRules (each rule checked for
  /// being fully covered by the other rules, via the maximally-contained
  /// rewriting search).
  bool detect_dead_views = true;
  /// Emit TSL105 notes for variables used exactly once.
  bool lint_single_use_variables = true;
  /// Candidate budget forwarded to the rewriting searches the semantic
  /// passes run (TSL104). When a search is cut short by this cap its
  /// verdict may be incomplete, which the analyzer reports as TSL106.
  size_t max_candidates = 1000000;
};

/// \brief The outcome of analyzing one rule, a rule set, or program text.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  bool has_errors() const { return count(Severity::kError) > 0; }
  size_t count(Severity severity) const;

  /// One rendered line per diagnostic (no source snippets).
  std::string ToString() const;
};

/// \brief Rule-level static analyzer for TSL programs.
///
/// The analyzer layers on the existing machinery instead of duplicating
/// it: the `validate.cc` well-formedness checks surface as error
/// diagnostics with source spans (TSL001-TSL004), the chase (\S3.2/3.3)
/// backs unsatisfiable-body detection (TSL006), the \S4 equivalence test
/// backs redundant-condition detection (TSL101), and the
/// maximally-contained rewriting search backs dead-view detection
/// (TSL104). The motivation is \S5.1: rewriting is exponential in the
/// query size, so rule pathologies — redundant subgoals, cartesian
/// products, unbounded path steps, dead views — should be caught before
/// rewriting ever runs.
class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options = {})
      : options_(std::move(options)),
        chase_options_{options_.constraints,
                       options_.constraint_exempt_sources} {}

  /// Every per-rule pass over one query or view definition.
  AnalysisReport AnalyzeQuery(const TslQuery& query) const;

  /// Per-rule passes over each rule, then the cross-rule dead-view pass
  /// (each rule tested for being fully covered by the others). This is the
  /// entry point of `tslrw_analyze` and the shell's `analyze`; the mediator
  /// runs it with `detect_dead_views` off, since only errors refuse views.
  AnalysisReport AnalyzeRules(const std::vector<TslQuery>& rules) const;

  /// Parses \p text as a TSL program and analyzes it; parse failures are
  /// reported as TSL000 diagnostics (with the lexer's position) rather
  /// than a failed Status, so drivers can always render a report.
  AnalysisReport AnalyzeProgramText(std::string_view text) const;

  const AnalyzerOptions& options() const { return options_; }

 private:
  /// Appends a diagnostic, deriving the severity from the code.
  void Report(std::vector<Diagnostic>* out, DiagCode code, SourceSpan span,
              const std::string& rule, std::string message) const;

  void WellFormednessPasses(const TslQuery& query,
                            std::vector<Diagnostic>* out) const;
  void UnsatisfiablePass(const TslQuery& query,
                         std::vector<Diagnostic>* out) const;
  void RedundantConditionPass(const TslQuery& query,
                              std::vector<Diagnostic>* out) const;
  void CartesianProductPass(const TslQuery& query,
                            std::vector<Diagnostic>* out) const;
  void PathStepPass(const TslQuery& query,
                    std::vector<Diagnostic>* out) const;
  void SingleUseVariablePass(const TslQuery& query,
                             std::vector<Diagnostic>* out) const;
  void DeadViewPass(const std::vector<TslQuery>& rules,
                    std::vector<Diagnostic>* out) const;

  AnalyzerOptions options_;
  /// The semantic passes' chase options, built once: the exempt-name set
  /// holds every view name of a catalog, too large to copy per rule.
  ChaseOptions chase_options_;
};

}  // namespace tslrw

#endif  // TSLRW_ANALYSIS_ANALYZER_H_
