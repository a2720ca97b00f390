#ifndef TSLRW_REPL_REPL_H_
#define TSLRW_REPL_REPL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/analyzer.h"
#include "common/result.h"
#include "constraints/inference.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oem/database.h"
#include "rewrite/chase.h"
#include "service/server.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief The interactive session behind the `tslrw_shell` example binary:
/// a line-oriented interface to the whole library — define sources, views,
/// queries, and constraints; evaluate, rewrite, minimize, compare.
///
/// Commands (one per line; `%` comments; statements may span lines until
/// they parse — the shell feeds complete statements):
///
/// ```
/// source database db { <p1 person { <n1 name ann> }> }
/// dtd <!ELEMENT person (name)> <!ELEMENT name CDATA>
/// dataguide db                  % infer constraints from an instance
/// view (V1) <g(P') p {...}> :- <P' p {...}>@db
/// query (Q3) <f(P) out yes> :- <P p {<X Y leland>}>@db
/// eval Q3
/// rewrite Q3 [total]
/// contained Q3 [total]
/// explain Q3                    % mappings, candidates, verdicts
/// minimize Q3
/// equivalent Q3 Q4
/// analyze [Q3]                  % static diagnostics, all rules or one
/// compile [save p | load p]     % whole-catalog analysis + view index
/// materialize V1                % view result becomes a source
/// capability db (Y97) <...> :- <...>@db   % declare a source interface
/// fault db flaky 0.5            % script a wrapper fault for `mediate`
/// plan Q3 [ir]                  % rewriting plan set; `ir` dumps the
///                               % compiled flat IR + per-pass op counts
/// mediate Q3 [seed 7]           % fault-tolerant plan + execute + report
/// serve start [threads 4] [queue 128] [cache 256]
///                               % start the concurrent serving layer
/// serve Q3 [seed 7]             % answer through the server + plan cache
/// serve stop
/// chaos [seed 7]                % deterministic multi-phase fault drill
/// stats                         % serving-layer counters + session metrics
/// trace on                      % record spans for rewrite/mediate/serve
/// trace dump [json]             % last trace as text or Chrome JSON
/// show sources|views|queries|constraints|capabilities|faults
/// help
/// ```
///
/// Execute returns the text to print; errors are rendered, not thrown, so
/// a scripted session never aborts.
class ReplSession {
 public:
  ReplSession() = default;

  /// Executes one command line and returns its output (possibly
  /// multi-line, without a trailing prompt).
  std::string Execute(std::string_view line);

  /// Executes a script: one command per line (`\` at end of line
  /// continues a statement). Also behind the `load <path>` command.
  std::string ExecuteScript(std::string_view script);

  /// True after a `quit`/`exit` command.
  bool done() const { return done_; }

  const SourceCatalog& catalog() const { return catalog_; }

 private:
  std::string Source(std::string_view rest);
  std::string DefineDtd(std::string_view rest);
  std::string InferConstraints(std::string_view rest);
  std::string DefineView(std::string_view rest);
  std::string DefineQuery(std::string_view rest);
  std::string Eval(std::string_view rest);
  std::string Rewrite(std::string_view rest, bool contained);
  std::string Explain(std::string_view rest);
  std::string Minimize(std::string_view rest);
  std::string Equivalent(std::string_view rest);
  std::string Analyze(std::string_view rest);
  std::string Compile(std::string_view rest);
  std::string Materialize(std::string_view rest);
  std::string PlanCmd(std::string_view rest);
  std::string DefineCapability(std::string_view rest);
  std::string SetFault(std::string_view rest);
  std::string Mediate(std::string_view rest);
  std::string Chaos(std::string_view rest);
  std::string Serve(std::string_view rest);
  std::string ServeStart(std::string_view rest);
  std::string Stats(std::string_view rest);
  std::string TraceCmd(std::string_view rest);
  std::string Show(std::string_view rest);
  std::string Load(std::string_view rest);
  std::string WriteSource(std::string_view rest);

  Result<TslQuery> LookupQuery(std::string_view name) const;
  const StructuralConstraints* constraints_ptr() const {
    return constraints_.has_value() ? &*constraints_ : nullptr;
  }
  std::vector<TslQuery> Views() const;
  /// Chase options with constraints scoped away from view-sourced
  /// conditions (constraints describe source data, not view output).
  ChaseOptions MakeChaseOptions() const;
  /// An analyzer configured like MakeChaseOptions (same constraints, same
  /// exempt view sources).
  Analyzer MakeAnalyzer() const;
  /// Renders \p report with caret snippets where the rule's original text
  /// is on file, plus a severity tally line.
  std::string RenderReport(const AnalysisReport& report) const;

  SourceCatalog catalog_;
  std::map<std::string, TslQuery, std::less<>> views_;
  std::map<std::string, TslQuery, std::less<>> queries_;
  /// Original text of each named rule, keyed by rule name, kept so
  /// `analyze` can render caret snippets pointing into what was typed.
  std::map<std::string, std::string, std::less<>> rule_texts_;
  /// Source interfaces declared with `capability`, keyed by source name;
  /// `mediate` builds a Mediator over them.
  std::map<std::string, SourceDescription, std::less<>> capabilities_;
  /// Steady-state faults scripted with `fault`, injected around `mediate`.
  std::map<std::string, Fault, std::less<>> faults_;
  std::optional<StructuralConstraints> constraints_;
  /// When tracing is on, returns a fresh Tracer (kept for `trace dump`,
  /// clocked by `trace_clock_`); null while tracing is off.
  Tracer* StartTrace();
  /// Session-wide metric sink: `rewrite`, `mediate`, and the serving layer
  /// all record here; `stats` prints it. Declared before `server_` so the
  /// server (whose workers write metrics) is destroyed first.
  MetricRegistry metrics_;
  /// `trace on|off|dump` state. Each traced command replaces the clock and
  /// tracer pair, so `trace dump` always shows the latest command.
  bool trace_enabled_ = false;
  std::unique_ptr<VirtualClock> trace_clock_;
  std::unique_ptr<Tracer> last_trace_;
  /// The concurrent serving layer behind `serve`/`stats`. While running,
  /// catalog mutations (`source`, `materialize`) are routed through its
  /// snapshot swap and `capability` changes replace its mediator; `fault`
  /// schedules are snapshotted at `serve start`.
  std::unique_ptr<QueryServer> server_;
  bool done_ = false;
};

}  // namespace tslrw

#endif  // TSLRW_REPL_REPL_H_
