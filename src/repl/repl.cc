#include "repl/repl.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "catalog/compiler.h"
#include "common/string_util.h"
#include "constraints/dataguide.h"
#include "constraints/dtd.h"
#include "equiv/equivalence.h"
#include "eval/evaluator.h"
#include "ir/compiler.h"
#include "ir/ir.h"
#include "oem/parser.h"
#include "rewrite/candidate.h"
#include "rewrite/compose.h"
#include "rewrite/contained.h"
#include "rewrite/minimize.h"
#include "rewrite/rewriter.h"
#include "testing/chaos.h"
#include "tsl/parser.h"
#include "tsl/validate.h"

namespace tslrw {

namespace {

constexpr std::string_view kHelp =
    "commands:\n"
    "  source database <name> { ... }   define an OEM source\n"
    "  dtd <!ELEMENT ...> ...           set structural constraints\n"
    "  dataguide <source>               infer constraints from an instance\n"
    "  view (Name) <head> :- <body>     define a view\n"
    "  query (Name) <head> :- <body>    define a query\n"
    "  eval <query>                     evaluate against the sources\n"
    "  rewrite <query> [total]          find equivalent rewritings\n"
    "  contained <query> [total]        maximally contained rewriting\n"
    "  explain <query>                  trace the rewriting pipeline\n"
    "  minimize <query>                 remove redundant conditions\n"
    "  equivalent <q1> <q2>             compile-time equivalence test\n"
    "  analyze [rule]                   static diagnostics (all rules, or "
    "one)\n"
    "  compile                          whole-catalog analysis (TSL2xx)\n"
    "  materialize <view>               view result becomes a source\n"
    "  capability <source> (Name) <head> :- <body>\n"
    "                                   declare a source interface view\n"
    "  fault <source> unavailable|flaky <p>|slow <ticks>|truncated <n>|none\n"
    "                                   script a wrapper fault for mediate\n"
    "  plan <query> [ir]                rewriting plan set (over the\n"
    "                                   capabilities when declared, else\n"
    "                                   the views); `ir` also dumps the\n"
    "                                   compiled flat IR\n"
    "  mediate <query> [seed <n>]       fault-tolerant plan + execute,\n"
    "                                   with the execution report\n"
    "  serve start [threads <n>] [queue <n>] [cache <n>]\n"
    "                                   start the concurrent serving layer\n"
    "  serve <query> [seed <n>]         answer through the server and its\n"
    "                                   rewriting-plan cache\n"
    "  serve stop                       stop the server\n"
    "  chaos [seed <n>] [requests <n>]  deterministic multi-phase fault\n"
    "                                   drill over the declared\n"
    "                                   capabilities and queries\n"
    "  stats                            serving-layer counters and session\n"
    "                                   metrics\n"
    "  trace on|off                     record span trees for rewrite,\n"
    "                                   mediate, and serve commands\n"
    "  trace dump [json]                last trace as text, or as Chrome\n"
    "                                   trace_event JSON (chrome://tracing)\n"
    "  show sources|views|queries|constraints|capabilities|faults\n"
    "  load <path>                      run a script file\n"
    "  write <source> <path>            save a source's OEM text\n"
    "  help | quit\n";

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits the first whitespace-delimited word off \p s.
std::string_view TakeWord(std::string_view* s) {
  *s = Trim(*s);
  size_t end = 0;
  while (end < s->size() &&
         !std::isspace(static_cast<unsigned char>((*s)[end]))) {
    ++end;
  }
  std::string_view word = s->substr(0, end);
  s->remove_prefix(end);
  *s = Trim(*s);
  return word;
}

std::string RenderError(const Status& status) {
  return StrCat("error: ", status.ToString(), "\n");
}

}  // namespace

std::string ReplSession::Execute(std::string_view line) {
  std::string_view rest = Trim(line);
  if (rest.empty() || rest.front() == '%') return "";
  std::string_view command = TakeWord(&rest);
  if (command == "help") return std::string(kHelp);
  if (command == "quit" || command == "exit") {
    done_ = true;
    return "";
  }
  if (command == "source") return Source(rest);
  if (command == "dtd") return DefineDtd(rest);
  if (command == "dataguide") return InferConstraints(rest);
  if (command == "view") return DefineView(rest);
  if (command == "query") return DefineQuery(rest);
  if (command == "eval") return Eval(rest);
  if (command == "rewrite") return Rewrite(rest, /*contained=*/false);
  if (command == "contained") return Rewrite(rest, /*contained=*/true);
  if (command == "explain") return Explain(rest);
  if (command == "minimize") return Minimize(rest);
  if (command == "equivalent") return Equivalent(rest);
  if (command == "analyze" || command == ":analyze") return Analyze(rest);
  if (command == "compile" || command == ":compile") return Compile(rest);
  if (command == "materialize") return Materialize(rest);
  if (command == "capability") return DefineCapability(rest);
  if (command == "fault") return SetFault(rest);
  if (command == "plan") return PlanCmd(rest);
  if (command == "mediate") return Mediate(rest);
  if (command == "serve") return Serve(rest);
  if (command == "stats") return Stats(rest);
  if (command == "chaos") return Chaos(rest);
  if (command == "trace") return TraceCmd(rest);
  if (command == "show") return Show(rest);
  if (command == "load") return Load(rest);
  if (command == "write") return WriteSource(rest);
  return StrCat("unknown command '", command, "' (try `help`)\n");
}

std::string ReplSession::ExecuteScript(std::string_view script) {
  std::string out;
  std::string statement;
  size_t pos = 0;
  while (pos <= script.size() && !done_) {
    size_t eol = script.find('\n', pos);
    std::string_view line = script.substr(
        pos, eol == std::string_view::npos ? script.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? script.size() + 1 : eol + 1;
    std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed.back() == '\\') {
      statement += std::string(trimmed.substr(0, trimmed.size() - 1));
      statement += ' ';
      continue;
    }
    statement += std::string(line);
    out += Execute(statement);
    statement.clear();
  }
  if (!Trim(statement).empty()) out += Execute(statement);
  return out;
}

std::string ReplSession::Source(std::string_view rest) {
  auto db = ParseOemDatabase(rest);
  if (!db.ok()) return RenderError(db.status());
  std::string name = db->name();
  catalog_.Put(std::move(db).value());
  // A running server never sees catalog_ directly: the mutation reaches it
  // as a snapshot swap, so in-flight servings keep their old catalog.
  if (server_ != nullptr) {
    server_->UpdateCatalog(*catalog_.Find(name).value());
  }
  bool published = server_ != nullptr;
  return StrCat("source ", name, " defined (",
                catalog_.Find(name).value()->ReachableOids().size(),
                " reachable objects)", published ? ", published" : "", "\n");
}

std::string ReplSession::DefineDtd(std::string_view rest) {
  auto dtd = Dtd::Parse(rest);
  if (!dtd.ok()) return RenderError(dtd.status());
  size_t elements = dtd->elements().size();
  constraints_ = StructuralConstraints(std::move(dtd).value());
  return StrCat("constraints set (", elements, " element declarations)\n");
}

std::string ReplSession::InferConstraints(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  auto db = catalog_.Find(name);
  if (!db.ok()) return RenderError(db.status());
  auto dtd = InferDtdFromData(**db);
  if (!dtd.ok()) return RenderError(dtd.status());
  std::string rendered = dtd->ToString();
  constraints_ = StructuralConstraints(std::move(dtd).value());
  return StrCat("constraints inferred from ", name, ":\n", rendered);
}

std::string ReplSession::DefineView(std::string_view rest) {
  auto view = ParseTslQuery(rest);
  if (!view.ok()) return RenderError(view.status());
  if (view->name.empty()) {
    return "error: views need a (Name) prefix\n";
  }
  if (Status st = ValidateQuery(*view); !st.ok()) return RenderError(st);
  std::string name = view->name;
  views_.insert_or_assign(name, std::move(view).value());
  rule_texts_.insert_or_assign(name, std::string(rest));
  return StrCat("view ", name, " defined\n");
}

std::string ReplSession::DefineQuery(std::string_view rest) {
  auto query = ParseTslQuery(rest);
  if (!query.ok()) return RenderError(query.status());
  if (query->name.empty()) {
    return "error: queries need a (Name) prefix\n";
  }
  if (Status st = ValidateQuery(*query); !st.ok()) return RenderError(st);
  std::string name = query->name;
  queries_.insert_or_assign(name, std::move(query).value());
  rule_texts_.insert_or_assign(name, std::string(rest));
  return StrCat("query ", name, " defined\n");
}

Result<TslQuery> ReplSession::LookupQuery(std::string_view name) const {
  auto it = queries_.find(name);
  if (it != queries_.end()) return it->second;
  auto vit = views_.find(name);
  if (vit != views_.end()) return vit->second;
  return Status::NotFound(StrCat("no query or view named ", name));
}

std::vector<TslQuery> ReplSession::Views() const {
  std::vector<TslQuery> views;
  for (const auto& [name, view] : views_) views.push_back(view);
  return views;
}

ChaseOptions ReplSession::MakeChaseOptions() const {
  ChaseOptions options;
  options.constraints = constraints_ptr();
  for (const auto& [name, view] : views_) {
    options.constraint_exempt_sources.insert(name);
  }
  return options;
}

std::string ReplSession::Eval(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());
  auto answer = Evaluate(*query, catalog_);
  if (!answer.ok()) return RenderError(answer.status());
  return answer->ToString();
}

std::string ReplSession::Rewrite(std::string_view rest, bool contained) {
  std::string_view name = TakeWord(&rest);
  bool total = TakeWord(&rest) == "total";
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());
  RewriteOptions options;
  options.constraints = constraints_ptr();
  options.require_total = total;
  options.tracer = StartTrace();
  options.metrics = &metrics_;
  if (contained) {
    auto result = FindMaximallyContainedRewriting(*query, Views(), options);
    if (!result.ok()) return RenderError(result.status());
    std::string out =
        StrCat(result->rewriting.rules.size(), " contained rule(s)",
               result->equivalent ? " (union is equivalent)" : "", "\n");
    for (const TslQuery& rule : result->rewriting.rules) {
      out += StrCat("  ", rule.ToString(), "\n");
    }
    return out;
  }
  auto result = RewriteQuery(*query, Views(), options);
  if (!result.ok()) return RenderError(result.status());
  std::string out = StrCat(result->rewritings.size(), " rewriting(s); ",
                           result->mappings_found, " mapping(s), ",
                           result->candidates_tested, " candidate(s) tested\n");
  for (const TslQuery& rw : result->rewritings) {
    out += StrCat("  ", rw.ToString(), "\n");
  }
  return out;
}

std::string ReplSession::Explain(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());
  ChaseOptions chase_options = MakeChaseOptions();
  auto chased = ChaseQuery(*query, chase_options);
  if (!chased.ok()) {
    if (chased.status().IsUnsatisfiable()) {
      return StrCat("query is unsatisfiable under the dependencies: ",
                    chased.status().message(), "\n");
    }
    return RenderError(chased.status());
  }
  std::string out = StrCat("chased query:\n  ", chased->ToString(), "\n");

  std::vector<TslQuery> chased_views;
  for (const auto& [vname, view] : views_) {
    auto cv = ChaseQuery(view, chase_options);
    if (cv.ok()) chased_views.push_back(std::move(cv).value());
  }
  size_t mappings = 0;
  auto atoms =
      BuildCandidateAtoms(*chased, chased_views, &mappings);
  if (!atoms.ok()) return RenderError(atoms.status());
  out += StrCat("step 1A: ", mappings, " mapping(s) -> ",
                std::count_if(atoms->begin(), atoms->end(),
                              [](const CandidateAtom& a) { return a.is_view; }),
                " view instantiation(s):\n");
  for (const CandidateAtom& atom : *atoms) {
    if (!atom.is_view) continue;
    out += StrCat("  ", atom.condition.ToString(), "  covers {",
                  JoinMapped(atom.covers, ",",
                             [](size_t i) { return StrCat(i); }),
                  "}\n");
  }
  RewriteOptions options;
  options.constraints = constraints_ptr();
  auto result = RewriteQuery(*query, Views(), options);
  if (!result.ok()) return RenderError(result.status());
  out += StrCat("steps 1B-2: ", result->candidates_generated,
                " candidate(s) generated, ", result->candidates_tested,
                " composed+tested, ", result->rewritings.size(),
                " equivalent:\n");
  for (const TslQuery& rw : result->rewritings) {
    auto composed = ComposeWithViews(rw, Views());
    out += StrCat("  ", rw.ToString(), "\n");
    if (composed.ok()) {
      for (const TslQuery& rule : composed->rules) {
        out += StrCat("    expands to: ", rule.ToString(), "\n");
      }
    }
  }
  return out;
}

std::string ReplSession::Minimize(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());
  auto minimized = MinimizeQuery(*query, MakeChaseOptions());
  if (!minimized.ok()) return RenderError(minimized.status());
  return StrCat(minimized->ToString(), "\n");
}

std::string ReplSession::Equivalent(std::string_view rest) {
  std::string_view a = TakeWord(&rest);
  std::string_view b = TakeWord(&rest);
  auto qa = LookupQuery(a);
  if (!qa.ok()) return RenderError(qa.status());
  auto qb = LookupQuery(b);
  if (!qb.ok()) return RenderError(qb.status());
  auto eq = AreEquivalent(*qa, *qb, MakeChaseOptions());
  if (!eq.ok()) return RenderError(eq.status());
  return *eq ? "equivalent\n" : "not equivalent\n";
}

Analyzer ReplSession::MakeAnalyzer() const {
  AnalyzerOptions options;
  options.constraints = constraints_ptr();
  for (const auto& [name, view] : views_) {
    options.constraint_exempt_sources.insert(name);
  }
  return Analyzer(options);
}

std::string ReplSession::RenderReport(const AnalysisReport& report) const {
  if (report.diagnostics.empty()) return "no diagnostics\n";
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    auto it = rule_texts_.find(d.rule);
    out += RenderDiagnostic(
        d, it != rule_texts_.end() ? std::string_view(it->second)
                                   : std::string_view());
  }
  out += StrCat(report.count(Severity::kError), " error(s), ",
                report.count(Severity::kWarning), " warning(s), ",
                report.count(Severity::kNote), " note(s)\n");
  return out;
}

std::string ReplSession::Analyze(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  Analyzer analyzer = MakeAnalyzer();
  if (!name.empty()) {
    auto query = LookupQuery(name);
    if (!query.ok()) return RenderError(query.status());
    return RenderReport(analyzer.AnalyzeQuery(*query));
  }
  // All rules at once: the views go through AnalyzeRules so the cross-rule
  // dead-view pass sees them together; queries are analyzed one by one.
  AnalysisReport report = analyzer.AnalyzeRules(Views());
  for (const auto& [qname, query] : queries_) {
    AnalysisReport qr = analyzer.AnalyzeQuery(query);
    report.diagnostics.insert(report.diagnostics.end(),
                              qr.diagnostics.begin(), qr.diagnostics.end());
  }
  return RenderReport(report);
}

std::string ReplSession::Compile(std::string_view rest) {
  if (!Trim(rest).empty()) return "usage: compile\n";
  // Capabilities are the real catalog when declared; otherwise every plain
  // view becomes a single-capability source (DescribeViews), so `compile`
  // is useful before any `capability` line exists.
  std::vector<SourceDescription> sources;
  if (!capabilities_.empty()) {
    for (const auto& [src, sd] : capabilities_) sources.push_back(sd);
  } else {
    sources = DescribeViews(Views());
  }
  if (sources.empty()) return "error: no capabilities or views to compile\n";
  CatalogCompileOptions options;
  options.tracer = StartTrace();
  options.metrics = &metrics_;
  auto compiled = CompileCatalog(sources, constraints_ptr(), options);
  if (!compiled.ok()) return RenderError(compiled.status());

  std::string out;
  for (const Diagnostic& d : compiled->diagnostics()) {
    auto it = rule_texts_.find(d.rule);
    out += RenderDiagnostic(
        d, it != rule_texts_.end() ? std::string_view(it->second)
                                   : std::string_view());
  }
  out += StrCat(compiled->Summary(), "\n");
  return out;
}

std::string ReplSession::Materialize(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return StrCat("error: no view named ", name, "\n");
  }
  auto result = MaterializeView(it->second, catalog_);
  if (!result.ok()) return RenderError(result.status());
  size_t objects = result->ReachableOids().size();
  std::string source_name = result->name();
  catalog_.Put(std::move(result).value());
  if (server_ != nullptr) {
    server_->UpdateCatalog(*catalog_.Find(source_name).value());
  }
  bool published = server_ != nullptr;
  return StrCat("view ", name, " materialized as a source (", objects,
                " objects)", published ? ", published" : "", "\n");
}

std::string ReplSession::DefineCapability(std::string_view rest) {
  std::string_view source = TakeWord(&rest);
  if (source.empty() || rest.empty()) {
    return "usage: capability <source> (Name) <head> :- <body>\n";
  }
  auto view = ParseTslQuery(rest);
  if (!view.ok()) return RenderError(view.status());
  if (view->name.empty()) {
    return "error: capability views need a (Name) prefix\n";
  }
  if (Status st = ValidateQuery(*view); !st.ok()) return RenderError(st);
  for (const Condition& c : view->body) {
    if (c.source != source) {
      return StrCat("error: capability of ", source,
                    " ranges over foreign source ", c.source, "\n");
    }
  }
  std::string name = view->name;
  SourceDescription& sd = capabilities_[std::string(source)];
  sd.source = std::string(source);
  // Redefinition replaces; a fresh name appends to the interface.
  bool replaced = false;
  for (Capability& cap : sd.capabilities) {
    if (cap.view.name == name) {
      cap.view = *view;
      replaced = true;
      break;
    }
  }
  if (!replaced) sd.capabilities.push_back(Capability{*view, {}});
  rule_texts_.insert_or_assign(name, std::string(rest));
  // A capability change alters the running planning interface: swap a
  // rebuilt mediator into the server (plan-cache maintenance comes with
  // the swap).
  if (server_ != nullptr) {
    std::vector<SourceDescription> sources;
    for (const auto& [src, desc] : capabilities_) sources.push_back(desc);
    auto mediator = Mediator::Make(std::move(sources), constraints_ptr());
    if (!mediator.ok()) {
      return StrCat("capability ", name, " of ", source,
                    replaced ? " redefined" : " defined",
                    ", but the running interface was kept: ",
                    mediator.status().ToString(), "\n");
    }
    MaintenanceReport report = server_->ReplaceMediator(*mediator);
    return StrCat("capability ", name, " of ", source,
                  replaced ? " redefined" : " defined",
                  ", server mediator replaced: ", report.ToString(), "\n");
  }
  return StrCat("capability ", name, " of ", source,
                replaced ? " redefined\n" : " defined\n");
}

std::string ReplSession::SetFault(std::string_view rest) {
  constexpr std::string_view kUsage =
      "usage: fault <source> unavailable|flaky <p>|slow <ticks>|"
      "truncated <n>|none\n";
  std::string_view source = TakeWord(&rest);
  std::string_view kind = TakeWord(&rest);
  if (source.empty() || kind.empty()) return std::string(kUsage);
  if (kind == "none") {
    faults_.erase(std::string(source));
    return StrCat("fault on ", source, " cleared\n");
  }
  Fault fault;
  if (kind == "unavailable") {
    fault = Fault::Unavailable();
  } else if (kind == "flaky") {
    std::string p(TakeWord(&rest));
    if (p.empty()) return std::string(kUsage);
    fault = Fault::Flaky(std::strtod(p.c_str(), nullptr));
  } else if (kind == "slow") {
    std::string ticks(TakeWord(&rest));
    if (ticks.empty()) return std::string(kUsage);
    fault = Fault::SlowBy(std::strtoull(ticks.c_str(), nullptr, 10));
  } else if (kind == "truncated") {
    std::string keep(TakeWord(&rest));
    if (keep.empty()) return std::string(kUsage);
    fault = Fault::Truncated(std::strtoull(keep.c_str(), nullptr, 10));
  } else {
    return std::string(kUsage);
  }
  faults_[std::string(source)] = fault;
  return StrCat("fault on ", source, ": ", fault.ToString(), "\n");
}

std::string ReplSession::PlanCmd(std::string_view rest) {
  constexpr std::string_view kUsage = "usage: plan <query> [ir]\n";
  std::string_view name = TakeWord(&rest);
  if (name.empty()) return std::string(kUsage);
  std::string_view mode = TakeWord(&rest);
  if (!mode.empty() && mode != "ir") return std::string(kUsage);
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());

  std::vector<TslQuery> rewritings;
  std::string out;
  if (!capabilities_.empty()) {
    std::vector<SourceDescription> sources;
    for (const auto& [src, sd] : capabilities_) sources.push_back(sd);
    auto mediator = Mediator::Make(std::move(sources), constraints_ptr());
    if (!mediator.ok()) return RenderError(mediator.status());
    auto plans = mediator->Plan(*query);
    if (!plans.ok()) return RenderError(plans.status());
    out = StrCat(plans->size(), " capability plan(s)",
                 plans->truncated ? " (truncated)" : "", ":\n");
    for (const MediatorPlan& plan : *plans) {
      out += StrCat("  ", plan.ToString(), "\n");
      rewritings.push_back(plan.rewriting);
    }
  } else if (!views_.empty()) {
    RewriteOptions options;
    options.constraints = constraints_ptr();
    auto result = RewriteQuery(*query, Views(), options);
    if (!result.ok()) return RenderError(result.status());
    out = StrCat(result->rewritings.size(), " rewriting plan(s):\n");
    for (const TslQuery& rw : result->rewritings) {
      out += StrCat("  ", rw.ToString(), "\n");
      rewritings.push_back(rw);
    }
  } else {
    return "error: no capabilities or views defined (see `capability`, "
           "`view`)\n";
  }
  if (mode != "ir") return out;
  if (rewritings.empty()) return StrCat(out, "nothing to compile\n");
  PlanCompiler compiler(&metrics_);
  auto program = compiler.CompilePlans(rewritings);
  if (!program.ok()) return RenderError(program.status());
  out += Disassemble(**program);
  return out;
}

std::string ReplSession::Mediate(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  if (name.empty()) return "usage: mediate <query> [seed <n>]\n";
  uint64_t seed = 0;
  if (std::string_view word = TakeWord(&rest); word == "seed") {
    std::string value(TakeWord(&rest));
    if (value.empty()) return "usage: mediate <query> [seed <n>]\n";
    seed = std::strtoull(value.c_str(), nullptr, 10);
  } else if (!word.empty()) {
    return "usage: mediate <query> [seed <n>]\n";
  }
  auto query = LookupQuery(name);
  if (!query.ok()) return RenderError(query.status());
  if (capabilities_.empty()) {
    return "error: no capabilities defined (see `capability`)\n";
  }
  std::vector<SourceDescription> sources;
  for (const auto& [src, sd] : capabilities_) sources.push_back(sd);
  auto mediator = Mediator::Make(std::move(sources), constraints_ptr());
  if (!mediator.ok()) return RenderError(mediator.status());
  CatalogWrapper base;
  // With tracing on, execution runs on the trace clock so span timestamps
  // are the same virtual ticks deadlines and backoffs count in.
  Tracer* tracer = StartTrace();
  VirtualClock local_clock;
  VirtualClock* clock =
      tracer != nullptr ? trace_clock_.get() : &local_clock;
  FaultInjector injector(&base, seed, clock);
  injector.set_tracer(tracer);
  for (const auto& [src, fault] : faults_) {
    FaultSchedule schedule;
    schedule.steady_state = fault;
    injector.SetSchedule(src, std::move(schedule));
  }
  ExecutionPolicy policy;
  policy.wrapper = &injector;
  policy.clock = clock;
  policy.seed = seed;
  policy.tracer = tracer;
  policy.metrics = &metrics_;
  auto answer = mediator->Answer(*query, catalog_, policy);
  if (!answer.ok()) return RenderError(answer.status());
  std::string out =
      StrCat(answer->result.ToString(), answer->report.ToString());
  if (tracer != nullptr) {
    out += StrCat("trace: ", tracer->span_count(),
                  " span(s) recorded (`trace dump`)\n");
  }
  return out;
}

std::string ReplSession::Chaos(std::string_view rest) {
  constexpr std::string_view kUsage =
      "usage: chaos [seed <n>] [requests <n>]\n";
  uint64_t seed = 0;
  size_t requests = 6;
  while (!rest.empty()) {
    std::string_view word = TakeWord(&rest);
    std::string value(TakeWord(&rest));
    if (value.empty()) return std::string(kUsage);
    if (word == "seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (word == "requests") {
      requests = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return std::string(kUsage);
    }
  }
  if (capabilities_.empty()) {
    return "error: no capabilities defined (see `capability`)\n";
  }
  if (queries_.empty()) return "error: no queries defined (see `query`)\n";
  std::vector<SourceDescription> sources;
  for (const auto& [src, sd] : capabilities_) sources.push_back(sd);
  std::vector<TslQuery> queries;
  for (const auto& [name, query] : queries_) queries.push_back(query);
  ChaosOptions options;
  options.seed = seed;
  options.requests_per_phase = requests;
  // The drill runs its own server (phases mutate snapshots and saturate
  // the pool); a `serve start` session is untouched.
  auto script = StandardChaosScript(sources, options);
  auto drill = RunChaosDrill(sources, catalog_, queries, script, options);
  if (!drill.ok()) return RenderError(drill.status());
  std::string out = drill->report;
  for (const std::string& violation : drill->violations) {
    out += StrCat("violation: ", violation, "\n");
  }
  return out;
}

std::string ReplSession::Serve(std::string_view rest) {
  constexpr std::string_view kUsage =
      "usage: serve start [threads <n>] [queue <n>] [cache <n>]\n"
      "       serve <query> [seed <n>]\n"
      "       serve stop\n";
  std::string_view word = TakeWord(&rest);
  if (word.empty()) return std::string(kUsage);
  if (word == "start") return ServeStart(rest);
  if (word == "stop") {
    if (server_ == nullptr) return "no server running\n";
    server_.reset();  // drains admitted requests, joins the workers
    return "server stopped\n";
  }
  if (server_ == nullptr) {
    return "error: no server running (see `serve start`)\n";
  }
  uint64_t seed = 0;
  if (std::string_view option = TakeWord(&rest); option == "seed") {
    std::string value(TakeWord(&rest));
    if (value.empty()) return std::string(kUsage);
    seed = std::strtoull(value.c_str(), nullptr, 10);
  } else if (!option.empty()) {
    return std::string(kUsage);
  }
  auto query = LookupQuery(word);
  if (!query.ok()) return RenderError(query.status());
  ServeOptions serve;
  serve.seed = seed;
  // The server rebinds the tracer to its per-request clock (set_clock)
  // before the request span opens; trace_clock_ is just the placeholder
  // the tracer is born with.
  serve.tracer = StartTrace();
  auto submitted = server_->Submit(*query, serve);
  if (!submitted.ok()) return RenderError(submitted.status());
  auto response = std::move(submitted).value().get();
  if (!response.ok()) return RenderError(response.status());
  std::string out =
      StrCat(response->answer.result.ToString(), "plan cache: ",
             response->plan_cache_hit ? "hit" : "miss", "\n");
  if (serve.tracer != nullptr) {
    out += StrCat("trace: ", serve.tracer->span_count(),
                  " span(s) recorded (`trace dump`)\n");
  }
  return out;
}

std::string ReplSession::ServeStart(std::string_view rest) {
  constexpr std::string_view kUsage =
      "usage: serve start [threads <n>] [queue <n>] [cache <n>]\n";
  if (server_ != nullptr) {
    return "error: server already running (see `serve stop`)\n";
  }
  if (capabilities_.empty()) {
    return "error: no capabilities defined (see `capability`)\n";
  }
  ServerOptions options;
  options.metrics = &metrics_;
  while (!rest.empty()) {
    std::string_view option = TakeWord(&rest);
    std::string value(TakeWord(&rest));
    if (value.empty()) return std::string(kUsage);
    uint64_t parsed = std::strtoull(value.c_str(), nullptr, 10);
    if (option == "threads") {
      options.threads = static_cast<size_t>(parsed);
    } else if (option == "queue") {
      options.queue_capacity = static_cast<size_t>(parsed);
    } else if (option == "cache") {
      options.plan_cache_capacity = static_cast<size_t>(parsed);
    } else {
      return std::string(kUsage);
    }
  }
  std::vector<SourceDescription> sources;
  for (const auto& [src, sd] : capabilities_) sources.push_back(sd);
  auto mediator = Mediator::Make(std::move(sources), constraints_ptr());
  if (!mediator.ok()) return RenderError(mediator.status());
  // Snapshot the `fault` schedules now: each request replays them through
  // its own injector, seeded by `serve <query> seed <n>`.
  WrapperFactory factory = nullptr;
  if (!faults_.empty()) {
    std::map<std::string, FaultSchedule> schedules;
    for (const auto& [src, fault] : faults_) {
      FaultSchedule schedule;
      schedule.steady_state = fault;
      schedules[src] = std::move(schedule);
    }
    factory = MakeFaultInjectingWrapperFactory(std::move(schedules));
  }
  server_ = std::make_unique<QueryServer>(std::move(mediator).value(),
                                          catalog_, options,
                                          std::move(factory));
  return StrCat("serving ", capabilities_.size(), " source interface(s) on ",
                options.threads, " thread(s) (queue ", options.queue_capacity,
                ", plan cache ", options.plan_cache_capacity, ")\n");
}

std::string ReplSession::Stats(std::string_view rest) {
  if (!Trim(rest).empty()) return "usage: stats\n";
  std::string out;
  if (server_ != nullptr) out += server_->stats().ToString();
  std::string metrics = metrics_.ToText();
  if (!metrics.empty()) {
    out += "metrics:\n";
    out += metrics;
  }
  if (out.empty()) {
    return "no server running and no metrics recorded yet\n";
  }
  return out;
}

Tracer* ReplSession::StartTrace() {
  if (!trace_enabled_) return nullptr;
  // Drop the old tracer before its clock: last_trace_ holds a pointer into
  // trace_clock_, so the replacement order matters.
  last_trace_.reset();
  trace_clock_ = std::make_unique<VirtualClock>();
  last_trace_ = std::make_unique<Tracer>(trace_clock_.get());
  return last_trace_.get();
}

std::string ReplSession::TraceCmd(std::string_view rest) {
  constexpr std::string_view kUsage = "usage: trace on|off|dump [json]\n";
  std::string_view word = TakeWord(&rest);
  if (word == "on") {
    if (!Trim(rest).empty()) return std::string(kUsage);
    trace_enabled_ = true;
    return "tracing on: rewrite/mediate/serve record spans "
           "(`trace dump` shows the last command)\n";
  }
  if (word == "off") {
    if (!Trim(rest).empty()) return std::string(kUsage);
    trace_enabled_ = false;
    return "tracing off\n";
  }
  if (word == "dump") {
    std::string_view format = TakeWord(&rest);
    if (!format.empty() && format != "json") return std::string(kUsage);
    if (!Trim(rest).empty()) return std::string(kUsage);
    if (last_trace_ == nullptr) {
      return "no trace recorded (see `trace on`, then run a command)\n";
    }
    return format == "json" ? last_trace_->ToChromeJson()
                            : last_trace_->ToText();
  }
  return std::string(kUsage);
}

std::string ReplSession::Show(std::string_view rest) {
  std::string_view what = TakeWord(&rest);
  if (what == "sources") {
    std::string out;
    for (const auto& [name, db] : catalog_.sources()) {
      out += StrCat(name, ": ", db.ReachableOids().size(),
                    " reachable objects, ", db.roots().size(), " roots\n");
    }
    return out.empty() ? "no sources\n" : out;
  }
  if (what == "views") {
    std::string out;
    for (const auto& [name, view] : views_) {
      out += StrCat("(", name, ") ", view.ToString(), "\n");
    }
    return out.empty() ? "no views\n" : out;
  }
  if (what == "queries") {
    std::string out;
    for (const auto& [name, query] : queries_) {
      out += StrCat("(", name, ") ", query.ToString(), "\n");
    }
    return out.empty() ? "no queries\n" : out;
  }
  if (what == "constraints") {
    if (!constraints_.has_value()) return "no constraints\n";
    return constraints_->dtd().ToString();
  }
  if (what == "capabilities") {
    std::string out;
    for (const auto& [src, sd] : capabilities_) {
      for (const Capability& cap : sd.capabilities) {
        out += StrCat(src, ": (", cap.view.name, ") ", cap.view.ToString(),
                      "\n");
      }
    }
    return out.empty() ? "no capabilities\n" : out;
  }
  if (what == "faults") {
    std::string out;
    for (const auto& [src, fault] : faults_) {
      out += StrCat(src, ": ", fault.ToString(), "\n");
    }
    return out.empty() ? "no faults\n" : out;
  }
  return "usage: show sources|views|queries|constraints|capabilities|"
         "faults\n";
}

std::string ReplSession::Load(std::string_view rest) {
  std::string path(TakeWord(&rest));
  std::ifstream in(path);
  if (!in) return StrCat("error: cannot open ", path, "\n");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ExecuteScript(buffer.str());
}

std::string ReplSession::WriteSource(std::string_view rest) {
  std::string_view name = TakeWord(&rest);
  std::string path(TakeWord(&rest));
  auto db = catalog_.Find(name);
  if (!db.ok()) return RenderError(db.status());
  if (path.empty()) return "usage: write <source> <path>\n";
  std::ofstream out(path);
  if (!out) return StrCat("error: cannot open ", path, " for writing\n");
  out << (*db)->ToString();
  return StrCat("wrote ", name, " to ", path, "\n");
}

}  // namespace tslrw
