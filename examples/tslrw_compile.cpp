// Command-line front end for the whole-catalog compiler: reads a TSL view
// catalog from files (or stdin when no file is given), runs CompileCatalog
// over it — offline chase, structural signatures, subsumption lattice,
// TSL2xx cross-view diagnostics — and prints the findings with caret
// snippets pointing into the input.
//
//   ./build/examples/tslrw_compile catalog.tsl
//   ./build/examples/tslrw_compile --strict --dtd schema.dtd catalog.tsl
//   ./build/examples/tslrw_compile --lattice catalog.tsl
//
// Each input file is one catalog: every rule is a capability view, grouped
// into sources by its body source. Lines of the form
//
//   %bind <ViewName> <Var> [<Var> ...]
//
// declare a binding pattern for a view (the `%` prefix makes them comments
// to the TSL parser, so one file carries both). `--dtd FILE` chases under
// the DTD's constraints, and `--lattice` prints the subsumption edges.
//
// Exit status: 0 on success, 1 when --strict was given and some catalog
// produced an error-level diagnostic (the CI gate), 2 on I/O, parse, or
// compile failures. Without --strict, error-level findings are printed but
// report-only. docs/DIAGNOSTICS.md catalogues every code.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "catalog/compiler.h"
#include "constraints/dtd.h"
#include "constraints/inference.h"
#include "tsl/parser.h"

namespace {

struct Input {
  std::string name;
  std::string text;
};

struct Args {
  bool strict = false;
  bool lattice = false;
  std::string dtd_path;
  std::vector<std::string> files;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Collects `%bind <View> <Var...>` directives from \p text.
std::map<std::string, std::set<std::string>> ParseBindDirectives(
    const std::string& text) {
  std::map<std::string, std::set<std::string>> binds;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string word;
    if (!(words >> word) || word != "%bind") continue;
    std::string view;
    if (!(words >> view)) continue;
    std::set<std::string>& vars = binds[view];
    while (words >> word) vars.insert(word);
  }
  return binds;
}

void PrintLattice(const tslrw::CompiledCatalog& catalog,
                  const std::string& name) {
  for (const tslrw::CatalogLatticeEdge& edge : catalog.lattice()) {
    const std::string& sub = catalog.index().views()[edge.subsumed].name;
    const std::string& sup = catalog.index().views()[edge.subsuming].name;
    std::printf("%s: lattice: %s %s %s\n", name.c_str(), sub.c_str(),
                edge.equivalent ? "==" : "<=", sup.c_str());
  }
  if (catalog.lattice_truncated()) {
    std::printf("%s: lattice: (truncated by containment budget)\n",
                name.c_str());
  }
}

/// Renders a compiled catalog's report; returns 1 if it holds error-level
/// diagnostics, else 0.
int Report(const tslrw::CompiledCatalog& catalog, const Input& input,
           bool lattice) {
  for (const tslrw::Diagnostic& d : catalog.diagnostics()) {
    std::fputs(input.name.c_str(), stdout);
    std::fputs(":", stdout);
    std::fputs(tslrw::RenderDiagnostic(d, input.text).c_str(), stdout);
  }
  if (lattice) PrintLattice(catalog, input.name);
  std::printf("%s: %s\n", input.name.c_str(), catalog.Summary().c_str());
  return catalog.error_count() > 0 ? 1 : 0;
}

/// Compiles one catalog file end to end; \p errors accumulates whether any
/// error-level diagnostic was seen. Returns 0/2 (I/O or compile failure).
int CompileOne(const Input& input,
               const tslrw::StructuralConstraints* constraints,
               const Args& args, int* errors) {
  tslrw::Result<std::vector<tslrw::TslQuery>> views =
      tslrw::ParseTslProgram(input.text);
  if (!views.ok()) {
    std::fprintf(stderr, "%s: parse error: %s\n", input.name.c_str(),
                 std::string(views.status().message()).c_str());
    return 2;
  }
  std::vector<tslrw::SourceDescription> sources =
      tslrw::DescribeViews(*views);
  const std::map<std::string, std::set<std::string>> binds =
      ParseBindDirectives(input.text);
  for (tslrw::SourceDescription& source : sources) {
    for (tslrw::Capability& capability : source.capabilities) {
      auto bind = binds.find(capability.view.name);
      if (bind != binds.end()) capability.bound_variables = bind->second;
    }
  }
  tslrw::Result<tslrw::CompiledCatalog> compiled =
      tslrw::CompileCatalog(sources, constraints);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s: compile error: %s\n", input.name.c_str(),
                 std::string(compiled.status().message()).c_str());
    return 2;
  }
  *errors |= Report(*compiled, input, args.lattice);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tslrw_compile [--strict] [--lattice] [--dtd FILE]\n"
      "                     [catalog.tsl ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      args.strict = true;
    } else if (arg == "--lattice") {
      args.lattice = true;
    } else if (arg == "--dtd" && i + 1 < argc) {
      args.dtd_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      args.files.push_back(arg);
    }
  }
  tslrw::StructuralConstraints constraints;
  const tslrw::StructuralConstraints* constraints_ptr = nullptr;
  if (!args.dtd_path.empty()) {
    std::string dtd_text;
    if (!ReadFile(args.dtd_path, &dtd_text)) {
      std::fprintf(stderr, "cannot open %s\n", args.dtd_path.c_str());
      return 2;
    }
    tslrw::Result<tslrw::Dtd> dtd = tslrw::Dtd::Parse(dtd_text);
    if (!dtd.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.dtd_path.c_str(),
                   std::string(dtd.status().message()).c_str());
      return 2;
    }
    constraints = tslrw::StructuralConstraints(std::move(dtd).value());
    constraints_ptr = &constraints;
  }

  std::vector<Input> inputs;
  if (!args.files.empty()) {
    for (const std::string& file : args.files) {
      Input input{file, ""};
      if (!ReadFile(file, &input.text)) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 2;
      }
      inputs.push_back(std::move(input));
    }
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    inputs.push_back({"<stdin>", buffer.str()});
  }

  int errors = 0;
  for (const Input& input : inputs) {
    int hard = CompileOne(input, constraints_ptr, args, &errors);
    if (hard != 0) return hard;
  }
  return args.strict ? errors : 0;
}
