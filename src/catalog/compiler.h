#ifndef TSLRW_CATALOG_COMPILER_H_
#define TSLRW_CATALOG_COMPILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/result.h"
#include "constraints/inference.h"
#include "mediator/capability.h"
#include "rewrite/view_index.h"
#include "tsl/ast.h"

namespace tslrw {

class MetricRegistry;
class Tracer;

/// \brief Knobs for the whole-catalog compiler.
struct CatalogCompileOptions {
  /// Chase budget: a view whose normal-form body exceeds this many path
  /// conditions is not chased offline (TSL204); it is always admitted by
  /// the index and chased per query, exactly as the full scan would.
  /// (A Mediator's own index has no budget: every view is chased once.)
  size_t max_chase_conditions = 256;
  Tracer* tracer = nullptr;     ///< optional `catalog.compile` span tree
  MetricRegistry* metrics = nullptr;  ///< optional `catalog.*` counters
};

/// One subsumption-lattice edge: every answer `subsumed` contributes is
/// also produced by `subsuming` (containment of the chased views, \S4
/// one-sided test). `equivalent` marks edges present in both directions.
struct CatalogLatticeEdge {
  uint32_t subsumed = 0;
  uint32_t subsuming = 0;
  bool equivalent = false;
};

/// \brief The compile report: the view index every Mediator also builds
/// for itself (rewrite/view_index.h), the subsumption lattice over its
/// views (by ordinal), and the TSL2xx findings plus the per-rule
/// TSL0xx/1xx ones (docs/CATALOG.md).
class CompiledCatalog {
 public:
  /// Sorts \p diagnostics into SortDiagnostics order.
  CompiledCatalog(ViewIndex index, std::vector<CatalogLatticeEdge> lattice,
                  bool lattice_truncated,
                  std::vector<Diagnostic> diagnostics);

  const ViewIndex& index() const { return index_; }
  const std::vector<CatalogLatticeEdge>& lattice() const { return lattice_; }
  /// True when the containment-test budget cut the lattice short.
  bool lattice_truncated() const { return lattice_truncated_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t error_count() const;

  /// "compiled 12 view(s): 10 indexed, 1 unsatisfiable, ..." one-liner.
  std::string Summary() const;

 private:
  ViewIndex index_;
  std::vector<CatalogLatticeEdge> lattice_;
  bool lattice_truncated_ = false;
  std::vector<Diagnostic> diagnostics_;
};

/// \brief Stable fingerprint of a constraint set (the DTD dump, which is
/// deterministic); distinguishes "no constraints" from every real DTD.
uint64_t ConstraintsFingerprint(const StructuralConstraints* constraints);

/// \brief The whole-catalog static analyzer: builds the view index (every
/// view chased once, structural signatures, anchor buckets), derives the
/// subsumption lattice, emits the TSL2xx cross-view diagnostics, and folds
/// in the per-rule analyzer passes (TSL0xx/1xx). The cross-rule TSL104
/// dead-view pass is not run: only `tslrw_analyze` and the shell's
/// `analyze` report it. Fails only on malformed descriptions (duplicate
/// names, foreign sources) or hard chase errors; per-view findings —
/// including error-level ones — land in diagnostics() so a front end can
/// render all of them.
Result<CompiledCatalog> CompileCatalog(
    const std::vector<SourceDescription>& sources,
    const StructuralConstraints* constraints,
    const CatalogCompileOptions& options = {});

/// Convenience: wraps bare \p views into single-capability
/// SourceDescriptions grouped by body source (what the shell's `compile`
/// command and the CLI do when no capabilities were declared).
std::vector<SourceDescription> DescribeViews(
    const std::vector<TslQuery>& views);

}  // namespace tslrw

#endif  // TSLRW_CATALOG_COMPILER_H_
