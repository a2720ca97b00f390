#ifndef TSLRW_CATALOG_COMPILER_H_
#define TSLRW_CATALOG_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
  /// Run the pairwise-containment pass that derives the subsumption
  /// lattice (TSL200) and the α-duplicate grouping (TSL201).
  bool compute_lattice = true;
  /// Budget on containment tests (the pass is quadratic in #views before
  /// the signature prefilter); when hit, lattice_truncated() is set and
  /// the remaining pairs are skipped.
  size_t max_containment_pairs = 10000;
  /// Also run the per-rule Analyzer passes (TSL0xx/1xx) over every view
  /// and fold their diagnostics into the compile report, so `tslrw_compile`
  /// is a superset of `tslrw_analyze` over the catalog. The cross-rule
  /// dead-view pass stays off — TSL200/201 subsume it with exact evidence.
  bool analyze_rules = true;
  Tracer* tracer = nullptr;     ///< optional `catalog.compile` span tree
  MetricRegistry* metrics = nullptr;  ///< optional `catalog.*` counters
};

/// \brief What the compiler records about one view on top of its view-index
/// entry (CompiledCatalog::index().views(), same ordinal). Serialized with
/// that entry to the index file (catalog/index_file.h).
struct CompiledViewEntry {
  /// The source whose interface exports the view (reporting only).
  std::string source;
  /// CanonicalizeQuery(raw view).fingerprint — α-invariant identity, used
  /// by ValidateAgainst and the TSL201 duplicate grouping.
  uint64_t raw_fingerprint = 0;
  /// CanonicalizeQuery(chased view).fingerprint; 0 unless indexed.
  uint64_t chased_fingerprint = 0;
  /// The capability's binding pattern (sorted), kept for TSL203 and
  /// reporting.
  std::vector<std::string> bound_variables;
};

/// One subsumption-lattice edge: every answer `subsumed` contributes is
/// also produced by `subsuming` (containment of the chased views, \S4
/// one-sided test). `equivalent` marks edges present in both directions.
struct CatalogLatticeEdge {
  uint32_t subsumed = 0;
  uint32_t subsuming = 0;
  bool equivalent = false;
};

/// \brief The compiled catalog: the view index every Mediator also builds
/// for itself (rewrite/view_index.h), plus what the offline compiler adds
/// on top — per-view fingerprints and binding patterns, the subsumption
/// lattice, and the TSL2xx report — in the form the index file persists
/// (docs/CATALOG.md).
///
/// Immutable after Assemble; safe to share across threads.
class CompiledCatalog {
 public:
  /// Joins an index with the compiler's per-view records (parallel to
  /// index.views()), lattice, and diagnostics, and computes the catalog
  /// fingerprint. Both CompileCatalog and the index-file loader funnel
  /// through here. DataLoss when the parts disagree in size or a lattice
  /// edge names a view outside the catalog.
  static Result<std::shared_ptr<const CompiledCatalog>> Assemble(
      ViewIndex index, std::vector<CompiledViewEntry> entries,
      std::vector<CatalogLatticeEdge> lattice, bool lattice_truncated,
      std::vector<Diagnostic> diagnostics, uint64_t constraints_fingerprint);

  /// Verifies this catalog was compiled for exactly \p views (same names,
  /// same definitions, same order) under \p constraints — the check
  /// LoadOrCompileCatalog runs before trusting an index file.
  Status ValidateAgainst(const std::vector<TslQuery>& views,
                         const StructuralConstraints* constraints) const;
  /// Stable fingerprint of the compiled (views, constraints) pair.
  uint64_t catalog_fingerprint() const { return catalog_fingerprint_; }

  const ViewIndex& index() const { return index_; }
  const std::vector<CompiledViewEntry>& entries() const { return entries_; }
  const std::vector<CatalogLatticeEdge>& lattice() const { return lattice_; }
  bool lattice_truncated() const { return lattice_truncated_; }
  /// The TSL2xx findings (plus per-rule TSL0xx/1xx when the compile ran
  /// the analyzer), in SortDiagnostics order.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  uint64_t constraints_fingerprint() const { return constraints_fingerprint_; }
  size_t error_count() const;

  /// "compiled 12 view(s): 10 indexed, 1 unsatisfiable, ..." one-liner.
  std::string Summary() const;

 private:
  explicit CompiledCatalog(ViewIndex index) : index_(std::move(index)) {}

  ViewIndex index_;
  std::vector<CompiledViewEntry> entries_;
  std::vector<CatalogLatticeEdge> lattice_;
  std::vector<Diagnostic> diagnostics_;
  uint64_t catalog_fingerprint_ = 0;
  uint64_t constraints_fingerprint_ = 0;
  bool lattice_truncated_ = false;
};

/// \brief Stable fingerprint of a constraint set (the DTD dump, which is
/// deterministic); distinguishes "no constraints" from every real DTD.
uint64_t ConstraintsFingerprint(const StructuralConstraints* constraints);

/// \brief The whole-catalog static analyzer: builds the view index (every
/// view chased once, structural signatures, anchor buckets), derives the
/// subsumption lattice, and emits the TSL2xx cross-view diagnostics. Fails
/// only on malformed descriptions (duplicate names, foreign sources) or
/// hard chase errors; per-view findings — including error-level ones —
/// land in diagnostics() so a front end can render all of them.
Result<std::shared_ptr<const CompiledCatalog>> CompileCatalog(
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
