#ifndef TSLRW_IR_IR_H_
#define TSLRW_IR_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oem/term.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief Opcodes of the flat register-based execution IR (docs/IR.md).
///
/// A program is one shared op vector sliced into per-rule *segments* (match
/// region + emit region) and shared *match units*. The match region is a
/// backtracking iterator pipeline over an explicit binding-register file:
/// iterator ops (kIterRoots / kIterMembers / kJoinUnit) open choice points,
/// match ops bind registers through a trail, and failure of any op resumes
/// the innermost choice point after unwinding the trail — the bind-trail
/// insight of the parallel rewriter's MatchInto applied to evaluation.
enum class IrOpCode : uint8_t {
  // -- iterator ops (each opens a choice point) --
  /// a = source index, b = pattern index (top-level condition pattern, used
  /// for the constant-root-label prefilter), c = object slot loaded with
  /// each candidate root in turn.
  kIterRoots,
  /// a = parent object slot, b = pattern index (the set-pattern member,
  /// whose step kind selects children / label chains / descendants),
  /// c = object slot for the candidate.
  kIterMembers,
  /// a = unit index, b = bindmap index. Iterates the unit's materialized
  /// rows; for each row, every unit column is copied into its mapped
  /// segment register — compare on already-bound registers (the join
  /// filter), bind through the trail otherwise.
  kJoinUnit,
  // -- match ops (fail => backtrack) --
  /// a = compiled term, b = object slot: match the term against the
  /// object's oid.
  kMatchOid,
  /// a = compiled term, b = object slot: match the term against the
  /// object's label (skipped by the compiler for `**` steps).
  kMatchLabel,
  /// a = compiled term, b = object slot: match the term against the
  /// object's value — atomic values structurally, set values by binding a
  /// value variable to the (database, owner) subgraph.
  kMatchValueTerm,
  /// a = object slot: the object must be set-valued (guards set patterns
  /// and member iteration).
  kRequireSet,
  // -- emit ops --
  /// a = segment index: record the full register frame as one satisfying
  /// row, then backtrack to enumerate the next.
  kEmitRow,
  /// a = unit index: like kEmitRow but appends to the unit's row cache
  /// (kept as an ordered multiset; the segment's row set dedups later,
  /// exactly like the tree walker's final std::set<Assignment>).
  kEmitUnitRow,
  /// a = compiled head index. Instantiates the head pattern under the
  /// current row (fusing into the answer database) and leaves the created
  /// root oid in the emit scratch register.
  kEmitHead,
  /// Adds the emit scratch oid to the answer's roots.
  kFuseRoot,
  // -- control --
  /// a = target pc (absolute). Terminates each emit region.
  kBranch,
};

/// \brief A fixed-width flat op. Operand meaning depends on the opcode;
/// unused operands are -1.
struct IrOp {
  IrOpCode code;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
};

/// \brief A body/head term compiled against a frame: variables carry their
/// register index, atoms and function spines keep the original Term for
/// exact comparisons and byte-identical error messages.
struct CompiledTerm {
  TermKind kind = TermKind::kAtom;
  /// The original term: atom spelling for kAtom, variable for error text,
  /// functor for kFunction.
  Term term;
  /// kVariable: frame register, or -1 when the variable is not part of the
  /// frame (a head-only variable — reproduces the tree walker's "unsafe
  /// head variable" error at emit time).
  int32_t reg = -1;
  /// kFunction: argument CompiledTerm indices.
  std::vector<int32_t> args;
};

/// \brief A head object pattern compiled for the emit region; mirrors
/// eval's BuildObject shape exactly.
struct CompiledHead {
  int32_t oid = -1;    ///< CompiledTerm index
  int32_t label = -1;  ///< CompiledTerm index
  bool is_set = false;
  int32_t value = -1;               ///< CompiledTerm index when !is_set
  std::vector<int32_t> members;     ///< CompiledHead indices when is_set
};

/// \brief One rule of the compiled rule set: a match region (ends with
/// kEmitRow) enumerating satisfying rows, and an emit region (kEmitHead /
/// kFuseRoot / kBranch) run once per sorted deduplicated row.
struct IrSegment {
  std::string rule_name;
  int32_t match_begin = 0;
  int32_t match_end = 0;
  int32_t emit_begin = 0;
  int32_t emit_end = 0;
  /// Binding registers: one per body variable. Register i holds vars[i];
  /// vars is sorted by Term order, so a lexicographic compare of register
  /// rows equals the tree walker's std::map<Term, BoundValue> compare (all
  /// complete rows bind exactly this variable set).
  int32_t frame_size = 0;
  /// Object slots used by this segment's iterator pipeline.
  int32_t slot_count = 0;
  std::vector<Term> vars;
};

/// \brief A match unit: one body condition matched from scratch
/// (independent of outer bindings), materialized once per execution and
/// shared by every kJoinUnit referencing it — every condition of the
/// program with the same α-invariant key.
struct IrUnit {
  int32_t begin = 0;  ///< op range; ends with kEmitUnitRow
  int32_t end = 0;
  int32_t frame_size = 0;
  int32_t slot_count = 0;
  /// Sorted variables of the condition; row column i holds vars[i].
  std::vector<Term> vars;
  /// First-occurrence index of each column's variable in the condition's
  /// canonical walk, aligned with vars. A condition that reuses the unit
  /// maps column i to its own variable with the same index.
  std::vector<int32_t> col_canon;
  int32_t source = -1;  ///< index into IrProgram::sources
  /// StableFingerprint of the α-key (tsl/canonical.h) the unit was
  /// interned by, that of its first condition.
  uint64_t fingerprint = 0;
};

/// \brief A compiled plan: flat ops plus the constant pools they index.
/// Immutable after compilation, so one program is safely executed by many
/// threads concurrently (each execution carries its own state).
struct IrProgram {
  std::vector<IrOp> ops;
  std::vector<IrSegment> segments;
  std::vector<IrUnit> units;
  std::vector<CompiledTerm> terms;
  std::vector<CompiledHead> heads;
  /// Patterns referenced by iterator ops (prefilter labels, step kinds).
  std::vector<ObjectPattern> patterns;
  /// Source-name pool; "" resolves against IrExecOptions::default_source,
  /// mirroring EvalOptions.
  std::vector<std::string> sources;
  /// kJoinUnit operand b: unit column -> segment register.
  std::vector<std::vector<int32_t>> bindmaps;
  /// Name of the front rule; the answer database's default name.
  std::string default_name;

  size_t op_count() const { return ops.size(); }
};

/// \brief Opcode mnemonic ("iter_roots", "match_oid", ...).
const char* IrOpName(IrOpCode code);

/// \brief Deterministic text listing of the whole program: segments, units,
/// ops with resolved operands, register files. The `plan <Q> ir` shell
/// command and examples/tslrw_ir print this.
std::string Disassemble(const IrProgram& program);

}  // namespace tslrw

#endif  // TSLRW_IR_IR_H_
