#include "ir/interp.h"

#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "eval/binding.h"
#include "eval/evaluator.h"
#include "eval/matcher.h"

namespace tslrw {

namespace {

/// Identical to eval's AsFusion: oid-key violations raised while building
/// the answer become fusion conflicts.
Status AsFusion(Status st) {
  if (st.ok() || st.code() != StatusCode::kInvalidArgument) return st;
  return Status::FusionConflict(st.message());
}

/// A register row: column i is the value of the frame's vars[i]. Frames are
/// sorted by Term order, so lexicographic row comparison under BoundValue's
/// operator< equals the tree walker's std::map<Term, BoundValue> comparison
/// (every complete row binds exactly the frame's variable set).
using Row = std::vector<BoundValue>;

/// An object slot of the iterator pipeline: the candidate plus the database
/// it lives in (needed for subgraph bindings and member stepping).
struct Slot {
  const OemObject* obj = nullptr;
  const OemDatabase* db = nullptr;
};

/// One open iterator: where to resume, which candidate comes next, and how
/// far to unwind the bind trail before loading it.
struct Choice {
  int32_t pc = 0;
  size_t next = 0;
  size_t mark = 0;
  const OemDatabase* db = nullptr;
  /// kIterMembers candidates (owned; vector moves keep the buffer).
  std::vector<Oid> owned;
  /// kIterRoots candidates: points into the per-pc root cache, whose map
  /// nodes are address-stable.
  const std::vector<Oid>* cached = nullptr;

  const std::vector<Oid>& oids() const {
    return cached != nullptr ? *cached : owned;
  }
};

/// \brief One execution of a program: lazily resolved sources, per-pc root
/// candidate caches, and materialized unit rows — all shared across the
/// program's segments, which is the compiled backend's leverage on plan
/// sets.
class Interp {
 public:
  Interp(const IrProgram& program, const SourceCatalog& catalog,
         const IrExecOptions& options)
      : p_(program),
        catalog_(catalog),
        options_(options),
        resolved_(program.sources.size(), nullptr),
        unit_rows_(program.units.size()),
        unit_done_(program.units.size(), false) {}

  /// Enumerates the segment's rows (sorted, deduplicated — the tree
  /// walker's final std::set<Assignment>) and runs the emit region once per
  /// row, in order, aborting on the first error exactly like EvaluateInto,
  /// whose eval.* metrics it reports too.
  Status RunSegment(const IrSegment& seg, OemDatabase* answer) {
    CountIf(options_.metrics, "eval.rules");
    std::set<Row> rows;
    TSLRW_RETURN_NOT_OK(RunMatch(seg.match_begin, seg.match_end,
                                 seg.frame_size, seg.slot_count,
                                 [&rows](const Row& r) { rows.insert(r); }));
    ObserveIf(options_.metrics, "eval.assignments", rows.size());
    for (const Row& row : rows) {
      TSLRW_RETURN_NOT_OK(RunEmit(seg, row, answer));
    }
    CountIf(options_.metrics, "eval.roots_emitted", rows.size());
    return Status::OK();
  }

 private:
  using Sink = std::function<void(const Row&)>;

  /// Resolves source pool entry \p idx against the catalog, once; "" means
  /// the default source, and a missing source fails with the catalog's
  /// NotFound — raised only if execution actually reaches an iterator over
  /// it, which is exactly when the tree walker's condition loop would have
  /// resolved it (the loop breaks once the frontier empties).
  Result<const OemDatabase*> Source(int32_t idx) {
    if (resolved_[idx] != nullptr) return resolved_[idx];
    const std::string& name = p_.sources[idx].empty()
                                  ? options_.default_source
                                  : p_.sources[idx];
    TSLRW_ASSIGN_OR_RETURN(const OemDatabase* db, catalog_.Find(name));
    resolved_[idx] = db;
    return db;
  }

  /// Candidate roots for the kIterRoots at \p pc, with the tree walker's
  /// constant-root-label prefilter applied; computed once per pc (the
  /// database is immutable during execution).
  const std::vector<Oid>& RootCandidates(int32_t pc, int32_t pattern_idx,
                                         const OemDatabase& db) {
    auto it = root_cache_.find(pc);
    if (it != root_cache_.end()) return it->second;
    const ObjectPattern& pattern = p_.patterns[pattern_idx];
    std::vector<Oid> roots;
    roots.reserve(db.roots().size());
    for (const Oid& root : db.roots()) {
      if (pattern.step == StepKind::kChild && pattern.label.is_atom()) {
        const OemObject* obj = db.Find(root);
        if (obj == nullptr || obj->label != pattern.label.atom_name()) {
          continue;
        }
      }
      roots.push_back(root);
    }
    return root_cache_.emplace(pc, std::move(roots)).first->second;
  }

  /// Materializes unit \p idx's rows on first use (an order-preserving
  /// multiset; the segment row set dedups later, like the tree walker's
  /// undeduplicated per-condition frontier).
  Status EnsureUnit(int32_t idx) {
    if (unit_done_[idx]) return Status::OK();
    unit_done_[idx] = true;
    const IrUnit& unit = p_.units[idx];
    std::vector<Row>& rows = unit_rows_[idx];
    TSLRW_RETURN_NOT_OK(RunMatch(unit.begin, unit.end, unit.frame_size,
                                 unit.slot_count,
                                 [&rows](const Row& r) { rows.push_back(r); }));
    CountIf(options_.metrics, "ir.units_materialized");
    ObserveIf(options_.metrics, "ir.unit_rows", rows.size());
    return Status::OK();
  }

  /// The backtracking match loop over ops [begin, end): iterator ops open
  /// choice points, match ops bind registers through the trail, emit ops
  /// hand the frame to \p sink and fail on purpose to enumerate the next
  /// row. Errors (unresolvable sources) abort the whole execution.
  Status RunMatch(int32_t begin, int32_t end, int32_t frame_size,
                  int32_t slot_count, const Sink& sink) {
    std::vector<BoundValue> frame(frame_size);
    std::vector<char> bound(frame_size, 0);
    std::vector<Slot> slots(slot_count);
    std::vector<int32_t> trail;
    std::vector<Choice> choices;

    auto undo_to = [&](size_t mark) {
      while (trail.size() > mark) {
        int32_t r = trail.back();
        trail.pop_back();
        bound[r] = 0;
        frame[r] = BoundValue();
      }
    };

    auto bind = [&](int32_t r, BoundValue value) -> bool {
      if (bound[r]) return frame[r] == value;
      frame[r] = std::move(value);
      bound[r] = 1;
      trail.push_back(r);
      return true;
    };

    // One-way term match against a ground term, exactly MatchTerm: atoms
    // compare, variables bind-or-compare, function terms recurse. No
    // scratch copy is needed — failure always backtracks to the innermost
    // choice point, whose trail mark precedes any partial bindings.
    std::function<bool(int32_t, const Term&)> match_term =
        [&](int32_t term_idx, const Term& ground) -> bool {
      const CompiledTerm& ct = p_.terms[term_idx];
      switch (ct.kind) {
        case TermKind::kAtom:
          return ct.term == ground;
        case TermKind::kVariable:
          return bind(ct.reg, BoundValue::FromTerm(ground));
        case TermKind::kFunction: {
          if (!ground.is_func() || ground.functor() != ct.term.functor() ||
              ground.args().size() != ct.args.size()) {
            return false;
          }
          for (size_t i = 0; i < ct.args.size(); ++i) {
            if (!match_term(ct.args[i], ground.args()[i])) return false;
          }
          return true;
        }
      }
      return false;
    };

    // Loads the choice's next viable candidate (skipping dangling oids and
    // mismatching join rows) into its slot/registers; false = exhausted.
    auto load_next = [&](Choice& ch) -> bool {
      const IrOp& op = p_.ops[ch.pc];
      if (op.code == IrOpCode::kJoinUnit) {
        const std::vector<Row>& rows = unit_rows_[op.a];
        const std::vector<int32_t>& map = p_.bindmaps[op.b];
        while (ch.next < rows.size()) {
          const Row& row = rows[ch.next++];
          bool ok = true;
          for (size_t j = 0; j < row.size(); ++j) {
            if (map[j] < 0) continue;
            if (!bind(map[j], row[j])) {
              ok = false;
              break;
            }
          }
          if (ok) return true;
          undo_to(ch.mark);
        }
        return false;
      }
      const std::vector<Oid>& oids = ch.oids();
      while (ch.next < oids.size()) {
        const Oid& oid = oids[ch.next++];
        const OemObject* obj = ch.db->Find(oid);
        if (obj == nullptr) continue;  // MatchObject: dangling oid, no match
        slots[op.c].obj = obj;
        slots[op.c].db = ch.db;
        return true;
      }
      return false;
    };

    int32_t pc = begin;
    bool failed = false;
    for (;;) {
      if (failed) {
        failed = false;
        bool resumed = false;
        while (!choices.empty()) {
          Choice& ch = choices.back();
          undo_to(ch.mark);
          if (load_next(ch)) {
            pc = ch.pc + 1;
            resumed = true;
            break;
          }
          choices.pop_back();
        }
        if (!resumed) return Status::OK();  // enumeration complete
        continue;
      }
      if (pc < begin || pc >= end) {
        return Status::Internal("match pipeline ran off its op range");
      }
      const IrOp& op = p_.ops[pc];
      switch (op.code) {
        case IrOpCode::kIterRoots: {
          TSLRW_ASSIGN_OR_RETURN(const OemDatabase* db, Source(op.a));
          Choice ch;
          ch.pc = pc;
          ch.mark = trail.size();
          ch.db = db;
          ch.cached = &RootCandidates(pc, op.b, *db);
          choices.push_back(std::move(ch));
          if (load_next(choices.back())) {
            ++pc;
          } else {
            choices.pop_back();
            failed = true;
          }
          break;
        }
        case IrOpCode::kIterMembers: {
          const Slot& parent = slots[op.a];
          Choice ch;
          ch.pc = pc;
          ch.mark = trail.size();
          ch.db = parent.db;
          ch.owned = StepCandidates(p_.patterns[op.b], *parent.obj,
                                    *parent.db);
          choices.push_back(std::move(ch));
          if (load_next(choices.back())) {
            ++pc;
          } else {
            choices.pop_back();
            failed = true;
          }
          break;
        }
        case IrOpCode::kJoinUnit: {
          TSLRW_RETURN_NOT_OK(EnsureUnit(op.a));
          Choice ch;
          ch.pc = pc;
          ch.mark = trail.size();
          choices.push_back(std::move(ch));
          if (load_next(choices.back())) {
            ++pc;
          } else {
            choices.pop_back();
            failed = true;
          }
          break;
        }
        case IrOpCode::kMatchOid:
          if (match_term(op.a, slots[op.b].obj->oid)) {
            ++pc;
          } else {
            failed = true;
          }
          break;
        case IrOpCode::kMatchLabel:
          if (match_term(op.a, Term::MakeAtom(slots[op.b].obj->label))) {
            ++pc;
          } else {
            failed = true;
          }
          break;
        case IrOpCode::kMatchValueTerm: {
          const Slot& slot = slots[op.b];
          if (slot.obj->is_atomic()) {
            if (match_term(op.a, Term::MakeAtom(slot.obj->value.atom()))) {
              ++pc;
            } else {
              failed = true;
            }
            break;
          }
          // Set value: only a variable binds to a subgraph (\S2); constants
          // and function terms denote atomic data and never match.
          const CompiledTerm& ct = p_.terms[op.a];
          if (ct.kind == TermKind::kVariable &&
              bind(ct.reg,
                   BoundValue::FromSetValue(slot.db, slot.obj->oid))) {
            ++pc;
          } else {
            failed = true;
          }
          break;
        }
        case IrOpCode::kRequireSet:
          if (slots[op.a].obj->is_atomic()) {
            failed = true;
          } else {
            ++pc;
          }
          break;
        case IrOpCode::kEmitRow:
        case IrOpCode::kEmitUnitRow:
          sink(frame);
          failed = true;  // backtrack into the next satisfying row
          break;
        default:
          return Status::Internal(
              StrCat("op ", IrOpName(op.code), " in a match region"));
      }
    }
  }

  /// Applies the row to a head term; mirrors eval's GroundTerm, including
  /// its error text (a head-only variable compiles to reg -1).
  Result<Term> GroundIrTerm(int32_t term_idx, const Row& row) {
    const CompiledTerm& ct = p_.terms[term_idx];
    switch (ct.kind) {
      case TermKind::kAtom:
        return ct.term;
      case TermKind::kVariable: {
        if (ct.reg < 0) {
          return Status::IllFormedQuery(StrCat("unsafe head variable ",
                                               ct.term.ToString(),
                                               " has no binding"));
        }
        const BoundValue& value = row[ct.reg];
        if (!value.is_term()) {
          return Status::IllFormedQuery(
              StrCat("variable ", ct.term.ToString(),
                     " is bound to a subgraph but used where an atomic term "
                     "is required"));
        }
        return value.term();
      }
      case TermKind::kFunction: {
        std::vector<Term> args;
        args.reserve(ct.args.size());
        for (int32_t a : ct.args) {
          TSLRW_ASSIGN_OR_RETURN(Term ga, GroundIrTerm(a, row));
          args.push_back(std::move(ga));
        }
        return Term::MakeFunc(ct.term.functor(), std::move(args));
      }
    }
    return Status::Internal("unreachable term kind");
  }

  /// Instantiates one compiled head object under the row; mirrors eval's
  /// BuildObject shape and error order exactly.
  Result<Oid> BuildIrObject(int32_t head_idx, const Row& row,
                            OemDatabase* answer) {
    const CompiledHead& head = p_.heads[head_idx];
    TSLRW_ASSIGN_OR_RETURN(Term oid, GroundIrTerm(head.oid, row));
    TSLRW_ASSIGN_OR_RETURN(Term label_term, GroundIrTerm(head.label, row));
    if (!label_term.is_atom()) {
      return Status::IllFormedQuery(StrCat(
          "head label instantiates to non-atom ", label_term.ToString()));
    }
    const std::string& label = label_term.atom_name();

    if (head.is_set) {
      TSLRW_RETURN_NOT_OK(AsFusion(answer->PutSet(oid, label)));
      for (int32_t m : head.members) {
        TSLRW_ASSIGN_OR_RETURN(Oid child, BuildIrObject(m, row, answer));
        TSLRW_RETURN_NOT_OK(answer->AddEdge(oid, child));
      }
      return oid;
    }

    const CompiledTerm& vt = p_.terms[head.value];
    if (vt.kind == TermKind::kVariable) {
      if (vt.reg < 0) {
        return Status::IllFormedQuery(StrCat("unsafe head variable ",
                                             vt.term.ToString(),
                                             " has no binding"));
      }
      const BoundValue& value = row[vt.reg];
      if (value.is_set_value()) {
        const OemDatabase& src = *value.db();
        const OemObject* owner = src.Find(value.owner());
        if (owner == nullptr || owner->is_atomic()) {
          return Status::Internal(
              "subgraph binding owner is not a set object");
        }
        TSLRW_RETURN_NOT_OK(AsFusion(answer->PutSet(oid, label)));
        for (const Oid& c : owner->value.children()) {
          TSLRW_RETURN_NOT_OK(CopySubgraph(src, c, answer));
          TSLRW_RETURN_NOT_OK(answer->AddEdge(oid, c));
        }
        return oid;
      }
      TSLRW_RETURN_NOT_OK(AsFusion(
          answer->PutAtomic(oid, label, value.term().atom_name())));
      return oid;
    }
    if (vt.kind == TermKind::kAtom) {
      TSLRW_RETURN_NOT_OK(
          AsFusion(answer->PutAtomic(oid, label, vt.term.atom_name())));
      return oid;
    }
    return Status::IllFormedQuery(
        StrCat("head value ", vt.term.ToString(),
               " is a function term; OEM values are atomic data or sets"));
  }

  /// Runs the emit region for one row: build the head, root it, branch out.
  Status RunEmit(const IrSegment& seg, const Row& row, OemDatabase* answer) {
    int32_t pc = seg.emit_begin;
    Oid scratch;
    while (pc < seg.emit_end) {
      const IrOp& op = p_.ops[pc];
      switch (op.code) {
        case IrOpCode::kEmitHead: {
          TSLRW_ASSIGN_OR_RETURN(scratch, BuildIrObject(op.a, row, answer));
          ++pc;
          break;
        }
        case IrOpCode::kFuseRoot:
          TSLRW_RETURN_NOT_OK(answer->AddRoot(scratch));
          ++pc;
          break;
        case IrOpCode::kBranch:
          pc = op.a;
          break;
        default:
          return Status::Internal(
              StrCat("op ", IrOpName(op.code), " in an emit region"));
      }
    }
    return Status::OK();
  }

  const IrProgram& p_;
  const SourceCatalog& catalog_;
  const IrExecOptions& options_;
  std::vector<const OemDatabase*> resolved_;
  std::map<int32_t, std::vector<Oid>> root_cache_;
  std::vector<std::vector<Row>> unit_rows_;
  std::vector<char> unit_done_;
};

}  // namespace

Result<OemDatabase> ExecuteIr(const IrProgram& program,
                              const SourceCatalog& catalog,
                              const IrExecOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  OemDatabase answer(options.answer_name.empty() ? program.default_name
                                                 : options.answer_name);
  Interp interp(program, catalog, options);
  for (const IrSegment& seg : program.segments) {
    TSLRW_RETURN_NOT_OK(interp.RunSegment(seg, &answer));
  }
  CountIf(options.metrics, "ir.execs");
  ObserveIf(options.metrics, "ir.exec_wall_us",
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
  return answer;
}

Result<std::vector<OemDatabase>> ExecuteIrPerSegment(
    const IrProgram& program, const SourceCatalog& catalog,
    const IrExecOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  Interp interp(program, catalog, options);
  std::vector<OemDatabase> answers;
  answers.reserve(program.segments.size());
  for (const IrSegment& seg : program.segments) {
    OemDatabase answer(options.answer_name.empty() ? seg.rule_name
                                                   : options.answer_name);
    TSLRW_RETURN_NOT_OK(interp.RunSegment(seg, &answer));
    answers.push_back(std::move(answer));
  }
  CountIf(options.metrics, "ir.execs");
  ObserveIf(options.metrics, "ir.exec_wall_us",
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
  return answers;
}

}  // namespace tslrw
