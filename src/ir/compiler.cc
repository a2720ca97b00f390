#include "ir/compiler.h"

#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "ir/lowering.h"
#include "ir/passes.h"
#include "tsl/canonical.h"

namespace tslrw {

namespace {

IrOp Op(IrOpCode code, int32_t a = -1, int32_t b = -1, int32_t c = -1) {
  IrOp op;
  op.code = code;
  op.a = a;
  op.b = b;
  op.c = c;
  return op;
}

/// Lowers terms, head patterns, and condition match pipelines against one
/// frame (a segment's body-variable registers or a unit's local registers).
class Lowerer {
 public:
  Lowerer(IrProgram* program, const std::map<Term, int32_t>& regs,
          int32_t* slot_count)
      : p_(program), regs_(regs), slot_count_(slot_count) {}

  int32_t LowerTerm(const Term& t) {
    CompiledTerm ct;
    ct.kind = t.kind();
    ct.term = t;
    if (t.is_var()) {
      auto it = regs_.find(t);
      ct.reg = it == regs_.end() ? -1 : it->second;
    } else if (t.is_func()) {
      ct.args.reserve(t.args().size());
      for (const Term& a : t.args()) ct.args.push_back(LowerTerm(a));
    }
    p_->terms.push_back(std::move(ct));
    return static_cast<int32_t>(p_->terms.size()) - 1;
  }

  int32_t LowerHead(const ObjectPattern& pattern) {
    CompiledHead h;
    h.oid = LowerTerm(pattern.oid);
    h.label = LowerTerm(pattern.label);
    if (pattern.value.is_set()) {
      h.is_set = true;
      h.members.reserve(pattern.value.set().size());
      for (const ObjectPattern& m : pattern.value.set()) {
        h.members.push_back(LowerHead(m));
      }
    } else {
      h.value = LowerTerm(pattern.value.term());
    }
    p_->heads.push_back(std::move(h));
    return static_cast<int32_t>(p_->heads.size()) - 1;
  }

  int32_t InternPattern(const ObjectPattern& pattern) {
    p_->patterns.push_back(pattern);
    return static_cast<int32_t>(p_->patterns.size()) - 1;
  }

  /// Match ops for one object already loaded in \p slot; mirrors the tree
  /// walker's MatchObject order: oid, label (unless a `**` step), value.
  void LowerMatch(const ObjectPattern& pattern, int32_t slot) {
    p_->ops.push_back(Op(IrOpCode::kMatchOid, LowerTerm(pattern.oid), slot));
    if (pattern.step != StepKind::kDescendant) {
      p_->ops.push_back(
          Op(IrOpCode::kMatchLabel, LowerTerm(pattern.label), slot));
    }
    if (pattern.value.is_term()) {
      p_->ops.push_back(Op(IrOpCode::kMatchValueTerm,
                           LowerTerm(pattern.value.term()), slot));
      return;
    }
    p_->ops.push_back(Op(IrOpCode::kRequireSet, slot));
    for (const ObjectPattern& member : pattern.value.set()) {
      int32_t member_slot = (*slot_count_)++;
      p_->ops.push_back(Op(IrOpCode::kIterMembers, slot,
                           InternPattern(member), member_slot));
      LowerMatch(member, member_slot);
    }
  }

  /// One top-level condition: iterate the source's roots, then match.
  void LowerConditionMatch(const Condition& cond) {
    int32_t slot = (*slot_count_)++;
    p_->ops.push_back(Op(IrOpCode::kIterRoots,
                         InternIrSource(p_, cond.source),
                         InternPattern(cond.pattern), slot));
    LowerMatch(cond.pattern, slot);
  }

 private:
  IrProgram* p_;
  const std::map<Term, int32_t>& regs_;
  int32_t* slot_count_;
};

void CanonWalkTerm(const Term& t, std::map<Term, std::string>* names) {
  if (t.is_var()) {
    if (names->find(t) == names->end()) {
      const char* prefix = t.var_kind() == VarKind::kObjectId ? "O" : "C";
      names->emplace(t, StrCat(prefix, names->size()));
    }
    return;
  }
  if (t.is_func()) {
    for (const Term& a : t.args()) CanonWalkTerm(a, names);
  }
}

void CanonWalkPattern(const ObjectPattern& pattern,
                      std::map<Term, std::string>* names) {
  CanonWalkTerm(pattern.oid, names);
  CanonWalkTerm(pattern.label, names);
  if (pattern.value.is_term()) {
    CanonWalkTerm(pattern.value.term(), names);
    return;
  }
  for (const ObjectPattern& m : pattern.value.set()) {
    CanonWalkPattern(m, names);
  }
}

Term CanonRenameTerm(const Term& t,
                     const std::map<Term, std::string>& names) {
  if (t.is_var()) return Term::MakeVar(names.at(t), t.var_kind());
  if (t.is_func()) {
    std::vector<Term> args;
    args.reserve(t.args().size());
    for (const Term& a : t.args()) args.push_back(CanonRenameTerm(a, names));
    return Term::MakeFunc(t.functor(), std::move(args));
  }
  return t;
}

ObjectPattern CanonRenamePattern(const ObjectPattern& pattern,
                                 const std::map<Term, std::string>& names) {
  ObjectPattern out;
  out.oid = CanonRenameTerm(pattern.oid, names);
  out.label = CanonRenameTerm(pattern.label, names);
  out.step = pattern.step;
  if (pattern.value.is_term()) {
    out.value = PatternValue::FromTerm(
        CanonRenameTerm(pattern.value.term(), names));
    return out;
  }
  SetPattern members;
  members.reserve(pattern.value.set().size());
  for (const ObjectPattern& m : pattern.value.set()) {
    members.push_back(CanonRenamePattern(m, names));
  }
  out.value = PatternValue::FromSet(std::move(members));
  return out;
}

}  // namespace

std::map<Term, std::string> CanonicalConditionNames(
    const Condition& condition) {
  std::map<Term, std::string> names;
  CanonWalkPattern(condition.pattern, &names);
  return names;
}

uint64_t ConditionFingerprint(const Condition& condition) {
  std::map<Term, std::string> names = CanonicalConditionNames(condition);
  ObjectPattern renamed = CanonRenamePattern(condition.pattern, names);
  return StableFingerprint(StrCat(renamed.ToString(), "@", condition.source));
}

int32_t InternIrSource(IrProgram* program, const std::string& source) {
  for (size_t i = 0; i < program->sources.size(); ++i) {
    if (program->sources[i] == source) return static_cast<int32_t>(i);
  }
  program->sources.push_back(source);
  return static_cast<int32_t>(program->sources.size()) - 1;
}

int32_t LowerConditionUnit(IrProgram* program, const Condition& condition) {
  IrUnit unit;
  std::set<Term> vars;
  condition.pattern.CollectVariables(&vars);
  unit.vars.assign(vars.begin(), vars.end());
  unit.frame_size = static_cast<int32_t>(unit.vars.size());
  std::map<Term, std::string> canon = CanonicalConditionNames(condition);
  unit.col_canon.reserve(unit.vars.size());
  for (const Term& v : unit.vars) unit.col_canon.push_back(canon.at(v));
  unit.source = InternIrSource(program, condition.source);
  unit.fingerprint = ConditionFingerprint(condition);

  std::map<Term, int32_t> regs;
  for (size_t i = 0; i < unit.vars.size(); ++i) {
    regs.emplace(unit.vars[i], static_cast<int32_t>(i));
  }
  unit.begin = static_cast<int32_t>(program->ops.size());
  Lowerer lowerer(program, regs, &unit.slot_count);
  lowerer.LowerConditionMatch(condition);
  int32_t unit_idx = static_cast<int32_t>(program->units.size());
  program->ops.push_back(Op(IrOpCode::kEmitUnitRow, unit_idx));
  unit.end = static_cast<int32_t>(program->ops.size());
  program->units.push_back(std::move(unit));
  return unit_idx;
}

namespace {

std::shared_ptr<const IrProgram> CompileRuleList(
    const std::vector<TslQuery>& rules, const IrPassOptions& passes,
    MetricRegistry* metrics) {
  const auto start = std::chrono::steady_clock::now();
  auto program = std::make_shared<IrProgram>();
  if (!rules.empty()) program->default_name = rules.front().name;
  for (const TslQuery& q : rules) {
    IrSegment seg;
    seg.rule_name = q.name;
    std::set<Term> body_vars = q.BodyVariables();
    seg.vars.assign(body_vars.begin(), body_vars.end());
    seg.frame_size = static_cast<int32_t>(seg.vars.size());
    std::map<Term, int32_t> regs;
    for (size_t i = 0; i < seg.vars.size(); ++i) {
      regs.emplace(seg.vars[i], static_cast<int32_t>(i));
    }
    Lowerer lowerer(program.get(), regs, &seg.slot_count);
    const int32_t seg_idx = static_cast<int32_t>(program->segments.size());
    seg.match_begin = static_cast<int32_t>(program->ops.size());
    for (const Condition& cond : q.body) {
      IrCondBlock block;
      block.condition = static_cast<int32_t>(program->conditions.size());
      program->conditions.push_back(cond);
      block.begin = static_cast<int32_t>(program->ops.size());
      lowerer.LowerConditionMatch(cond);
      block.end = static_cast<int32_t>(program->ops.size());
      seg.blocks.push_back(block);
    }
    program->ops.push_back(Op(IrOpCode::kEmitRow, seg_idx));
    seg.match_end = static_cast<int32_t>(program->ops.size());
    seg.emit_begin = seg.match_end;
    program->ops.push_back(Op(IrOpCode::kEmitHead, lowerer.LowerHead(q.head)));
    program->ops.push_back(Op(IrOpCode::kFuseRoot));
    program->ops.push_back(
        Op(IrOpCode::kBranch, static_cast<int32_t>(program->ops.size()) + 1));
    seg.emit_end = static_cast<int32_t>(program->ops.size());
    program->segments.push_back(std::move(seg));
  }
  RunIrPasses(passes, program.get(), metrics);
  if (metrics != nullptr) {
    CountIf(metrics, "ir.compiles");
    ObserveIf(metrics, "ir.ops", program->ops.size());
    ObserveIf(metrics, "ir.compile_wall_us",
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count()));
  }
  return program;
}

}  // namespace

Result<std::shared_ptr<const IrProgram>> PlanCompiler::Compile(
    const TslQuery& query) const {
  return CompileRuleList({query}, passes_, metrics_);
}

Result<std::shared_ptr<const IrProgram>> PlanCompiler::Compile(
    const TslRuleSet& rules) const {
  return CompileRuleList(rules.rules, passes_, metrics_);
}

Result<std::shared_ptr<const IrProgram>> PlanCompiler::CompilePlans(
    const std::vector<TslQuery>& plans) const {
  return CompileRuleList(plans, passes_, metrics_);
}

}  // namespace tslrw
