#include "ir/compiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

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

int32_t InternSource(IrProgram* program, const std::string& source) {
  for (size_t i = 0; i < program->sources.size(); ++i) {
    if (program->sources[i] == source) return static_cast<int32_t>(i);
  }
  program->sources.push_back(source);
  return static_cast<int32_t>(program->sources.size()) - 1;
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
                         InternSource(p_, cond.source),
                         InternPattern(cond.pattern), slot));
    LowerMatch(cond.pattern, slot);
  }

 private:
  IrProgram* p_;
  const std::map<Term, int32_t>& regs_;
  int32_t* slot_count_;
};

/// A new unit for \p condition: a local frame over its sorted variables
/// and the first-occurrence index of each column in the condition's α-key.
/// The body is lowered later, once every segment is laid out, so unit
/// bodies follow the segments in the op vector.
IrUnit MakeUnit(IrProgram* program, const Condition& condition,
                const AlphaKey& canon) {
  IrUnit unit;
  unit.vars = canon.vars;
  std::sort(unit.vars.begin(), unit.vars.end());
  unit.frame_size = static_cast<int32_t>(unit.vars.size());
  unit.col_canon.reserve(unit.vars.size());
  for (const Term& v : unit.vars) {
    unit.col_canon.push_back(static_cast<int32_t>(
        std::find(canon.vars.begin(), canon.vars.end(), v) -
        canon.vars.begin()));
  }
  unit.source = InternSource(program, condition.source);
  unit.fingerprint = StableFingerprint(canon.key);
  return unit;
}

/// Appends the match pipeline of unit \p unit_idx — \p condition matched
/// from scratch, exactly like a first body condition — to the op vector.
void LowerUnitBody(IrProgram* program, int32_t unit_idx,
                   const Condition& condition) {
  IrUnit& unit = program->units[unit_idx];
  std::map<Term, int32_t> regs;
  for (size_t i = 0; i < unit.vars.size(); ++i) {
    regs.emplace(unit.vars[i], static_cast<int32_t>(i));
  }
  unit.begin = static_cast<int32_t>(program->ops.size());
  Lowerer lowerer(program, regs, &unit.slot_count);
  lowerer.LowerConditionMatch(condition);
  program->ops.push_back(Op(IrOpCode::kEmitUnitRow, unit_idx));
  unit.end = static_cast<int32_t>(program->ops.size());
}

/// Lowers \p rules to their final shape in one pass. Each body condition
/// becomes one kJoinUnit op over the unit interned by its α-key: the
/// first condition with a key creates the unit, later ones reuse it. A
/// condition matched from scratch and joined on its shared variables by
/// BoundValue equality accepts exactly the extensions an inline match
/// would (matching is confluent), and conditions with equal keys yield the
/// same rows, so every join reads its unit through a bindmap built from the
/// canonical indices: unit column j binds this condition's variable with
/// canonical index col_canon[j].
std::shared_ptr<const IrProgram> CompileRuleList(
    const std::vector<TslQuery>& rules, MetricRegistry* metrics) {
  const auto start = std::chrono::steady_clock::now();
  auto program = std::make_shared<IrProgram>();
  if (!rules.empty()) program->default_name = rules.front().name;
  std::unordered_map<std::string, int32_t> unit_by_key;
  std::vector<const Condition*> unit_conditions;
  uint64_t shared = 0;
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
    const int32_t seg_idx = static_cast<int32_t>(program->segments.size());
    seg.match_begin = static_cast<int32_t>(program->ops.size());
    for (const Condition& cond : q.body) {
      AlphaKey canon = AlphaKeyOf(cond);
      auto [it, inserted] = unit_by_key.try_emplace(
          canon.key, static_cast<int32_t>(program->units.size()));
      if (inserted) {
        program->units.push_back(MakeUnit(program.get(), cond, canon));
        unit_conditions.push_back(&cond);
      } else {
        ++shared;
      }
      const IrUnit& unit = program->units[it->second];
      std::vector<int32_t> bindmap;
      bindmap.reserve(unit.col_canon.size());
      for (int32_t c : unit.col_canon) {
        bindmap.push_back(regs.at(canon.vars[c]));
      }
      program->bindmaps.push_back(std::move(bindmap));
      program->ops.push_back(
          Op(IrOpCode::kJoinUnit, it->second,
             static_cast<int32_t>(program->bindmaps.size()) - 1));
    }
    program->ops.push_back(Op(IrOpCode::kEmitRow, seg_idx));
    seg.match_end = static_cast<int32_t>(program->ops.size());
    seg.emit_begin = seg.match_end;
    Lowerer lowerer(program.get(), regs, &seg.slot_count);
    program->ops.push_back(Op(IrOpCode::kEmitHead, lowerer.LowerHead(q.head)));
    program->ops.push_back(Op(IrOpCode::kFuseRoot));
    program->ops.push_back(
        Op(IrOpCode::kBranch, static_cast<int32_t>(program->ops.size()) + 1));
    seg.emit_end = static_cast<int32_t>(program->ops.size());
    program->segments.push_back(std::move(seg));
  }
  for (size_t u = 0; u < unit_conditions.size(); ++u) {
    LowerUnitBody(program.get(), static_cast<int32_t>(u), *unit_conditions[u]);
  }
  if (metrics != nullptr) {
    CountIf(metrics, "ir.compiles");
    CountIf(metrics, "ir.units_shared", shared);
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
  return CompileRuleList({query}, metrics_);
}

Result<std::shared_ptr<const IrProgram>> PlanCompiler::Compile(
    const TslRuleSet& rules) const {
  return CompileRuleList(rules.rules, metrics_);
}

Result<std::shared_ptr<const IrProgram>> PlanCompiler::CompilePlans(
    const std::vector<TslQuery>& plans) const {
  return CompileRuleList(plans, metrics_);
}

}  // namespace tslrw
