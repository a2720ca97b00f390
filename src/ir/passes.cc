#include "ir/passes.h"

#include <map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "ir/lowering.h"

namespace tslrw {

namespace {

/// Register index of \p var in the segment's sorted frame; -1 if absent
/// (cannot happen for condition variables, which are body variables).
int32_t SegmentReg(const IrSegment& seg, const Term& var) {
  for (size_t i = 0; i < seg.vars.size(); ++i) {
    if (seg.vars[i] == var) return static_cast<int32_t>(i);
  }
  return -1;
}

/// Copies the op range [begin, end) into \p out and returns the new range.
std::pair<int32_t, int32_t> CopyRange(const std::vector<IrOp>& ops,
                                      int32_t begin, int32_t end,
                                      std::vector<IrOp>* out) {
  int32_t nbegin = static_cast<int32_t>(out->size());
  out->insert(out->end(), ops.begin() + begin, ops.begin() + end);
  return {nbegin, static_cast<int32_t>(out->size())};
}

/// Fixes the emit region's terminating kBranch to the region's new end.
void RetargetEmitBranch(IrSegment* seg, std::vector<IrOp>* ops) {
  for (int32_t pc = seg->emit_begin; pc < seg->emit_end; ++pc) {
    if ((*ops)[pc].code == IrOpCode::kBranch) (*ops)[pc].a = seg->emit_end;
  }
}

/// Pass 1: hoist every inline condition block into a materialized match
/// unit, replacing the block with one kJoinUnit op. The unit matches the
/// condition from scratch; the join compares already-bound registers with
/// BoundValue equality — exactly the checks the inline pipeline would have
/// made at each variable occurrence — so the surviving (outer, row)
/// combinations are the inline extensions, one for one.
void HoistPass(IrProgram* p, MetricRegistry* metrics) {
  IrPassStat stat;
  stat.pass = "hoist-invariant-submatches";
  stat.ops_before = p->ops.size();
  stat.units_before = p->units.size();

  // Lower one unit per condition block first (unit ops append to p->ops;
  // they are copied into the rebuilt vector below and the originals
  // dropped).
  std::vector<std::vector<int32_t>> seg_units(p->segments.size());
  std::vector<std::vector<int32_t>> seg_maps(p->segments.size());
  for (size_t s = 0; s < p->segments.size(); ++s) {
    IrSegment& seg = p->segments[s];
    for (const IrCondBlock& block : seg.blocks) {
      int32_t unit_idx =
          LowerConditionUnit(p, p->conditions[block.condition]);
      const IrUnit& unit = p->units[unit_idx];
      std::vector<int32_t> bindmap;
      bindmap.reserve(unit.vars.size());
      for (const Term& v : unit.vars) bindmap.push_back(SegmentReg(seg, v));
      p->bindmaps.push_back(std::move(bindmap));
      seg_units[s].push_back(unit_idx);
      seg_maps[s].push_back(static_cast<int32_t>(p->bindmaps.size()) - 1);
    }
  }

  std::vector<IrOp> nops;
  nops.reserve(p->ops.size());
  for (size_t s = 0; s < p->segments.size(); ++s) {
    IrSegment& seg = p->segments[s];
    seg.match_begin = static_cast<int32_t>(nops.size());
    for (size_t b = 0; b < seg.blocks.size(); ++b) {
      IrCondBlock& block = seg.blocks[b];
      block.begin = static_cast<int32_t>(nops.size());
      IrOp join;
      join.code = IrOpCode::kJoinUnit;
      join.a = seg_units[s][b];
      join.b = seg_maps[s][b];
      nops.push_back(join);
      block.end = static_cast<int32_t>(nops.size());
    }
    IrOp emit_row;
    emit_row.code = IrOpCode::kEmitRow;
    emit_row.a = static_cast<int32_t>(s);
    nops.push_back(emit_row);
    seg.match_end = static_cast<int32_t>(nops.size());
    std::pair<int32_t, int32_t> emit =
        CopyRange(p->ops, seg.emit_begin, seg.emit_end, &nops);
    seg.emit_begin = emit.first;
    seg.emit_end = emit.second;
    RetargetEmitBranch(&seg, &nops);
  }
  for (IrUnit& unit : p->units) {
    std::pair<int32_t, int32_t> range =
        CopyRange(p->ops, unit.begin, unit.end, &nops);
    unit.begin = range.first;
    unit.end = range.second;
  }
  p->ops = std::move(nops);

  stat.ops_after = p->ops.size();
  stat.units_after = p->units.size();
  stat.note = StrCat("hoisted ", p->units.size(), " condition(s)");
  p->pass_stats.push_back(std::move(stat));
  CountIf(metrics, "ir.units_hoisted", p->units.size());
}

/// Pass 2: merge units with equal α-invariant fingerprints. The join's
/// bindmap is remapped through the canonical column names (the renaming is
/// first-occurrence over an identical pattern walk, so equal fingerprints
/// give a column bijection), and the dead unit bodies are swept from the
/// op vector.
void CsePass(IrProgram* p, MetricRegistry* metrics) {
  IrPassStat stat;
  stat.pass = "common-subplan-elim";
  stat.ops_before = p->ops.size();
  stat.units_before = p->units.size();

  std::map<uint64_t, int32_t> first_by_fp;
  std::vector<int32_t> redirect(p->units.size());
  size_t live_units = 0;
  for (size_t u = 0; u < p->units.size(); ++u) {
    auto [it, inserted] =
        first_by_fp.emplace(p->units[u].fingerprint, static_cast<int32_t>(u));
    redirect[u] = it->second;
    if (inserted) ++live_units;
  }
  for (IrOp& op : p->ops) {
    if (op.code != IrOpCode::kJoinUnit || redirect[op.a] == op.a) continue;
    const IrUnit& from = p->units[op.a];
    const IrUnit& to = p->units[redirect[op.a]];
    const std::vector<int32_t>& old_map = p->bindmaps[op.b];
    std::vector<int32_t> remapped(to.vars.size(), -1);
    for (size_t j = 0; j < to.vars.size(); ++j) {
      for (size_t k = 0; k < from.vars.size(); ++k) {
        if (from.col_canon[k] == to.col_canon[j]) {
          remapped[j] = old_map[k];
          break;
        }
      }
    }
    p->bindmaps.push_back(std::move(remapped));
    op.a = redirect[op.a];
    op.b = static_cast<int32_t>(p->bindmaps.size()) - 1;
  }

  // Sweep dead unit bodies: rebuild the op vector keeping segment regions
  // and live units only.
  std::vector<IrOp> nops;
  nops.reserve(p->ops.size());
  for (size_t s = 0; s < p->segments.size(); ++s) {
    IrSegment& seg = p->segments[s];
    std::pair<int32_t, int32_t> match =
        CopyRange(p->ops, seg.match_begin, seg.match_end, &nops);
    int32_t shift = match.first - seg.match_begin;
    seg.match_begin = match.first;
    seg.match_end = match.second;
    for (IrCondBlock& block : seg.blocks) {
      block.begin += shift;
      block.end += shift;
    }
    std::pair<int32_t, int32_t> emit =
        CopyRange(p->ops, seg.emit_begin, seg.emit_end, &nops);
    seg.emit_begin = emit.first;
    seg.emit_end = emit.second;
    RetargetEmitBranch(&seg, &nops);
  }
  size_t merged = 0;
  for (size_t u = 0; u < p->units.size(); ++u) {
    IrUnit& unit = p->units[u];
    if (redirect[u] != static_cast<int32_t>(u)) {
      unit.begin = unit.end = 0;  // merged away; joins point at the keeper
      ++merged;
      continue;
    }
    std::pair<int32_t, int32_t> range =
        CopyRange(p->ops, unit.begin, unit.end, &nops);
    unit.begin = range.first;
    unit.end = range.second;
  }
  p->ops = std::move(nops);

  stat.ops_after = p->ops.size();
  stat.units_after = live_units;
  stat.note = StrCat("merged ", merged, " unit(s)");
  p->pass_stats.push_back(std::move(stat));
  CountIf(metrics, "ir.units_shared", merged);
}

void RecordOff(IrProgram* p, const char* name, const char* why) {
  IrPassStat stat;
  stat.pass = name;
  stat.ops_before = stat.ops_after = p->ops.size();
  stat.units_before = stat.units_after = p->units.size();
  stat.note = why;
  p->pass_stats.push_back(std::move(stat));
}

}  // namespace

void RunIrPasses(const IrPassOptions& passes, IrProgram* program,
                 MetricRegistry* metrics) {
  if (passes.hoist_invariant_submatches) {
    HoistPass(program, metrics);
  } else {
    RecordOff(program, "hoist-invariant-submatches", "off");
  }
  if (!passes.hoist_invariant_submatches) {
    RecordOff(program, "common-subplan-elim",
              passes.common_subplan_elimination ? "off (requires hoist)"
                                                : "off");
  } else if (passes.common_subplan_elimination) {
    CsePass(program, metrics);
  } else {
    RecordOff(program, "common-subplan-elim", "off");
  }
}

}  // namespace tslrw
