#include "ir/ir.h"

#include "common/string_util.h"

namespace tslrw {

const char* IrOpName(IrOpCode code) {
  switch (code) {
    case IrOpCode::kIterRoots: return "iter_roots";
    case IrOpCode::kIterMembers: return "iter_members";
    case IrOpCode::kJoinUnit: return "join_unit";
    case IrOpCode::kMatchOid: return "match_oid";
    case IrOpCode::kMatchLabel: return "match_label";
    case IrOpCode::kMatchValueTerm: return "match_value";
    case IrOpCode::kRequireSet: return "require_set";
    case IrOpCode::kEmitRow: return "emit_row";
    case IrOpCode::kEmitUnitRow: return "emit_unit_row";
    case IrOpCode::kEmitHead: return "emit_head";
    case IrOpCode::kFuseRoot: return "fuse_root";
    case IrOpCode::kBranch: return "branch";
  }
  return "?";
}

namespace {

std::string TermText(const IrProgram& p, int32_t idx) {
  if (idx < 0) return "?";
  const CompiledTerm& ct = p.terms[idx];
  if (ct.kind == TermKind::kVariable) {
    return StrCat(ct.term.ToString(), ":r", ct.reg);
  }
  return ct.term.ToString();
}

std::string SourceText(const IrProgram& p, int32_t idx) {
  const std::string& s = p.sources[idx];
  return s.empty() ? "@<default>" : StrCat("@", s);
}

void RenderOps(const IrProgram& p, int32_t begin, int32_t end,
               std::string* out) {
  for (int32_t pc = begin; pc < end; ++pc) {
    const IrOp& op = p.ops[pc];
    StrAppend(out, "    ", pc, ": ", IrOpName(op.code));
    switch (op.code) {
      case IrOpCode::kIterRoots:
        StrAppend(out, " ", SourceText(p, op.a), " -> s", op.c);
        break;
      case IrOpCode::kIterMembers:
        StrAppend(out, " s", op.a, " step=",
                  p.patterns[op.b].step == StepKind::kChild      ? "child"
                  : p.patterns[op.b].step == StepKind::kClosure  ? "closure"
                                                                 : "descendant",
                  " -> s", op.c);
        break;
      case IrOpCode::kJoinUnit: {
        StrAppend(out, " u", op.a, " [");
        const std::vector<int32_t>& map = p.bindmaps[op.b];
        for (size_t i = 0; i < map.size(); ++i) {
          StrAppend(out, i == 0 ? "" : ",", "r", map[i]);
        }
        StrAppend(out, "]");
        break;
      }
      case IrOpCode::kMatchOid:
      case IrOpCode::kMatchLabel:
      case IrOpCode::kMatchValueTerm:
        StrAppend(out, " ", TermText(p, op.a), " s", op.b);
        break;
      case IrOpCode::kRequireSet:
        StrAppend(out, " s", op.a);
        break;
      case IrOpCode::kEmitRow:
      case IrOpCode::kEmitUnitRow:
        break;
      case IrOpCode::kEmitHead:
        StrAppend(out, " h", op.a);
        break;
      case IrOpCode::kFuseRoot:
        break;
      case IrOpCode::kBranch:
        StrAppend(out, " -> ", op.a);
        break;
    }
    StrAppend(out, "\n");
  }
}

void RenderFrame(const std::vector<Term>& vars, std::string* out) {
  StrAppend(out, "regs:");
  for (size_t i = 0; i < vars.size(); ++i) {
    StrAppend(out, " r", i, "=", vars[i].ToString());
  }
  if (vars.empty()) StrAppend(out, " (none)");
  StrAppend(out, "\n");
}

}  // namespace

std::string Disassemble(const IrProgram& p) {
  std::string out;
  StrAppend(&out, "program: ", p.ops.size(), " op(s), ", p.segments.size(),
            " segment(s), ", p.units.size(), " unit(s)\n");
  for (size_t s = 0; s < p.segments.size(); ++s) {
    const IrSegment& seg = p.segments[s];
    StrAppend(&out, "segment ", s,
              seg.rule_name.empty() ? "" : StrCat(" (", seg.rule_name, ")"),
              "  ");
    RenderFrame(seg.vars, &out);
    StrAppend(&out, "  match:\n");
    RenderOps(p, seg.match_begin, seg.match_end, &out);
    StrAppend(&out, "  emit:\n");
    RenderOps(p, seg.emit_begin, seg.emit_end, &out);
  }
  for (size_t u = 0; u < p.units.size(); ++u) {
    const IrUnit& unit = p.units[u];
    StrAppend(&out, "unit ", u, " ", SourceText(p, unit.source),
              " fp=", unit.fingerprint, "  ");
    RenderFrame(unit.vars, &out);
    RenderOps(p, unit.begin, unit.end, &out);
  }
  return out;
}

}  // namespace tslrw
