#include "tsl/parser.h"

#include <cctype>
#include <map>

#include "common/lexer.h"
#include "common/string_util.h"

namespace tslrw {

namespace {

/// How deep object patterns and function terms may nest, counted together.
/// The parser and every pass over the AST recurse once per level, so an
/// unbounded depth would let a short input exhaust the stack; real rules
/// nest a handful of levels.
constexpr int kMaxNestingDepth = 512;

/// Fails with a positioned ParseError once \p depth exceeds the bound.
Status CheckDepth(const TokenCursor& cur, int depth) {
  if (depth <= kMaxNestingDepth) return Status::OK();
  return cur.ErrorHere(StrCat("patterns and terms nest deeper than ",
                              kMaxNestingDepth, " levels"));
}

bool LooksLikeVariable(const std::string& ident) {
  return !ident.empty() && std::isupper(static_cast<unsigned char>(ident[0]));
}

/// Parses a term; all variables provisionally get VarKind::kLabelValue and
/// are re-sorted by ResolveVariableKinds once the whole rule is known.
/// \p depth is the nesting level of this term (1 at the top).
Result<Term> ParseTerm(TokenCursor* cur, int depth) {
  TSLRW_RETURN_NOT_OK(CheckDepth(*cur, depth));
  const Token& tok = cur->Peek();
  if (tok.kind == TokenKind::kString) {
    return Term::MakeAtom(cur->Next().text);
  }
  if (tok.kind != TokenKind::kIdent) {
    return cur->ErrorHere("expected a term");
  }
  std::string head = cur->Next().text;
  if (cur->TryConsume(TokenKind::kLParen)) {
    std::vector<Term> args;
    if (!cur->TryConsume(TokenKind::kRParen)) {
      while (true) {
        TSLRW_ASSIGN_OR_RETURN(Term arg, ParseTerm(cur, depth + 1));
        args.push_back(std::move(arg));
        if (cur->TryConsume(TokenKind::kComma)) continue;
        TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kRParen).status());
        break;
      }
    }
    return Term::MakeFunc(std::move(head), std::move(args));
  }
  if (LooksLikeVariable(head)) {
    return Term::MakeVar(std::move(head), VarKind::kLabelValue);
  }
  return Term::MakeAtom(std::move(head));
}

Result<ObjectPattern> ParsePattern(TokenCursor* cur, int* anon_labels,
                                   int depth) {
  TSLRW_RETURN_NOT_OK(CheckDepth(*cur, depth));
  TSLRW_ASSIGN_OR_RETURN(Token langle, cur->Expect(TokenKind::kLAngle));
  ObjectPattern pattern;
  pattern.span = SourceSpan{langle.line, langle.column};
  TSLRW_ASSIGN_OR_RETURN(pattern.oid, ParseTerm(cur, depth + 1));
  // Label position: `*` (any label), `**` (descendant), `label+` (closure),
  // or a plain term. The starred forms are the \S7 regular-path-expression
  // extension.
  if (cur->TryConsume(TokenKind::kStar)) {
    if (cur->TryConsume(TokenKind::kStar)) {
      pattern.step = StepKind::kDescendant;
      pattern.label = Term::MakeAtom("**");  // unused sentinel
    } else {
      pattern.label = Term::MakeVar(StrCat("AnonLabel", ++*anon_labels),
                                    VarKind::kLabelValue);
    }
  } else {
    Token label_tok = cur->Peek();
    TSLRW_ASSIGN_OR_RETURN(pattern.label, ParseTerm(cur, depth + 1));
    if (pattern.label.is_func()) {
      return ErrorAtToken(label_tok, "a label must be an atom or a variable");
    }
    if (cur->TryConsume(TokenKind::kPlus)) {
      if (!pattern.label.is_atom()) {
        return ErrorAtToken(label_tok, "a closure step needs a constant label");
      }
      pattern.step = StepKind::kClosure;
    }
  }
  if (cur->TryConsume(TokenKind::kLBrace)) {
    SetPattern members;
    while (!cur->TryConsume(TokenKind::kRBrace)) {
      TSLRW_ASSIGN_OR_RETURN(ObjectPattern member,
                             ParsePattern(cur, anon_labels, depth + 1));
      members.push_back(std::move(member));
    }
    pattern.value = PatternValue::FromSet(std::move(members));
  } else {
    TSLRW_ASSIGN_OR_RETURN(Term value, ParseTerm(cur, depth + 1));
    pattern.value = PatternValue::FromTerm(std::move(value));
  }
  TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kRAngle).status());
  return pattern;
}

Result<TslQuery> ParseRule(TokenCursor* cur, std::string name) {
  SourceSpan rule_span{cur->Peek().line, cur->Peek().column};
  // Optional paper-style "(Q3)" rule name prefix.
  if (cur->Peek().kind == TokenKind::kLParen) {
    cur->Next();
    TSLRW_ASSIGN_OR_RETURN(Token name_tok, cur->Expect(TokenKind::kIdent));
    TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kRParen).status());
    if (name.empty()) name = name_tok.text;
  }
  TslQuery query;
  query.name = std::move(name);
  query.span = rule_span;
  int anon_labels = 0;
  TSLRW_ASSIGN_OR_RETURN(query.head, ParsePattern(cur, &anon_labels, 1));
  TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kTurnstile).status());
  while (true) {
    Condition cond;
    TSLRW_ASSIGN_OR_RETURN(cond.pattern, ParsePattern(cur, &anon_labels, 1));
    if (cur->TryConsume(TokenKind::kAt)) {
      TSLRW_ASSIGN_OR_RETURN(Token src, cur->Expect(TokenKind::kIdent));
      cond.source = src.text;
    }
    query.body.push_back(std::move(cond));
    if (!cur->TryConsumeIdent("AND")) break;
  }
  return ResolveVariableKinds(query);
}

/// Where a variable name has been seen; used to resolve V_O vs V_C.
enum class Position { kNeutral, kObjectId, kLabelValue };

class KindResolver {
 public:
  /// Records uses. \p in_args is true while descending into function-term
  /// arguments, where either sort may legally appear. \p span is the
  /// position of the enclosing pattern, kept for error messages.
  void NoteTerm(const Term& t, Position pos, bool in_args, SourceSpan span) {
    switch (t.kind()) {
      case TermKind::kAtom:
        return;
      case TermKind::kVariable:
        Note(t.var_name(), in_args ? Position::kNeutral : pos, span);
        return;
      case TermKind::kFunction:
        for (const Term& a : t.args()) {
          NoteTerm(a, pos, /*in_args=*/true, span);
        }
        return;
    }
  }

  void NotePattern(const ObjectPattern& p) {
    NoteTerm(p.oid, Position::kObjectId, /*in_args=*/false, p.span);
    NoteTerm(p.label, Position::kLabelValue, /*in_args=*/false, p.span);
    if (p.value.is_term()) {
      NoteTerm(p.value.term(), Position::kLabelValue, /*in_args=*/false,
               p.span);
    } else {
      for (const ObjectPattern& m : p.value.set()) NotePattern(m);
    }
  }

  /// Fails iff some name occurs in both oid and label/value positions.
  Status Check() const {
    for (const auto& [name, use] : uses_) {
      if (use.as_oid && use.as_label_value) {
        std::string where;
        if (use.oid_span.valid() && use.label_value_span.valid()) {
          where = StrCat(" (object id at ", use.oid_span.ToString(),
                         ", label/value at ",
                         use.label_value_span.ToString(), ")");
        }
        return Status::IllFormedQuery(
            StrCat("variable ", name,
                   " is used both as an object id and as a label/value",
                   where, "; V_O and V_C must be disjoint"));
      }
    }
    return Status::OK();
  }

  VarKind KindOf(const std::string& name) const {
    auto it = uses_.find(name);
    if (it == uses_.end()) return VarKind::kObjectId;
    if (it->second.as_oid) return VarKind::kObjectId;
    if (it->second.as_label_value) return VarKind::kLabelValue;
    // Seen only inside function-term arguments (e.g. X in `h(X)` when the
    // rule's body is an instantiated view head): Skolem arguments carry
    // source oids, so object-id is the sort that round-trips.
    return VarKind::kObjectId;
  }

 private:
  struct Uses {
    bool as_oid = false;
    bool as_label_value = false;
    SourceSpan oid_span;
    SourceSpan label_value_span;
  };

  void Note(const std::string& name, Position pos, SourceSpan span) {
    Uses& entry = uses_[name];
    if (pos == Position::kObjectId && !entry.as_oid) {
      entry.as_oid = true;
      entry.oid_span = span;
    }
    if (pos == Position::kLabelValue && !entry.as_label_value) {
      entry.as_label_value = true;
      entry.label_value_span = span;
    }
  }

  std::map<std::string, Uses> uses_;
};

Term Resort(const Term& t, const KindResolver& resolver) {
  switch (t.kind()) {
    case TermKind::kAtom:
      return t;
    case TermKind::kVariable:
      return Term::MakeVar(t.var_name(), resolver.KindOf(t.var_name()));
    case TermKind::kFunction: {
      std::vector<Term> args;
      args.reserve(t.args().size());
      for (const Term& a : t.args()) args.push_back(Resort(a, resolver));
      return Term::MakeFunc(t.functor(), std::move(args));
    }
  }
  return t;
}

ObjectPattern ResortPattern(const ObjectPattern& p,
                            const KindResolver& resolver) {
  ObjectPattern out;
  out.oid = Resort(p.oid, resolver);
  out.label = Resort(p.label, resolver);
  out.step = p.step;
  out.span = p.span;
  if (p.value.is_term()) {
    out.value = PatternValue::FromTerm(Resort(p.value.term(), resolver));
  } else {
    SetPattern members;
    members.reserve(p.value.set().size());
    for (const ObjectPattern& m : p.value.set()) {
      members.push_back(ResortPattern(m, resolver));
    }
    out.value = PatternValue::FromSet(std::move(members));
  }
  return out;
}

}  // namespace

Result<TslQuery> ResolveVariableKinds(const TslQuery& query) {
  KindResolver resolver;
  resolver.NotePattern(query.head);
  for (const Condition& c : query.body) resolver.NotePattern(c.pattern);
  TSLRW_RETURN_NOT_OK(resolver.Check());
  TslQuery out;
  out.name = query.name;
  out.span = query.span;
  out.head = ResortPattern(query.head, resolver);
  out.body.reserve(query.body.size());
  for (const Condition& c : query.body) {
    out.body.push_back(Condition{ResortPattern(c.pattern, resolver), c.source});
  }
  return out;
}

Result<TslQuery> ParseTslQuery(std::string_view text, std::string name) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenCursor cur(std::move(tokens));
  TSLRW_ASSIGN_OR_RETURN(TslQuery query, ParseRule(&cur, std::move(name)));
  if (!cur.AtEof()) {
    return cur.ErrorHere("trailing input after rule");
  }
  return query;
}

Result<std::vector<TslQuery>> ParseTslProgram(std::string_view text) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenCursor cur(std::move(tokens));
  std::vector<TslQuery> rules;
  while (!cur.AtEof()) {
    TSLRW_ASSIGN_OR_RETURN(TslQuery rule, ParseRule(&cur, ""));
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace tslrw
