#include "oem/parser.h"

#include "common/lexer.h"
#include "common/string_util.h"

namespace tslrw {

namespace {

/// Parses a ground term: IDENT | STRING | IDENT '(' term (',' term)* ')'.
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
  if (!cur->TryConsume(TokenKind::kLParen)) {
    return Term::MakeAtom(std::move(head));
  }
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

/// Parses `<oid label value>` recursively; inserts into \p db and returns
/// the oid so the caller can link it as a child or root. \p depth counts
/// object and term nesting together, as the TSL parser does.
Result<Oid> ParseObject(TokenCursor* cur, OemDatabase* db, int depth) {
  TSLRW_RETURN_NOT_OK(CheckDepth(*cur, depth));
  TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kLAngle).status());
  TSLRW_ASSIGN_OR_RETURN(Term oid, ParseTerm(cur, depth + 1));
  Token label_tok = cur->Peek();
  if (label_tok.kind != TokenKind::kIdent &&
      label_tok.kind != TokenKind::kString) {
    return cur->ErrorHere("expected an object label");
  }
  std::string label = cur->Next().text;

  const Token& v = cur->Peek();
  if (v.kind == TokenKind::kLBrace) {
    cur->Next();
    TSLRW_RETURN_NOT_OK(db->PutSet(oid, label));
    while (!cur->TryConsume(TokenKind::kRBrace)) {
      if (cur->TryConsume(TokenKind::kAt)) {
        TSLRW_ASSIGN_OR_RETURN(Term ref, ParseTerm(cur, depth + 1));
        TSLRW_RETURN_NOT_OK(db->AddEdge(oid, ref));
        continue;
      }
      TSLRW_ASSIGN_OR_RETURN(Oid child, ParseObject(cur, db, depth + 1));
      TSLRW_RETURN_NOT_OK(db->AddEdge(oid, child));
    }
  } else if (v.kind == TokenKind::kString || v.kind == TokenKind::kIdent) {
    TSLRW_RETURN_NOT_OK(db->PutAtomic(oid, label, cur->Next().text));
  } else {
    return cur->ErrorHere("expected an atomic value or '{'");
  }
  TSLRW_RETURN_NOT_OK(cur->Expect(TokenKind::kRAngle).status());
  return oid;
}

}  // namespace

Result<OemDatabase> ParseOemDatabase(std::string_view text) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenCursor cur(std::move(tokens));
  TSLRW_RETURN_NOT_OK(cur.ExpectIdent("database"));
  TSLRW_ASSIGN_OR_RETURN(Token name, cur.Expect(TokenKind::kIdent));
  OemDatabase db(name.text);
  TSLRW_RETURN_NOT_OK(cur.Expect(TokenKind::kLBrace).status());
  while (!cur.TryConsume(TokenKind::kRBrace)) {
    if (cur.TryConsume(TokenKind::kAt)) {
      // A root that is also some object's child: defined at its first
      // occurrence, referenced here (the printer emits this form).
      TSLRW_ASSIGN_OR_RETURN(Term ref, ParseTerm(&cur, 1));
      TSLRW_RETURN_NOT_OK(db.AddRoot(ref));
      continue;
    }
    TSLRW_ASSIGN_OR_RETURN(Oid root, ParseObject(&cur, &db, 1));
    TSLRW_RETURN_NOT_OK(db.AddRoot(root));
  }
  if (!cur.AtEof()) {
    return cur.ErrorHere("trailing input after database block");
  }
  TSLRW_RETURN_NOT_OK(db.Validate());
  return db;
}

Result<Term> ParseGroundTerm(std::string_view text) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenCursor cur(std::move(tokens));
  TSLRW_ASSIGN_OR_RETURN(Term t, ParseTerm(&cur, 1));
  if (!cur.AtEof()) {
    return cur.ErrorHere("trailing input after term");
  }
  if (!t.IsGround()) {
    return Status::ParseError(StrCat("term is not ground: ", t.ToString()));
  }
  return t;
}

}  // namespace tslrw
