#include "common/lexer.h"

#include <cctype>

#include "common/string_util.h"

namespace tslrw {

std::string_view TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kString: return "string";
    case TokenKind::kLAngle: return "'<'";
    case TokenKind::kRAngle: return "'>'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kAt: return "'@'";
    case TokenKind::kTurnstile: return "':-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kEof: return "end of input";
  }
  return "token";
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  int line = 1;
  int column = 1;
  size_t i = 0;
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k, ++i) {
      if (i < input.size() && input[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };
  auto push = [&](TokenKind kind, std::string text, int l, int c) {
    tokens.push_back(Token{kind, std::move(text), l, c});
  };
  while (i < input.size()) {
    char c = input[i];
    int tl = line, tc = column;
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (c == '%') {  // comment to end of line
      while (i < input.size() && input[i] != '\n') advance(1);
      continue;
    }
    if (c == ':') {
      if (i + 1 < input.size() && input[i + 1] == '-') {
        push(TokenKind::kTurnstile, ":-", tl, tc);
        advance(2);
        continue;
      }
      return Status::ParseError(
          StrCat("stray ':' at ", tl, ":", tc, " (expected ':-')"));
    }
    if (c == '"') {
      std::string text;
      advance(1);
      bool closed = false;
      while (i < input.size()) {
        char d = input[i];
        if (d == '"') {
          advance(1);
          closed = true;
          break;
        }
        if (d == '\\' && i + 1 < input.size()) {
          text += input[i + 1];
          advance(2);
          continue;
        }
        text += d;
        advance(1);
      }
      if (!closed) {
        return Status::ParseError(
            StrCat("unterminated string starting at ", tl, ":", tc));
      }
      push(TokenKind::kString, std::move(text), tl, tc);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        std::isdigit(static_cast<unsigned char>(c))) {
      std::string text;
      while (i < input.size()) {
        char d = input[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' ||
            d == '\'' || d == '-') {
          // '-' appears inside DTD names and data like 555-1234; it never
          // begins a token, so this is unambiguous.
          text += d;
          advance(1);
        } else {
          break;
        }
      }
      push(TokenKind::kIdent, std::move(text), tl, tc);
      continue;
    }
    TokenKind kind;
    switch (c) {
      case '<': kind = TokenKind::kLAngle; break;
      case '>': kind = TokenKind::kRAngle; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case ',': kind = TokenKind::kComma; break;
      case '@': kind = TokenKind::kAt; break;
      case '*': kind = TokenKind::kStar; break;
      case '?': kind = TokenKind::kQuestion; break;
      case '+': kind = TokenKind::kPlus; break;
      case '|': kind = TokenKind::kPipe; break;
      case '!': kind = TokenKind::kBang; break;
      default:
        return Status::ParseError(StrCat(tl, ":", tc,
                                         ": unexpected character '",
                                         std::string(1, c), "'"));
    }
    push(kind, std::string(1, c), tl, tc);
    advance(1);
  }
  tokens.push_back(Token{TokenKind::kEof, "", line, column});
  return tokens;
}

const Token& TokenCursor::Peek(size_t lookahead) const {
  size_t idx = pos_ + lookahead;
  if (idx >= tokens_.size()) idx = tokens_.size() - 1;  // EOF token
  return tokens_[idx];
}

Token TokenCursor::Next() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool TokenCursor::TryConsume(TokenKind kind) {
  if (Peek().kind != kind) return false;
  Next();
  return true;
}

bool TokenCursor::TryConsumeIdent(std::string_view ident) {
  if (Peek().kind != TokenKind::kIdent || Peek().text != ident) return false;
  Next();
  return true;
}

Result<Token> TokenCursor::Expect(TokenKind kind) {
  if (Peek().kind != kind) {
    return ErrorHere(StrCat(
        "expected ", TokenKindToString(kind), ", found ",
        TokenKindToString(Peek().kind),
        Peek().text.empty() ? "" : StrCat(" '", Peek().text, "'")));
  }
  return Next();
}

Status TokenCursor::ExpectIdent(std::string_view ident) {
  if (Peek().kind != TokenKind::kIdent || Peek().text != ident) {
    return ErrorHere(StrCat("expected '", ident, "'"));
  }
  Next();
  return Status::OK();
}

Status ErrorAtToken(const Token& token, std::string_view message) {
  return Status::ParseError(
      StrCat(token.line, ":", token.column, ": ", message));
}

Status TokenCursor::ErrorHere(std::string_view message) const {
  return ErrorAtToken(Peek(), message);
}

Status CheckDepth(const TokenCursor& cur, int depth) {
  if (depth <= kMaxNestingDepth) return Status::OK();
  return cur.ErrorHere(StrCat("objects and terms nest deeper than ",
                              kMaxNestingDepth, " levels"));
}

}  // namespace tslrw
