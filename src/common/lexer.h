#ifndef TSLRW_COMMON_LEXER_H_
#define TSLRW_COMMON_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tslrw {

/// \brief Token categories shared by the TSL, OEM-data, and DTD parsers.
enum class TokenKind {
  kIdent,     ///< identifier or number, e.g. `person`, `X'`, `1993`
  kString,    ///< double-quoted string with \" and \\ escapes (unquoted form)
  kLAngle,    ///< <
  kRAngle,    ///< >
  kLBrace,    ///< {
  kRBrace,    ///< }
  kLParen,    ///< (
  kRParen,    ///< )
  kComma,     ///< ,
  kAt,        ///< @
  kTurnstile, ///< :-
  kStar,      ///< *
  kQuestion,  ///< ?
  kPlus,      ///< +
  kPipe,      ///< |
  kBang,      ///< !
  kEof,
};

std::string_view TokenKindToString(TokenKind kind);

/// \brief A lexed token with its source position (1-based line/column).
struct Token {
  TokenKind kind;
  std::string text;  // identifier spelling or unescaped string contents
  int line = 1;
  int column = 1;
};

/// \brief Splits \p input into tokens.
///
/// Identifiers are `[A-Za-z_][A-Za-z0-9_']*` (primes support the paper's
/// X', Y'' variables) and bare numbers `[0-9][A-Za-z0-9_]*`. `%` starts a
/// comment running to end of line (the paper's own comment convention).
Result<std::vector<Token>> Tokenize(std::string_view input);

/// \brief A ParseError positioned at \p token ("line:column: message").
Status ErrorAtToken(const Token& token, std::string_view message);

/// \brief A cursor over a token stream with the usual peek/expect helpers.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t lookahead = 0) const;
  bool AtEof() const { return Peek().kind == TokenKind::kEof; }

  /// Consumes and returns the current token.
  Token Next();

  /// True (and advances) iff the current token has the given kind.
  bool TryConsume(TokenKind kind);
  /// True (and advances) iff the current token is the identifier \p ident.
  bool TryConsumeIdent(std::string_view ident);

  /// Consumes a token of kind \p kind or fails with a positioned ParseError.
  Result<Token> Expect(TokenKind kind);
  /// Consumes the identifier \p ident or fails.
  Status ExpectIdent(std::string_view ident);

  /// A ParseError carrying the current token's position and \p message.
  Status ErrorHere(std::string_view message) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// \brief How deep objects (or object patterns) and function terms may
/// nest, counted together, in every recursive-descent parser over this
/// lexer. Each parser and every pass over what it builds recurse once per
/// level, so an unbounded depth would let a short input exhaust the
/// stack; real rules and databases nest a handful of levels.
inline constexpr int kMaxNestingDepth = 512;

/// \brief Fails with a ParseError positioned at \p cur once \p depth
/// (1 at the top level) exceeds kMaxNestingDepth.
Status CheckDepth(const TokenCursor& cur, int depth);

}  // namespace tslrw

#endif  // TSLRW_COMMON_LEXER_H_
