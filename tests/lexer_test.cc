#include "common/lexer.h"

#include <gtest/gtest.h>

namespace tslrw {
namespace {

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> out;
  for (const Token& t : tokens) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, PunctuationAndIdentifiers) {
  auto tokens = Tokenize("<f(P) female {<X Y Z>}> :- @db");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  EXPECT_EQ(Kinds(*tokens),
            (std::vector<TokenKind>{
                TokenKind::kLAngle, TokenKind::kIdent, TokenKind::kLParen,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kIdent,
                TokenKind::kLBrace, TokenKind::kLAngle, TokenKind::kIdent,
                TokenKind::kIdent, TokenKind::kIdent, TokenKind::kRAngle,
                TokenKind::kRBrace, TokenKind::kRAngle, TokenKind::kTurnstile,
                TokenKind::kAt, TokenKind::kIdent, TokenKind::kEof}));
}

TEST(LexerTest, PrimesAndHyphensInIdentifiers) {
  auto tokens = Tokenize("X' Y'' Stan-student 555-1234 1993");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 6u);
  EXPECT_EQ((*tokens)[0].text, "X'");
  EXPECT_EQ((*tokens)[1].text, "Y''");
  EXPECT_EQ((*tokens)[2].text, "Stan-student");
  EXPECT_EQ((*tokens)[3].text, "555-1234");
  EXPECT_EQ((*tokens)[4].text, "1993");
}

TEST(LexerTest, QuotedStringsWithEscapes) {
  auto tokens = Tokenize(R"("SIGMOD 97" "a\"b" "c\\d")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "SIGMOD 97");
  EXPECT_EQ((*tokens)[1].text, "a\"b");
  EXPECT_EQ((*tokens)[2].text, "c\\d");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("a % comment with <weird> stuff\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, LineAndColumnTracking) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[0].column, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[1].column, 3);
}

TEST(LexerTest, DtdTokens) {
  auto tokens = Tokenize("<!ELEMENT p (name, phone, address*)>");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLAngle);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kBang);
  EXPECT_EQ((*tokens)[2].text, "ELEMENT");
  // '*' and '?' are individual tokens.
  bool has_star = false;
  for (const Token& t : *tokens) {
    has_star = has_star || t.kind == TokenKind::kStar;
  }
  EXPECT_TRUE(has_star);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("a : b").ok());          // stray colon
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("a $ b").ok());          // unknown character
}

TEST(TokenCursorTest, PeekNextExpect) {
  auto tokens = Tokenize("a , b");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cur(std::move(*tokens));
  EXPECT_EQ(cur.Peek().text, "a");
  EXPECT_EQ(cur.Peek(1).kind, TokenKind::kComma);
  EXPECT_TRUE(cur.TryConsumeIdent("a"));
  EXPECT_FALSE(cur.TryConsumeIdent("zzz"));
  EXPECT_TRUE(cur.TryConsume(TokenKind::kComma));
  auto b = cur.Expect(TokenKind::kIdent);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->text, "b");
  EXPECT_TRUE(cur.AtEof());
  // Expect at EOF fails gracefully and repeatedly.
  EXPECT_FALSE(cur.Expect(TokenKind::kIdent).ok());
  EXPECT_TRUE(cur.AtEof());
}

}  // namespace
}  // namespace tslrw
