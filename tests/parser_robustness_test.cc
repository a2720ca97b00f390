// Robustness fuzzing (deterministic): mutated and truncated inputs must
// never crash or hang any parser — they either parse or return a Status.
// This locks in the no-exceptions, no-UB error discipline of the parsing
// layer against byte-level garbage.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "constraints/dtd.h"
#include "fixtures.h"
#include "oem/parser.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

constexpr std::string_view kTslSeeds[] = {
    testing::kQ1, testing::kQ2, testing::kV1, testing::kQ5, testing::kQ9,
    testing::kQ10, testing::kQ11, testing::kQ14,
};

constexpr std::string_view kOemSeed = R"(
  database db {
    <p1 person { <n1 name { <l1 last "stanford"> }> <ph1 phone "555"> @p2 }>
    <p2 person { <g2 gender male> }>
  })";

constexpr std::string_view kDtdSeed = R"(
  <!ELEMENT p (name, phone?, address*)>
  <!ELEMENT name (last | alias)>
  <!ELEMENT phone CDATA>
)";

std::string Mutate(std::string_view seed, std::mt19937_64* rng) {
  std::string text(seed);
  std::uniform_int_distribution<int> mutation_count(1, 6);
  static constexpr char kNoise[] = "<>{}()@:-'\"% \nABZabz019_*?!|,";
  int n = mutation_count(*rng);
  for (int i = 0; i < n && !text.empty(); ++i) {
    size_t pos = std::uniform_int_distribution<size_t>(
        0, text.size() - 1)(*rng);
    switch (std::uniform_int_distribution<int>(0, 3)(*rng)) {
      case 0:  // replace
        text[pos] = kNoise[std::uniform_int_distribution<size_t>(
            0, sizeof(kNoise) - 2)(*rng)];
        break;
      case 1:  // delete
        text.erase(pos, 1);
        break;
      case 2:  // insert
        text.insert(pos, 1,
                    kNoise[std::uniform_int_distribution<size_t>(
                        0, sizeof(kNoise) - 2)(*rng)]);
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, MutatedTslNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  for (std::string_view seed : kTslSeeds) {
    for (int i = 0; i < 40; ++i) {
      std::string text = Mutate(seed, &rng);
      auto result = ParseTslQuery(text);
      // Either outcome is fine; what matters is that we got here.
      if (result.ok()) {
        // A successful parse must round-trip through its own printer.
        auto round = ParseTslQuery(result->ToString());
        EXPECT_TRUE(round.ok())
            << "printer produced unparsable text for input: " << text;
      }
    }
  }
}

TEST_P(ParserRobustnessTest, MutatedOemNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int i = 0; i < 120; ++i) {
    std::string text = Mutate(kOemSeed, &rng);
    auto result = ParseOemDatabase(text);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok())
          << "parser accepted an invalid database for: " << text;
      auto round = ParseOemDatabase(result->ToString());
      EXPECT_TRUE(round.ok())
          << round.status() << "\n  printed:\n" << result->ToString()
          << "  original input: " << text;
    }
  }
}

TEST_P(ParserRobustnessTest, MutatedDtdNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 17 + 3);
  for (int i = 0; i < 120; ++i) {
    std::string text = Mutate(kDtdSeed, &rng);
    auto result = Dtd::Parse(text);
    if (result.ok()) {
      auto round = Dtd::Parse(result->ToString());
      EXPECT_TRUE(round.ok());
    }
  }
}

TEST(ParserRobustnessTest, PathologicalInputs) {
  // Deep nesting, long identifiers, empty and whitespace-only inputs.
  std::string deep_open(2000, '{');
  EXPECT_FALSE(ParseTslQuery(deep_open).ok());
  EXPECT_FALSE(ParseTslQuery("").ok());
  EXPECT_FALSE(ParseTslQuery("   \n\t  ").ok());
  EXPECT_FALSE(ParseOemDatabase(std::string(5000, '<')).ok());
  std::string long_ident(100000, 'a');
  EXPECT_FALSE(ParseTslQuery(long_ident).ok());
  // A legitimately deep (but balanced) pattern parses fine.
  std::string nested_head = "u";
  std::string nested_body = "u";
  for (int d = 60; d >= 1; --d) {
    nested_body = "{<X" + std::to_string(d) + " l " + nested_body + ">}";
  }
  auto deep = ParseTslQuery("<f(X1) out yes> :- <R root " + nested_body +
                            ">@db");
  EXPECT_TRUE(deep.ok()) << deep.status();
}

TEST(ParserRobustnessTest, NestingDepthIsBoundedWithAPositionedError) {
  // Regression: a balanced pattern nested 20 000 deep used to overflow the
  // stack (the analyzer CLI died with SIGSEGV). Patterns and function terms
  // now share one nesting bound and fail with a line:column ParseError.
  constexpr int kDepth = 20000;
  std::string open;
  std::string close;
  for (int d = 1; d <= kDepth; ++d) {
    open += "{<X" + std::to_string(d) + " a ";
    close += ">}";
  }
  auto deep_pattern =
      ParseTslQuery("<f(P) out yes> :-\n  <P a " + open + "V" + close + ">@s");
  ASSERT_FALSE(deep_pattern.ok());
  EXPECT_TRUE(deep_pattern.status().IsParseError()) << deep_pattern.status();
  EXPECT_NE(deep_pattern.status().message().find("2:"), std::string::npos)
      << deep_pattern.status();
  EXPECT_NE(deep_pattern.status().message().find("nest deeper"),
            std::string::npos)
      << deep_pattern.status();

  std::string term;
  for (int d = 0; d < kDepth; ++d) term += "f(";
  term += "x" + std::string(kDepth, ')');
  auto deep_term = ParseTslQuery("<" + term + " out yes> :- <P a V>@s");
  ASSERT_FALSE(deep_term.ok());
  EXPECT_TRUE(deep_term.status().IsParseError()) << deep_term.status();
  EXPECT_NE(deep_term.status().message().find("1:"), std::string::npos)
      << deep_term.status();
  EXPECT_NE(deep_term.status().message().find("nest deeper"), std::string::npos)
      << deep_term.status();

  // Programs go through the same parser.
  EXPECT_FALSE(ParseTslProgram("<" + term + " out yes> :- <P a V>@s").ok());

  // OEM data shares the bound: nested objects, a nested oid, and a
  // standalone ground term.
  std::string objects;
  for (int d = 0; d < kDepth; ++d) objects += "<o l {";
  auto deep_objects = ParseOemDatabase("database d {\n  " + objects);
  std::string oid;
  for (int d = 0; d < kDepth; ++d) oid += "f(";
  oid += "a" + std::string(kDepth, ')');
  auto deep_oid = ParseOemDatabase("database d {\n  <" + oid + " l v> }");
  auto deep_ground = ParseGroundTerm("\n" + oid);
  for (const Status& status :
       {deep_objects.status(), deep_oid.status(), deep_ground.status()}) {
    EXPECT_TRUE(status.IsParseError()) << status;
    EXPECT_NE(status.message().find("2:"), std::string::npos) << status;
    EXPECT_NE(status.message().find("nest deeper"), std::string::npos)
        << status;
  }
}

TEST(ParserRobustnessTest, DeepOemOidParsesQuickly) {
  // Regression: an OEM literal whose oid is a 26-deep function term took
  // 2.5 s to parse (ordering equal deep terms cost 2^depth).
  constexpr int kDepth = 64;
  std::string oid = "x";
  for (int d = 0; d < kDepth; ++d) oid = "f(" + oid + ")";
  auto db = ParseOemDatabase("database d { <" + oid + " a \"v\"> }");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 1u);
  EXPECT_EQ(db->roots().size(), 1u);
}

TEST(ParserRobustnessTest, ParseErrorsCarrySourcePositions) {
  auto truncated = ParseTslQuery("<f(P out");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("1:6"), std::string::npos)
      << truncated.status();
  auto second_line = ParseTslQuery("<f(P) out yes> :-\n  <P p V @db");
  ASSERT_FALSE(second_line.ok());
  EXPECT_NE(second_line.status().message().find("2:"), std::string::npos)
      << second_line.status();
}

TEST(ParserRobustnessTest, SortClashErrorNamesBothPositions) {
  // Regression: the V_O/V_C disjointness error used to come without any
  // location; it now points at the first object-id use and the first
  // label/value use of the clashing name.
  auto clash = ParseTslQuery("<f(X) out yes> :- <X a {<Y X Z>}>@db");
  ASSERT_FALSE(clash.ok());
  EXPECT_NE(clash.status().message().find("object id at 1:19"),
            std::string::npos)
      << clash.status();
  EXPECT_NE(clash.status().message().find("label/value at 1:25"),
            std::string::npos)
      << clash.status();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace tslrw
