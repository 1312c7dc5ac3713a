#include "sql/normalizer.h"

#include <gtest/gtest.h>

#include <random>

#include "common/hash.h"
#include "sql/lexer.h"
#include "testing/workload_gen.h"
#include "workload/nref.h"

namespace imon::sql {
namespace {

TEST(NormalizerTest, ReplacesLiteralsWithPlaceholders) {
  auto n = NormalizeStatement("SELECT name FROM item WHERE id = 42");
  EXPECT_TRUE(n.normalized);
  EXPECT_EQ(n.template_text, "select name from item where id = ?");
  EXPECT_EQ(n.literal_count, 1u);
  EXPECT_NE(n.fingerprint, 0u);
}

TEST(NormalizerTest, SameTemplateForDifferentLiterals) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id = 1");
  auto b = NormalizeStatement("select *  from ITEM\nwhere id=99999");
  EXPECT_EQ(a.template_text, b.template_text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, DistinctShapesGetDistinctFingerprints) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id = 1");
  auto b = NormalizeStatement("SELECT * FROM item WHERE id > 1");
  auto c = NormalizeStatement("SELECT * FROM sale WHERE id = 1");
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, c.fingerprint);
  EXPECT_NE(b.fingerprint, c.fingerprint);
}

TEST(NormalizerTest, StringAndFloatLiterals) {
  auto n = NormalizeStatement(
      "SELECT * FROM item WHERE name = 'abc''d' AND price > 1.5e3");
  EXPECT_EQ(n.template_text,
            "select * from item where name = ? and price > ?");
  EXPECT_EQ(n.literal_count, 2u);
}

TEST(NormalizerTest, BooleanLiteralsNormalizedNullKept) {
  auto a = NormalizeStatement("SELECT * FROM t WHERE live = true");
  auto b = NormalizeStatement("SELECT * FROM t WHERE live = FALSE");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  auto c = NormalizeStatement("SELECT * FROM t WHERE x IS NULL");
  EXPECT_EQ(c.template_text, "select * from t where x is null");
  EXPECT_EQ(c.literal_count, 0u);
}

TEST(NormalizerTest, CollapsesInLists) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id IN (1, 2, 3)");
  auto b = NormalizeStatement("SELECT * FROM item WHERE id IN (7)");
  auto c =
      NormalizeStatement("SELECT * FROM item WHERE id IN (4, 5, 6, 7, 8)");
  EXPECT_EQ(a.template_text, "select * from item where id in ( ? )");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

TEST(NormalizerTest, DoesNotCollapseNonLiteralInLists) {
  auto n = NormalizeStatement("SELECT * FROM item WHERE id IN (1, x)");
  EXPECT_EQ(n.template_text, "select * from item where id in ( ? , x )");
}

TEST(NormalizerTest, ValuesListKeepsArity) {
  auto a = NormalizeStatement("INSERT INTO t VALUES (1, 'a')");
  auto b = NormalizeStatement("INSERT INTO t VALUES (1, 'a', 2)");
  EXPECT_EQ(a.template_text, "insert into t values ( ? , ? )");
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, UnarySignFoldedBinaryKept) {
  auto a = NormalizeStatement("SELECT * FROM t WHERE x = -5");
  auto b = NormalizeStatement("SELECT * FROM t WHERE x = 5");
  EXPECT_EQ(a.template_text, b.template_text);
  auto c = NormalizeStatement("SELECT * FROM t WHERE x - 5 > 2");
  EXPECT_EQ(c.template_text, "select * from t where x - ? > ?");
  auto d = NormalizeStatement("SELECT * FROM t WHERE x = 5 - 3");
  EXPECT_EQ(d.template_text, "select * from t where x = ? - ?");
}

TEST(NormalizerTest, TrailingSemicolonAndCommentsDropped) {
  auto a = NormalizeStatement("SELECT * FROM t; -- trailing comment");
  auto b = NormalizeStatement("SELECT * FROM t");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, MalformedTextFallsBackToRawHash) {
  std::string bad = "SELECT 'unterminated";
  auto n = NormalizeStatement(bad);
  EXPECT_FALSE(n.normalized);
  EXPECT_EQ(n.template_text, bad);
  EXPECT_EQ(n.fingerprint, Mix64(HashStatement(bad)));
}

TEST(NormalizerTest, FingerprintIsMixedTemplateHash) {
  auto n = NormalizeStatement("SELECT * FROM t WHERE id = 3");
  EXPECT_EQ(n.fingerprint, Mix64(HashStatement(n.template_text)));
}

/// The hash sink's fingerprint of `text`'s tokens must equal the one
/// NormalizeStatement derives from the template text it builds.
void ExpectTokenFingerprintMatches(const std::string& text) {
  auto tokens = Tokenize(text);
  ASSERT_TRUE(tokens.ok()) << text;
  EXPECT_EQ(TemplateFingerprint(*tokens), NormalizeStatement(text).fingerprint)
      << text;
}

TEST(NormalizerTest, TokenFingerprintMatchesOnRuleCases) {
  for (const char* text : {
           "SELECT name FROM item WHERE id = 42",
           "select *  from ITEM\nwhere id=99999",
           "SELECT * FROM item WHERE name = 'abc''d' AND price > 1.5e3",
           "SELECT * FROM t WHERE live = true",
           "SELECT * FROM t WHERE live = FALSE",
           "SELECT * FROM t WHERE x IS NULL",
           "SELECT * FROM item WHERE id IN (1, 2, 3)",
           "SELECT * FROM item WHERE id IN (7)",
           "SELECT * FROM item WHERE id IN (1, x)",
           "SELECT * FROM item WHERE id IN ()",
           "SELECT * FROM item WHERE id IN (1, )",
           "SELECT * FROM item WHERE id IN (1, 2",
           "SELECT * FROM t WHERE a IN (1) AND b IN (IN (2))",
           "INSERT INTO t VALUES (1, 'a')",
           "SELECT * FROM t WHERE x = -5",
           "SELECT * FROM t WHERE x - 5 > 2",
           "SELECT * FROM t WHERE x = 5 - 3",
           "SELECT * FROM t WHERE x = (-5) + -'s'",
           "SELECT * FROM t; -- trailing comment",
           "SELECT * FROM t;;",
           "SELECT 1; SELECT 2 ;",
           "x IN (1, 2) ;",
           "",
           ";",
       }) {
    ExpectTokenFingerprintMatches(text);
  }
}

TEST(NormalizerTest, TokenFingerprintMatchesOnGeneratedWorkloads) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    testing::GenConfig config;
    config.seed = seed;
    testing::Workload w = testing::GenerateWorkload(config);
    for (const auto* group : {&w.schema, &w.data, &w.index_ddl, &w.queries}) {
      for (const std::string& text : *group) {
        ExpectTokenFingerprintMatches(text);
        ++checked;
      }
    }
  }
  for (const std::string& text :
       workload::ComplexQuerySet(workload::NrefConfig{}, 50)) {
    ExpectTokenFingerprintMatches(text);
    ++checked;
  }
  EXPECT_GT(checked, 10000u);
}

TEST(NormalizerTest, TokenFingerprintMatchesOnRandomTokenStrings) {
  // Every fold rule fires on these: unary signs, booleans, IN-lists (whole,
  // broken and nested), and `;` in and at the end of the stream.
  const char* const kVocab[] = {"in", "(", ")", ",", ";", "-", "+",
                                "1",  "2.5", "'x'", "true", "null"};
  std::mt19937_64 rng(20091);
  for (int i = 0; i < 100000; ++i) {
    std::string text;
    for (size_t n = rng() % 16; n > 0; --n) {
      text += kVocab[rng() % std::size(kVocab)];
      text += ' ';
    }
    ExpectTokenFingerprintMatches(text);
    if (HasFailure()) return;
  }
}

TEST(NormalizerTest, Mix64Avalanches) {
  // Adjacent inputs must not produce adjacent outputs (the raw FNV/combine
  // values feeding sampling decisions are weak in the low bits).
  EXPECT_NE(Mix64(1) ^ Mix64(2), 3u);
  EXPECT_NE(Mix64(0), 0u);
}

}  // namespace
}  // namespace imon::sql
