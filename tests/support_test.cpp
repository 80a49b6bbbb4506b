/**
 * @file
 * Unit tests for the support library: RNG, string utilities,
 * statistics and table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/support/rng.hh"
#include "src/support/stats.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/support/table.hh"

namespace
{

using namespace pe;

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next64(), b.next64());
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo = sawLo || v == -3;
        sawHi = sawHi || v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyFair)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.5) ? 1 : 0;
    EXPECT_GT(heads, 4500);
    EXPECT_LT(heads, 5500);
}

TEST(Strutil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strutil, SplitEmpty)
{
    auto parts = split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Strutil, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\ny\tz"), "x\\ny\\tz");
    // Every other control character becomes a \u escape, so no raw
    // byte below 0x20 reaches a JSONL record.
    EXPECT_EQ(jsonEscape(std::string("\x01\r\x1f", 3)),
              "\\u0001\\u000d\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(Strutil, StartsWith)
{
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("he", "hello"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(Strutil, JoinAndPad)
{
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcde", 3), "abcde");
}

TEST(Strutil, Formatting)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.5, 1), "50.0%");
    EXPECT_EQ(fmtPercent(0.123456, 2), "12.35%");
}

TEST(Strutil, ParseUnsignedTakesDecimalAndHexUpToTheBound)
{
    EXPECT_EQ(parseUnsigned("--n", "0"), 0u);
    EXPECT_EQ(parseUnsigned("--n", "70"), 70u);
    EXPECT_EQ(parseUnsigned("--n", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseUnsigned("--n", "0x5eedbea7"), 0x5eedbea7u);
    EXPECT_EQ(parseUnsigned("--n", "0XFF", 255), 255u);
    EXPECT_EQ(parseUnsigned("--n", "0xffffffffffffffff"), UINT64_MAX);
    EXPECT_EQ(parseUnsigned("--n", "255", 255), 255u);
    EXPECT_EQ(parseUnsigned("--n", "4294967295", UINT32_MAX), UINT32_MAX);
}

TEST(Strutil, ParseUnsignedRejectsSignsJunkAndOutOfRange)
{
    for (const char *bad :
         {"", "abc", "-1", "+1", " 1", "1 ", "1x", "1.5", "1e3",
          "18446744073709551616", "99999999999999999999999",
          // A leading zero: job specs once read "010" as octal 8.
          "00", "007", "010",
          // Hexadecimal needs digits after the prefix, and no sign.
          "0x", "x10", "0x-1", "0x+1", "-0x1", "0x1g",
          "0x10000000000000000"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseUnsigned("--n", bad), FatalError);
    }
    EXPECT_THROW(parseUnsigned("--n", "256", 255), FatalError);
    EXPECT_THROW(parseUnsigned("--n", "4294967296", UINT32_MAX),
                 FatalError);
    // The message names the flag, the bound and the text.
    try {
        parseUnsigned("--threshold", "300", 255);
        ADD_FAILURE() << "300 accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--threshold"), std::string::npos) << msg;
        EXPECT_NE(msg.find("255"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'300'"), std::string::npos) << msg;
    }
}

TEST(Strutil, ParseSignedTakesAMinusSignWithinTheRange)
{
    EXPECT_EQ(parseSigned("word", "-7", INT32_MIN, INT32_MAX), -7);
    EXPECT_EQ(parseSigned("word", "-2147483648", INT32_MIN, INT32_MAX),
              INT32_MIN);
    EXPECT_EQ(parseSigned("word", "2147483647", INT32_MIN, INT32_MAX),
              INT32_MAX);
    EXPECT_EQ(parseSigned("word", "-0", INT32_MIN, INT32_MAX), 0);
    EXPECT_EQ(parseSigned("word", "0x7fffffff", INT32_MIN, INT32_MAX),
              INT32_MAX);
    for (const char *bad : {"", "xyz", "+7", "--7", "7-", " -7",
                            "-2147483649", "2147483648", "-07", "07",
                            "-0x1", "0x-1", "0x80000000"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseSigned("word", bad, INT32_MIN, INT32_MAX),
                     FatalError);
    }
}

TEST(Stats, SummaryBasics)
{
    Summary s;
    EXPECT_EQ(s.mean(), 0.0);
    s.add(1);
    s.add(3);
    s.add(5);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, CdfFractions)
{
    Cdf cdf;
    for (uint64_t v : {10u, 20u, 30u, 40u})
        cdf.add(v);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(10), 0.25);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(25), 0.5);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(100), 1.0);
    EXPECT_DOUBLE_EQ(cdf.fractionBelow(10), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionBelow(11), 0.25);
}

TEST(Stats, CdfQuantile)
{
    Cdf cdf;
    for (uint64_t v = 1; v <= 100; ++v)
        cdf.add(v);
    EXPECT_EQ(cdf.quantile(0.0), 1u);
    EXPECT_EQ(cdf.quantile(1.0), 100u);
    EXPECT_NEAR(static_cast<double>(cdf.quantile(0.5)), 50.0, 2.0);
}

TEST(Stats, CdfEmpty)
{
    Cdf cdf;
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(10), 0.0);
    EXPECT_EQ(cdf.count(), 0u);
}

TEST(Table, RendersAligned)
{
    Table t({"A", "Bee"});
    t.addRow({"longer", "x"});
    t.addSeparator();
    t.addRow({"y", "zz"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("| A      | Bee |"), std::string::npos);
    EXPECT_NE(out.find("| longer | x   |"), std::string::npos);
    // Header separator plus the explicit one.
    size_t first = out.find("|--");
    size_t second = out.find("|--", first + 1);
    EXPECT_NE(second, std::string::npos);
}

TEST(Status, FatalThrows)
{
    EXPECT_THROW(pe_fatal("boom ", 42), FatalError);
}

TEST(Status, FatalMessageContainsDetail)
{
    try {
        pe_fatal("code=", 7);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("code=7"),
                  std::string::npos);
    }
}

TEST(Status, FatalMessageIsExactlyTheUserMessage)
{
    // A user error names no source file: the CLIs print the message
    // as is.
    try {
        pe_fatal("--threshold: expected at most ", 255, ", got '300'");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: --threshold: expected at most 255, got '300'");
    }
}

} // namespace
