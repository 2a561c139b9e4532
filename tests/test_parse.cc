/**
 * @file
 * Tests for the strict value parsers shared by the settings schema,
 * the environment overrides and the tools' flags.
 */

#include <gtest/gtest.h>

#include "common/parse.hh"

namespace morph
{
namespace
{

TEST(Parse, CountIsStrict)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("150000"), 150000u);
    EXPECT_EQ(parseCount("18446744073709551615"), ~std::uint64_t(0));
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "4x", "20M",
                            "0x40", "1e3", "18446744073709551616"})
        EXPECT_FALSE(parseCount(bad)) << "'" << bad << "'";
}

TEST(Parse, RealIsStrict)
{
    EXPECT_EQ(parseReal("2"), 2.0);
    EXPECT_EQ(parseReal("0.5"), 0.5);
    EXPECT_EQ(parseReal("1e-3"), 1e-3);
    EXPECT_EQ(parseReal("-4"), -4.0);
    for (const char *bad : {"", " 2", "2x", "abc", "nan", "inf", "-inf",
                            "1e999"})
        EXPECT_FALSE(parseReal(bad)) << "'" << bad << "'";
}

TEST(Parse, BooleanSpellings)
{
    for (const char *yes : {"yes", "1", "true", "on", "True", "ON"})
        EXPECT_EQ(parseBool(yes), true) << yes;
    for (const char *no : {"no", "OFF", "0", "False", "false", "off"})
        EXPECT_EQ(parseBool(no), false) << no;
    for (const char *bad : {"", "maybe", "2", "y", " true", "truex"})
        EXPECT_FALSE(parseBool(bad)) << "'" << bad << "'";
}

} // namespace
} // namespace morph
