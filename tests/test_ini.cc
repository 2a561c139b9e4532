/**
 * @file
 * Tests for the INI configuration parser.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/ini.hh"
#include "common/parse.hh"

namespace morph
{
namespace
{

IniFile
parse(const std::string &text)
{
    std::istringstream input(text);
    std::string error;
    const std::optional<IniFile> ini =
        IniFile::fromStream(input, "inline", error);
    EXPECT_TRUE(ini.has_value()) << error;
    return ini.value_or(IniFile());
}

/** The error fromStream reports for @p text, "" if it parses. */
std::string
syntaxError(const std::string &text)
{
    std::istringstream input(text);
    std::string error;
    const std::optional<IniFile> ini =
        IniFile::fromStream(input, "inline", error);
    return ini ? std::string() : error;
}

TEST(Ini, SectionsAndKeys)
{
    const IniFile ini = parse("top = 1\n"
                              "[system]\n"
                              "workload = mcf\n"
                              "mem_gb = 16\n"
                              "[dram]\n"
                              "refresh = true\n");
    EXPECT_TRUE(ini.has("top"));
    EXPECT_TRUE(ini.has("system.workload"));
    EXPECT_FALSE(ini.has("system.refresh"));
    EXPECT_EQ(ini.getString("system.workload", "x"), "mcf");
    EXPECT_EQ(ini.getString("system.mem_gb"), "16");
    EXPECT_EQ(ini.getString("dram.refresh"), "true");
}

TEST(Ini, FallbacksForMissingKeys)
{
    const IniFile ini = parse("[a]\nb = 1\n");
    EXPECT_FALSE(ini.has("a.missing"));
    EXPECT_EQ(ini.getString("a.missing", "dflt"), "dflt");
    EXPECT_EQ(ini.getString("a.missing"), "");
}

TEST(Ini, CommentsAndWhitespace)
{
    const IniFile ini = parse("; full line comment\n"
                              "# hash comment\n"
                              "  [ sec ]  \n"
                              "  key =  spaced value  ; trailing\n");
    EXPECT_EQ(ini.getString("sec.key", ""), "spaced value");
}

TEST(Ini, LastAssignmentWins)
{
    const IniFile ini = parse("[s]\nk = 1\nk = 2\n");
    EXPECT_EQ(ini.getString("s.k"), "2");
    ASSERT_EQ(ini.entries().size(), 2u);
    EXPECT_EQ(ini.entries()[0], IniFile::Entry("s.k", "1"));
    EXPECT_EQ(ini.entries()[1], IniFile::Entry("s.k", "2"));
}

TEST(Ini, NumericFormats)
{
    // Values stay verbatim text; the strict parsers decide what they
    // mean, so a hex or signed spelling is no count.
    const IniFile ini = parse("[n]\nhex = 0x40\nneg = -3\nf = 2.5e2\n");
    EXPECT_EQ(ini.getString("n.hex"), "0x40");
    EXPECT_FALSE(parseCount(ini.getString("n.hex").c_str()));
    EXPECT_FALSE(parseCount(ini.getString("n.neg").c_str()));
    EXPECT_EQ(parseReal(ini.getString("n.neg").c_str()), -3.0);
    EXPECT_EQ(parseReal(ini.getString("n.f").c_str()), 250.0);
}

TEST(Ini, RejectsBadSyntax)
{
    EXPECT_EQ(syntaxError("[unterminated\n"),
              "ini inline:1: unterminated section");
    EXPECT_EQ(syntaxError("[s]\nnovalue\n"),
              "ini inline:2: expected 'key = value'");
    EXPECT_EQ(syntaxError("= 3\n"), "ini inline:1: empty key");
    EXPECT_EQ(syntaxError("[s]\nk = v\n"), "");
}

TEST(Ini, RejectsMissingFile)
{
    std::string error;
    EXPECT_FALSE(IniFile::fromFile("/nonexistent/x.ini", error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

} // namespace
} // namespace morph
