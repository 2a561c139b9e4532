/**
 * @file
 * Unit tests for the structural source model (src/analysis): the
 * parser-shape edge cases morphflow leans on — raw strings, operator
 * overloads, MORPH_* annotations between a definition's parameters
 * and its body.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/lexer.hh"
#include "analysis/source_model.hh"

namespace morph::analysis
{
namespace
{

SourceModel
modelOf(const LexedSource &src)
{
    return buildModel(src);
}

const FunctionDef *
findFn(const SourceModel &m, const std::string &name)
{
    for (const FunctionDef &f : m.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

// ---- raw strings ----------------------------------------------------

TEST(SourceModel, RawStringBracesDoNotBreakBodies)
{
    // The brace and quote inside the raw string must not derail the
    // function-body matcher.
    const LexedSource src = lex("t.cc", R"code(
int before() { return 1; }
const char *blob() { return R"(unbalanced { " brace)"; }
int after() { return 2; }
)code");
    const SourceModel m = modelOf(src);
    EXPECT_NE(findFn(m, "before"), nullptr);
    EXPECT_NE(findFn(m, "blob"), nullptr);
    EXPECT_NE(findFn(m, "after"), nullptr);
}

TEST(SourceModel, RawStringIsOneToken)
{
    const LexedSource src =
        lex("t.cc", "auto s = R\"(a } b ( c)\";\n");
    const auto str = std::find_if(
        src.tokens.begin(), src.tokens.end(),
        [](const Token &t) { return t.kind == Tok::String; });
    ASSERT_NE(str, src.tokens.end());
}

// ---- operator overloads ----------------------------------------------

TEST(SourceModel, OperatorOverloadsAreShaped)
{
    const LexedSource src =
        lex("t.cc", "struct V {\n"
                    "    bool operator==(const V &o) const\n"
                    "    { return x == o.x; }\n"
                    "    int operator[](int i) const { return i; }\n"
                    "    int operator()(int a, int b) { return a + b; }\n"
                    "    int x;\n"
                    "};\n");
    const SourceModel m = modelOf(src);
    EXPECT_NE(findFn(m, "operator=="), nullptr);
    EXPECT_NE(findFn(m, "operator[]"), nullptr);
    EXPECT_NE(findFn(m, "operator()"), nullptr);
}

TEST(SourceModel, DefinitionSiteAnnotations)
{
    // An annotation group between the parameters and the body (even
    // one spanning lines) is skipped: the body still starts at '{'.
    const LexedSource src =
        lex("t.cc", "void drainAll() MORPH_EXCLUDES(lock_,\n"
                    "                               other_)\n"
                    "{\n"
                    "}\n");
    const SourceModel m = modelOf(src);
    const FunctionDef *f = findFn(m, "drainAll");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(src.tokens[f->bodyBegin].text, "{");
    EXPECT_EQ(src.tokens[f->bodyBegin].line, 3u);
}

} // namespace
} // namespace morph::analysis
