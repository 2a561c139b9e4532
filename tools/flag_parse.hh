/**
 * @file
 * Flag-value wrappers over the strict parsers of common/parse.hh:
 * a bad value is reported as a bad flag, exit 2.
 */

#ifndef MORPH_TOOLS_FLAG_PARSE_HH
#define MORPH_TOOLS_FLAG_PARSE_HH

#include <cstdio>
#include <cstdlib>

#include "common/parse.hh"

namespace morph
{

/** parseCount(@p text) as the value of flag @p flag; on bad input,
 *  report "<tool>: option <flag> needs a non-negative integer" and
 *  exit 2 (the tools' bad-flag code). */
inline std::uint64_t
requireCount(const char *tool, const char *flag, const char *text)
{
    const std::optional<std::uint64_t> v = parseCount(text);
    if (!v) {
        std::fprintf(stderr,
                     "%s: option %s needs a non-negative integer\n",
                     tool, flag);
        std::exit(2);
    }
    return *v;
}

/** parseReal(@p text) as the value of flag @p flag, which must not be
 *  negative; on bad input, report "<tool>: option <flag> needs a
 *  non-negative number" and exit 2 (the tools' bad-flag code). */
inline double
requireReal(const char *tool, const char *flag, const char *text)
{
    const std::optional<double> v = parseReal(text);
    if (!v || *v < 0.0) {
        std::fprintf(stderr,
                     "%s: option %s needs a non-negative number\n",
                     tool, flag);
        std::exit(2);
    }
    return *v;
}

} // namespace morph

#endif // MORPH_TOOLS_FLAG_PARSE_HH
