/**
 * @file
 * Strict numeric parsing of command-line flag values, shared by the
 * tools. atoll and a bare strtoull accept what they cannot read:
 * "4x" reads as 4, and "-5" wraps to 2^64 - 5. parseCount accepts a
 * plain run of decimal digits that fits in 64 bits, and nothing else.
 */

#ifndef MORPH_TOOLS_FLAG_PARSE_HH
#define MORPH_TOOLS_FLAG_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace morph
{

/** @p text as a non-negative decimal integer; nullopt on an empty
 *  value, a sign, whitespace, a junk suffix or overflow. */
inline std::optional<std::uint64_t>
parseCount(const char *text)
{
    if (*text < '0' || *text > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return std::uint64_t(v);
}

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

} // namespace morph

#endif // MORPH_TOOLS_FLAG_PARSE_HH
