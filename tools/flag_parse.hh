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

} // namespace morph

#endif // MORPH_TOOLS_FLAG_PARSE_HH
