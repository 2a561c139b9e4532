/**
 * @file
 * Strict numeric parsing of command-line flag values, shared by the
 * tools. atoll and a bare strtoull accept what they cannot read:
 * "4x" reads as 4, and "-5" wraps to 2^64 - 5. parseCount accepts a
 * plain run of decimal digits that fits in 64 bits, and nothing else.
 * atof has the same fault for real values ("2x" reads as 2, "abc" as
 * 0) and passes "nan" and "inf" through; parseReal accepts a whole,
 * finite strtod number and nothing else.
 */

#ifndef MORPH_TOOLS_FLAG_PARSE_HH
#define MORPH_TOOLS_FLAG_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
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

/** @p text as a finite real number in strtod syntax ("2", "0.5",
 *  "1e-3", "-4"); nullopt on an empty value, leading whitespace, a
 *  junk suffix, nan, an infinity or overflow. */
inline std::optional<double>
parseReal(const char *text)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
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
