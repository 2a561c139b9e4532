/**
 * @file
 * Strict parsing of setting values, shared by the INI schema
 * (sim/sim_settings.hh), the environment overrides and the tools'
 * flags. atoll and a bare strtoull accept what they cannot read:
 * "4x" reads as 4, and "-5" wraps to 2^64 - 5. parseCount accepts a
 * plain run of decimal digits that fits in 64 bits, and nothing else.
 * atof has the same fault for real values ("2x" reads as 2, "abc" as
 * 0) and passes "nan" and "inf" through; parseReal accepts a whole,
 * finite strtod number and nothing else. parseBool accepts the INI
 * spellings true/false, yes/no, on/off and 1/0 in any case.
 */

#ifndef MORPH_COMMON_PARSE_HH
#define MORPH_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

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

/** @p text as a boolean: true/yes/on/1 or false/no/off/0, in any
 *  case; nullopt on anything else. */
inline std::optional<bool>
parseBool(const char *text)
{
    std::string v(text);
    for (char &c : v)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    return std::nullopt;
}

} // namespace morph

#endif // MORPH_COMMON_PARSE_HH
