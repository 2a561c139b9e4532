/**
 * @file
 * Minimal INI-style configuration files (USIMM reads its system and
 * power parameters from files; morphsim does the same).
 *
 * Grammar:
 *
 *     ; comment       # comment
 *     [section]
 *     key = value
 *
 * Keys outside any section live in the "" section. Lookups are by
 * "section.key" (or bare "key" for the default section). Values are
 * strings; what a key means and which values it takes is the
 * reader's business (the simulator's keys: sim/sim_settings.hh).
 */

#ifndef MORPH_COMMON_INI_HH
#define MORPH_COMMON_INI_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace morph
{

/** A parsed INI file. */
class IniFile
{
  public:
    /** One "section.key = value" assignment. */
    using Entry = std::pair<std::string, std::string>;

    IniFile() = default;

    /** Parse a file from disk; nullopt, with @p error saying where
     *  and why, if it cannot be opened or has a syntax error. */
    static std::optional<IniFile> fromFile(const std::string &path,
                                           std::string &error);

    /** Parse from a stream named @p name in errors; as fromFile. */
    static std::optional<IniFile> fromStream(std::istream &input,
                                             const std::string &name,
                                             std::string &error);

    /** True if "section.key" (or "key") is present. */
    bool has(const std::string &dotted_key) const;

    /** String value (the last assignment wins); @p fallback if
     *  absent. */
    std::string getString(const std::string &dotted_key,
                          const std::string &fallback = "") const;

    /** Every assignment, dotted, in file order (repeats included). */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    const std::string *find(const std::string &dotted_key) const;

    std::vector<Entry> entries_;
};

} // namespace morph

#endif // MORPH_COMMON_INI_HH
