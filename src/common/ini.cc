#include "common/ini.hh"

#include <cctype>
#include <cstdint>
#include <fstream>

namespace morph
{

namespace
{

std::string
trim(const std::string &text)
{
    std::size_t begin = 0, end = text.size();
    while (begin < end && std::isspace(std::uint8_t(text[begin])))
        ++begin;
    while (end > begin && std::isspace(std::uint8_t(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

} // namespace

std::optional<IniFile>
IniFile::fromFile(const std::string &path, std::string &error)
{
    std::ifstream input(path);
    if (!input) {
        error = "ini: cannot open " + path;
        return std::nullopt;
    }
    return fromStream(input, path, error);
}

std::optional<IniFile>
IniFile::fromStream(std::istream &input, const std::string &name,
                    std::string &error)
{
    IniFile ini;
    std::string line;
    std::string section;
    std::size_t line_number = 0;
    auto syntax = [&](const char *what) {
        error = "ini " + name + ":" + std::to_string(line_number) +
                ": " + what;
        return std::nullopt;
    };
    while (std::getline(input, line)) {
        ++line_number;
        const std::size_t comment = line.find_first_of(";#");
        if (comment != std::string::npos)
            line.erase(comment);
        line = trim(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return syntax("unterminated section");
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return syntax("expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        if (key.empty())
            return syntax("empty key");
        ini.entries_.emplace_back(
            section.empty() ? key : section + "." + key,
            trim(line.substr(eq + 1)));
    }
    return ini;
}

const std::string *
IniFile::find(const std::string &dotted_key) const
{
    // Last assignment wins, as users expect from override files.
    const std::string *found = nullptr;
    for (const Entry &entry : entries_)
        if (entry.first == dotted_key)
            found = &entry.second;
    return found;
}

bool
IniFile::has(const std::string &dotted_key) const
{
    return find(dotted_key) != nullptr;
}

std::string
IniFile::getString(const std::string &dotted_key,
                   const std::string &fallback) const
{
    const std::string *value = find(dotted_key);
    return value ? *value : fallback;
}

} // namespace morph
