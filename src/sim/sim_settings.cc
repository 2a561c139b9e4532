#include "sim/sim_settings.hh"

#include <cstdint>

#include "common/parse.hh"
#include "common/types.hh"

namespace morph
{

namespace
{

/** Store @p text's value into @p setup and return nullptr, or leave
 *  @p setup alone and say what is wrong with the value. */
using Setter = const char *(*)(SimSetup &setup, const char *text);

struct Setting
{
    const char *key;
    const char *flag; ///< morphsim flag of the same syntax, or nullptr
    Setter apply;
};

constexpr std::uint64_t noLimit = ~std::uint64_t(0);

/** An integer in [@p lo, @p hi] into @p out, else @p why. */
template <typename T>
const char *
setCount(T &out, const char *text, std::uint64_t lo, std::uint64_t hi,
         const char *why)
{
    const std::optional<std::uint64_t> v = parseCount(text);
    if (!v || *v < lo || *v > hi)
        return why;
    out = T(*v);
    return nullptr;
}

const char *
setBool(bool &out, const char *text)
{
    const std::optional<bool> v = parseBool(text);
    if (!v)
        return "needs true/false, yes/no, on/off or 1/0";
    out = *v;
    return nullptr;
}

const Setting settings[] = {
    {"system.workload", nullptr,
     [](SimSetup &s, const char *text) -> const char * {
         if (!knownWorkload(text))
             return "is not a workload or mix (see morphsim --list)";
         s.workload = text;
         return nullptr;
     }},
    {"system.trace", nullptr,
     [](SimSetup &s, const char *text) -> const char * {
         s.tracePath = text;
         return nullptr;
     }},
    {"system.config", nullptr,
     [](SimSetup &s, const char *text) -> const char * {
         if (!treeConfigByName(text))
             return "is not a tree config (see morphsim --help)";
         s.configName = text;
         return nullptr;
     }},
    {"system.mem_gb", "--mem-gb",
     [](SimSetup &s, const char *text) -> const char * {
         const std::optional<double> gb = parseReal(text);
         if (!gb || *gb <= 0.0)
             return "needs a positive number";
         // Converting a double of 2^64 or more to an integer is
         // undefined, so the byte count must fit first.
         if (*gb >= double(noLimit >> 30))
             return "is out of range";
         const auto bytes = std::uint64_t(*gb * double(1ull << 30));
         if (bytes == 0 || bytes % lineBytes != 0)
             return "is not a whole number of 64-byte lines";
         s.secmem.memBytes = bytes;
         return nullptr;
     }},
    {"system.cache_kb", "--cache-kb",
     [](SimSetup &s, const char *text) -> const char * {
         std::size_t kb = 0;
         if (const char *why =
                 setCount(kb, text, 1, ~std::size_t(0) / 1024,
                          "needs a whole number of KB, at least 1"))
             return why;
         s.secmem.metadataCacheBytes = kb * 1024;
         return nullptr;
     }},
    {"system.accesses", "--accesses",
     [](SimSetup &s, const char *text) {
         return setCount(s.options.accessesPerCore, text, 1, noLimit,
                         "needs an integer >= 1");
     }},
    {"system.warmup", "--warmup",
     [](SimSetup &s, const char *text) {
         return setCount(s.options.warmupPerCore, text, 0, noLimit,
                         "needs a non-negative integer");
     }},
    {"system.scale", "--scale",
     [](SimSetup &s, const char *text) -> const char * {
         const std::optional<double> v = parseReal(text);
         if (!v || *v < 1.0)
             return "needs a number >= 1";
         s.options.footprintScale = *v;
         return nullptr;
     }},
    {"system.seed", "--seed",
     [](SimSetup &s, const char *text) {
         return setCount(s.options.seed, text, 0, noLimit,
                         "needs a non-negative integer");
     }},
    {"system.timing", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.options.timing, text);
     }},
    {"controller.separate_macs", nullptr,
     [](SimSetup &s, const char *text) -> const char * {
         bool separate = false;
         if (const char *why = setBool(separate, text))
             return why;
         s.secmem.inlineMacs = !separate;
         return nullptr;
     }},
    {"controller.spec_verify", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.secmem.speculativeVerification, text);
     }},
    {"controller.ctr_prefetch", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.secmem.counterPrefetch, text);
     }},
    {"controller.demote_enc", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.secmem.demoteEncCounters, text);
     }},
    {"persist.mode", "--persist",
     [](SimSetup &s, const char *text) -> const char * {
         const std::string mode = text;
         PersistConfig &persist = s.secmem.persist;
         if (mode == "off") {
             persist.enabled = false;
         } else if (mode == "strict" || mode == "lazy") {
             persist.enabled = true;
             persist.policy = mode == "strict" ? PersistPolicy::Strict
                                               : PersistPolicy::Lazy;
         } else {
             return "needs strict, lazy or off";
         }
         return nullptr;
     }},
    {"persist.epoch_writes", "--persist-epoch",
     [](SimSetup &s, const char *text) {
         return setCount(s.secmem.persist.epochWrites, text, 1, noLimit,
                         "needs an integer >= 1");
     }},
    {"dram.refresh", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.options.dram.refresh, text);
     }},
    {"dram.write_queueing", nullptr,
     [](SimSetup &s, const char *text) {
         return setBool(s.options.dram.writeQueueing, text);
     }},
    {"dram.channels", nullptr,
     [](SimSetup &s, const char *text) {
         return setCount(s.options.dram.channels, text, 1, 16,
                         "needs an integer from 1 to 16");
     }},
    {"dram.ranks", nullptr,
     [](SimSetup &s, const char *text) {
         return setCount(s.options.dram.ranksPerChannel, text, 1, 16,
                         "needs an integer from 1 to 16");
     }},
};

struct NamedTree
{
    const char *name;
    TreeConfig (*make)();
};

const NamedTree namedTrees[] = {
    {"sc64", TreeConfig::sc64},   {"vault", TreeConfig::vault},
    {"morph", TreeConfig::morph}, {"morph-zcc", TreeConfig::morphZccOnly},
    {"sc128", TreeConfig::sc128}, {"sgx", TreeConfig::sgx},
    {"bmt", TreeConfig::bonsaiMacTree},
};

} // namespace

std::optional<std::string>
applySetting(SimSetup &setup, const std::string &key,
             const std::string &text)
{
    for (const Setting &setting : settings) {
        if (key != setting.key)
            continue;
        const char *why = setting.apply(setup, text.c_str());
        if (why == nullptr)
            return std::nullopt;
        return key + " " + why + " (got '" + text + "')";
    }
    return "unknown key '" + key + "'";
}

std::vector<std::string>
applySettings(SimSetup &setup, const IniFile &ini,
              const std::string &foreign_prefix)
{
    std::vector<std::string> reasons;
    for (const auto &[key, text] : ini.entries()) {
        if (!foreign_prefix.empty() && key.starts_with(foreign_prefix))
            continue;
        if (auto why = applySetting(setup, key, text))
            reasons.push_back(*why);
    }
    const auto accesses =
        parseCount(ini.getString("system.accesses").c_str());
    const auto warmup = parseCount(ini.getString("system.warmup").c_str());
    if (accesses && warmup && *warmup > *accesses)
        reasons.push_back("system.warmup exceeds system.accesses (" +
                          std::to_string(*warmup) + " > " +
                          std::to_string(*accesses) + ")");
    return reasons;
}

const char *
settingForFlag(const std::string &flag)
{
    for (const Setting &setting : settings)
        if (setting.flag != nullptr && flag == setting.flag)
            return setting.key;
    return nullptr;
}

const std::vector<std::string> &
treeConfigNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all;
        for (const NamedTree &tree : namedTrees)
            all.push_back(tree.name);
        return all;
    }();
    return names;
}

std::optional<TreeConfig>
treeConfigByName(const std::string &name)
{
    for (const NamedTree &tree : namedTrees)
        if (name == tree.name)
            return tree.make();
    return std::nullopt;
}

bool
knownWorkload(const std::string &name)
{
    if (findWorkload(name))
        return true;
    for (const MixSpec &mix : mixTable())
        if (mix.name == name)
            return true;
    return false;
}

} // namespace morph
