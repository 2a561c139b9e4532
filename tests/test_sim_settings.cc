/**
 * @file
 * Tests for the simulator settings schema (sim/sim_settings.hh): every
 * shipped config loads with the fields it states, every bad value is
 * refused with exactly one reason naming its key, and the flag and
 * tree-config tables resolve.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>

#include "sim/sim_settings.hh"

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

/** Load configs/<name>.ini into a default setup; no reason allowed. */
SimSetup
loadShipped(const std::string &name)
{
    const std::string path =
        std::string(MORPH_SOURCE_DIR) + "/configs/" + name + ".ini";
    std::string error;
    const std::optional<IniFile> ini = IniFile::fromFile(path, error);
    EXPECT_TRUE(ini.has_value()) << error;
    SimSetup setup;
    if (ini)
        for (const std::string &why : applySettings(setup, *ini))
            ADD_FAILURE() << path << ": " << why;
    return setup;
}

TEST(SimSettings, EveryShippedConfigLoads)
{
    unsigned count = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(MORPH_SOURCE_DIR) + "/configs")) {
        if (entry.path().extension() != ".ini")
            continue;
        ++count;
        const SimSetup setup = loadShipped(entry.path().stem());
        EXPECT_TRUE(knownWorkload(setup.workload)) << entry.path();
        EXPECT_TRUE(treeConfigByName(setup.configName)) << entry.path();
    }
    EXPECT_GE(count, 5u);
}

TEST(SimSettings, ShippedConfigFields)
{
    const SimSetup morph = loadShipped("morph-16gb");
    EXPECT_EQ(morph.workload, "mcf");
    EXPECT_EQ(morph.configName, "morph");
    EXPECT_EQ(morph.secmem.memBytes, 16ull << 30);
    EXPECT_EQ(morph.secmem.metadataCacheBytes, 128u * 1024);
    EXPECT_EQ(morph.options.accessesPerCore, 150000u);
    EXPECT_EQ(morph.options.warmupPerCore, 75000u);
    EXPECT_TRUE(morph.options.timing);
    EXPECT_TRUE(morph.secmem.inlineMacs);
    EXPECT_FALSE(morph.secmem.persist.enabled);

    const SimSetup lazy = loadShipped("morph-nvm-lazy");
    EXPECT_TRUE(lazy.secmem.persist.enabled);
    EXPECT_EQ(lazy.secmem.persist.policy, PersistPolicy::Lazy);
    EXPECT_EQ(lazy.secmem.persist.epochWrites, 4096u);

    const SimSetup strict = loadShipped("morph-nvm-strict");
    EXPECT_TRUE(strict.secmem.persist.enabled);
    EXPECT_EQ(strict.secmem.persist.policy, PersistPolicy::Strict);

    const SimSetup sc64 = loadShipped("sc64-realistic-dram");
    EXPECT_EQ(sc64.workload, "lbm");
    EXPECT_EQ(sc64.configName, "sc64");
    EXPECT_TRUE(sc64.options.dram.refresh);
    EXPECT_TRUE(sc64.options.dram.writeQueueing);
    EXPECT_EQ(sc64.options.dram.channels, 2u);
    EXPECT_EQ(sc64.options.dram.ranksPerChannel, 2u);

    const SimSetup vault = loadShipped("vault-small-cache");
    EXPECT_EQ(vault.workload, "omnetpp");
    EXPECT_EQ(vault.configName, "vault");
    EXPECT_EQ(vault.secmem.metadataCacheBytes, 64u * 1024);
    EXPECT_EQ(vault.options.accessesPerCore, 100000u);
    EXPECT_EQ(vault.options.warmupPerCore, 50000u);
    EXPECT_TRUE(vault.secmem.demoteEncCounters);
    EXPECT_FALSE(vault.secmem.speculativeVerification);
    EXPECT_FALSE(vault.secmem.counterPrefetch);
}

TEST(SimSettings, EveryKeyApplies)
{
    SimSetup s;
    const IniFile ini = parse("[system]\n"
                              "workload = mix2\n"
                              "trace = t.trc\n"
                              "config = bmt\n"
                              "mem_gb = 0.5\n"
                              "cache_kb = 1\n"
                              "accesses = 7\n"
                              "warmup = 7\n"
                              "scale = 2.5\n"
                              "seed = 0\n"
                              "timing = off\n"
                              "[controller]\n"
                              "separate_macs = yes\n"
                              "spec_verify = 1\n"
                              "ctr_prefetch = TRUE\n"
                              "demote_enc = on\n"
                              "[persist]\n"
                              "mode = lazy\n"
                              "epoch_writes = 1\n"
                              "[dram]\n"
                              "refresh = true\n"
                              "write_queueing = true\n"
                              "channels = 16\n"
                              "ranks = 1\n");
    EXPECT_TRUE(applySettings(s, ini).empty());
    EXPECT_EQ(s.workload, "mix2");
    EXPECT_EQ(s.tracePath, "t.trc");
    EXPECT_EQ(s.configName, "bmt");
    EXPECT_EQ(s.secmem.memBytes, 1ull << 29);
    EXPECT_EQ(s.secmem.metadataCacheBytes, 1024u);
    EXPECT_EQ(s.options.accessesPerCore, 7u);
    EXPECT_EQ(s.options.warmupPerCore, 7u);
    EXPECT_EQ(s.options.footprintScale, 2.5);
    EXPECT_EQ(s.options.seed, 0u);
    EXPECT_FALSE(s.options.timing);
    EXPECT_FALSE(s.secmem.inlineMacs);
    EXPECT_TRUE(s.secmem.speculativeVerification);
    EXPECT_TRUE(s.secmem.counterPrefetch);
    EXPECT_TRUE(s.secmem.demoteEncCounters);
    EXPECT_TRUE(s.secmem.persist.enabled);
    EXPECT_EQ(s.secmem.persist.policy, PersistPolicy::Lazy);
    EXPECT_EQ(s.secmem.persist.epochWrites, 1u);
    EXPECT_TRUE(s.options.dram.refresh);
    EXPECT_TRUE(s.options.dram.writeQueueing);
    EXPECT_EQ(s.options.dram.channels, 16u);
    EXPECT_EQ(s.options.dram.ranksPerChannel, 1u);

    ASSERT_FALSE(applySetting(s, "persist.mode", "off"));
    EXPECT_FALSE(s.secmem.persist.enabled);
}

TEST(SimSettings, RejectsBadValues)
{
    const struct
    {
        const char *key;
        const char *text;
    } cases[] = {
        {"system.workload", "nope"},
        {"system.config", "sc65"},
        {"system.mem_gb", "-1"},
        {"system.mem_gb", "0"},
        {"system.mem_gb", "nan"},
        {"system.mem_gb", "16x"},
        {"system.mem_gb", "1e30"},
        {"system.mem_gb", "1e-12"},
        {"system.cache_kb", "-1"},
        {"system.cache_kb", "abc"},
        {"system.cache_kb", "0"},
        {"system.cache_kb", "18446744073709551615"},
        {"system.accesses", "-5"},
        {"system.accesses", "0"},
        {"system.accesses", "20M"},
        {"system.warmup", "-1"},
        {"system.warmup", "3x"},
        {"system.scale", "nan"},
        {"system.scale", "0.5"},
        {"system.scale", "2x"},
        {"system.seed", "-3"},
        {"system.timing", "maybe"},
        {"controller.separate_macs", "2"},
        {"controller.spec_verify", "x"},
        {"controller.ctr_prefetch", ""},
        {"controller.demote_enc", "enabled"},
        {"persist.mode", "eager"},
        {"persist.epoch_writes", "0"},
        {"dram.refresh", "maybe"},
        {"dram.write_queueing", "2"},
        {"dram.channels", "0"},
        {"dram.channels", "17"},
        {"dram.ranks", "99"},
        {"system.cache_k", "128"},
        {"lint.zcc.buckets", "16:16"},
    };
    for (const auto &c : cases) {
        const std::string key = c.key;
        const std::string dot = key.substr(0, key.find('.'));
        const std::string text = "[" + dot + "]\n" +
                                 key.substr(dot.size() + 1) + " = " +
                                 c.text + "\n";
        SimSetup setup;
        const std::vector<std::string> reasons =
            applySettings(setup, parse(text));
        ASSERT_EQ(reasons.size(), 1u) << key << " = " << c.text;
        EXPECT_NE(reasons[0].find(key), std::string::npos)
            << reasons[0];

        // A refused value leaves the setup as it was.
        SimSetup fresh;
        EXPECT_TRUE(applySetting(fresh, key, c.text).has_value());
        EXPECT_EQ(fresh.options.accessesPerCore,
                  SimOptions().accessesPerCore);
        EXPECT_EQ(fresh.secmem.memBytes, SecureModelConfig().memBytes);
        EXPECT_EQ(fresh.configName, "morph");
    }
}

TEST(SimSettings, WarmupMustNotExceedAccessesInOneFile)
{
    SimSetup setup;
    const std::vector<std::string> reasons = applySettings(
        setup, parse("[system]\naccesses = 10\nwarmup = 20\n"));
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_NE(reasons[0].find("system.warmup"), std::string::npos);

    // Each key alone is fine: the paper warms up longer than it
    // measures, and flags set one value at a time.
    EXPECT_TRUE(applySettings(setup, parse("[system]\nwarmup = 20\n"))
                    .empty());
    EXPECT_FALSE(applySetting(setup, "system.accesses", "10"));
}

TEST(SimSettings, ForeignSectionsAreSkipped)
{
    SimSetup setup;
    const IniFile ini = parse("[lint.zcc]\nbuckets = 16:16\n"
                              "[system]\nseed = 9\n");
    EXPECT_TRUE(applySettings(setup, ini, "lint.").empty());
    EXPECT_EQ(setup.options.seed, 9u);
    EXPECT_EQ(applySettings(setup, ini).size(), 1u);
}

TEST(SimSettings, ValueFlagsMapToKeys)
{
    EXPECT_STREQ(settingForFlag("--mem-gb"), "system.mem_gb");
    EXPECT_STREQ(settingForFlag("--cache-kb"), "system.cache_kb");
    EXPECT_STREQ(settingForFlag("--accesses"), "system.accesses");
    EXPECT_STREQ(settingForFlag("--warmup"), "system.warmup");
    EXPECT_STREQ(settingForFlag("--scale"), "system.scale");
    EXPECT_STREQ(settingForFlag("--seed"), "system.seed");
    EXPECT_STREQ(settingForFlag("--persist"), "persist.mode");
    EXPECT_STREQ(settingForFlag("--persist-epoch"),
                 "persist.epoch_writes");
    // Their own syntax: a 0/1 count, switches, deferred name checks.
    for (const char *flag : {"--timing", "--separate-macs", "--workload",
                             "--config", "--trace", "--bogus"})
        EXPECT_EQ(settingForFlag(flag), nullptr) << flag;
}

TEST(SimSettings, TreeConfigNamesResolve)
{
    const std::vector<std::string> &names = treeConfigNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "sc64");
    std::set<std::string> trees;
    for (const std::string &name : names) {
        const std::optional<TreeConfig> tree = treeConfigByName(name);
        ASSERT_TRUE(tree) << name;
        trees.insert(tree->name);
    }
    EXPECT_EQ(trees.size(), names.size());
    EXPECT_FALSE(treeConfigByName("nope"));
    EXPECT_TRUE(knownWorkload("mcf"));
    EXPECT_TRUE(knownWorkload("mix2"));
    EXPECT_FALSE(knownWorkload("nope"));
}

TEST(SimOptionsDeathTest, EnvOverridesFailLoudly)
{
    EXPECT_EXIT(
        {
            setenv("MORPH_SIM_ACCESSES", "20M", 1);
            SimOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "MORPH_SIM_ACCESSES");
    EXPECT_EXIT(
        {
            setenv("MORPH_SIM_ACCESSES", "0", 1);
            SimOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "MORPH_SIM_ACCESSES");
    EXPECT_EXIT(
        {
            setenv("MORPH_SIM_WARMUP", "-5", 1);
            SimOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "MORPH_SIM_WARMUP");
}

TEST(SimOptions, EnvOverridesApply)
{
    setenv("MORPH_SIM_ACCESSES", "1234", 1);
    setenv("MORPH_SIM_WARMUP", "0", 1);
    const SimOptions options = SimOptions::fromEnv();
    unsetenv("MORPH_SIM_ACCESSES");
    unsetenv("MORPH_SIM_WARMUP");
    EXPECT_EQ(options.accessesPerCore, 1234u);
    EXPECT_EQ(options.warmupPerCore, 0u);
}

} // namespace
} // namespace morph
