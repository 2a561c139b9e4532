/**
 * @file
 * The simulator's settings schema: every key a morphsim INI file may
 * carry, the flag that sets the same value, what each value means and
 * the range it must lie in (the table in docs/SIMULATOR.md).
 *
 * applySetting() is the one place a setting is parsed, range-checked
 * and recognised as known; morphsim's INI loader and value flags and
 * morphlint's config rule all go through it, so a value either tool
 * accepts is one the simulator can run.
 */

#ifndef MORPH_SIM_SIM_SETTINGS_HH
#define MORPH_SIM_SIM_SETTINGS_HH

#include <optional>
#include <string>
#include <vector>

#include "common/ini.hh"
#include "sim/simulator.hh"

namespace morph
{

/** Everything one simulator run is configured by. */
struct SimSetup
{
    std::string workload;              ///< workload or mix; "" = none
    std::string tracePath;             ///< trace file; "" = none
    std::string configName = "morph";  ///< see treeConfigByName
    SecureModelConfig secmem;          ///< tree set from configName
    SimOptions options;
};

/**
 * Apply setting @p key ("section.name") with value @p text to
 * @p setup. Returns nullopt on success; otherwise @p setup is
 * unchanged and the result says what is wrong, naming the key.
 */
std::optional<std::string> applySetting(SimSetup &setup,
                                        const std::string &key,
                                        const std::string &text);

/**
 * Apply every assignment of @p ini in file order, skipping keys that
 * start with @p foreign_prefix (sections another reader owns). Also
 * checks system.warmup <= system.accesses when the file sets both.
 * Returns one reason per bad assignment; empty when all hold.
 */
std::vector<std::string> applySettings(SimSetup &setup,
                                       const IniFile &ini,
                                       const std::string &foreign_prefix =
                                           "");

/** The INI key morphsim flag @p flag sets through applySetting, or
 *  nullptr if the flag has its own syntax (or none). */
const char *settingForFlag(const std::string &flag);

/** The named tree configurations, in the order "--sweep all" runs
 *  them. */
const std::vector<std::string> &treeConfigNames();

/** Tree configuration @p name ("sc64", "morph", ...); nullopt if
 *  unknown. */
std::optional<TreeConfig> treeConfigByName(const std::string &name);

/** True if @p name is a Table-II workload or a mix. */
bool knownWorkload(const std::string &name);

} // namespace morph

#endif // MORPH_SIM_SIM_SETTINGS_HH
