/**
 * @file
 * morphsim — command-line secure-memory simulator.
 *
 * Runs any named workload (or mix, or user trace file) against any
 * counter/tree configuration and prints the full statistics report:
 * IPC, traffic by category, overflow/rebase counts, metadata-cache
 * behaviour, DRAM activity, latency percentiles and energy. The same
 * run can export machine-readable telemetry (morphscope): a JSON/CSV
 * stats document, an epoch time series, and a Chrome trace of sampled
 * request lifecycles (see docs/OBSERVABILITY.md).
 *
 * --sweep runs one workload against a comma-separated list of
 * configurations (or "all") as independent parallel runs on a
 * RunPool (--jobs N). Each run owns its MorphScope/StatRegistry and
 * derives its RNG seed from the (workload, config) key via
 * sweepSeed(), so report text and exports are byte-identical at any
 * --jobs level; exports gain a ".<config>" suffix per run.
 *
 * Examples:
 *   morphsim --workload mcf --config morph
 *   morphsim --workload mix2 --config vault --cache-kb 64 --timing 0
 *   morphsim --trace my.trc --config sc64 --accesses 500000
 *   morphsim --workload mcf --epoch 50000 --stats-json out.json \
 *            --trace-out trace.json
 *   morphsim --workload mcf --sweep sc64,vault,morph --jobs 4
 *   morphsim --list
 *
 * Exit codes: 0 success, 2 bad command line, 3 bad configuration
 * (unknown workload/config, unreadable file, unknown INI key),
 * 4 runtime failure (export I/O, internal error).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/ini.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "flag_parse.hh"
#include "sim/simulator.hh"

namespace
{

using namespace morph;

/** Exit codes (documented in docs/SIMULATOR.md). */
constexpr int exitBadFlag = 2;
constexpr int exitBadConfig = 3;
constexpr int exitRuntime = 4;

void
usage()
{
    std::printf(
        "usage: morphsim [options]\n"
        "  --workload NAME     Table-II workload or mix (see --list)\n"
        "  --config-file FILE  read options from an INI file\n"
        "  --trace FILE        replay a trace file on every core\n"
        "  --config NAME       sc64 | vault | morph | morph-zcc |\n"
        "                      sc128 | sgx | bmt  (default: morph)\n"
        "  --mem-gb N          protected capacity (default 16)\n"
        "  --cache-kb N        metadata cache size (default 128)\n"
        "  --accesses N        measured accesses per core\n"
        "  --warmup N          warm-up accesses per core\n"
        "  --scale F           footprint divisor (default 1)\n"
        "  --seed N            trace RNG seed\n"
        "  --timing 0|1        cycle timing on/off (default 1)\n"
        "  --separate-macs     model separate MAC storage\n"
        "  --persist MODE      NVM persistence model: strict | lazy |\n"
        "                      off (default off); see SIMULATOR.md\n"
        "  --persist-epoch N   lazy mode: data writes per epoch\n"
        "                      barrier (default 4096)\n"
        "  --spec-verify       speculative verification\n"
        "  --ctr-prefetch      next-entry counter prefetch\n"
        "  --demote-enc        type-aware cache insertion\n"
        "  --occupancy         report per-level cache occupancy\n"
        "  --epoch N           sample a stats epoch every N measured\n"
        "                      accesses per core (0 = off)\n"
        "  --stats-json FILE   write the stats document as JSON\n"
        "  --stats-csv FILE    write totals (or epoch series) as CSV\n"
        "  --trace-out FILE    write a Chrome trace of sampled\n"
        "                      request lifecycles\n"
        "  --trace-sample N    trace 1-in-N data accesses\n"
        "                      (default 64; 1 = every access)\n"
        "  --prof-out FILE     write a morphprof self-profile (JSON\n"
        "                      and FILE.collapsed);\n"
        "                      MORPH_PROF=1 for a stderr summary\n"
        "  --sweep LIST        run the workload against a comma-\n"
        "                      separated config list (or 'all') as\n"
        "                      independent parallel runs\n"
        "  --jobs N            worker threads for --sweep (default:\n"
        "                      hardware concurrency)\n"
        "  --list              list workloads and exit\n");
}

/** Resolve a tree config name; false (no change) if unknown. */
bool
configByName(const std::string &name, TreeConfig &out)
{
    if (name == "sc64")
        out = TreeConfig::sc64();
    else if (name == "vault")
        out = TreeConfig::vault();
    else if (name == "morph")
        out = TreeConfig::morph();
    else if (name == "morph-zcc")
        out = TreeConfig::morphZccOnly();
    else if (name == "sc128")
        out = TreeConfig::sc128();
    else if (name == "sgx")
        out = TreeConfig::sgx();
    else if (name == "bmt")
        out = TreeConfig::bonsaiMacTree();
    else
        return false;
    return true;
}

/** Resolve a persistence mode name; false if unknown. */
bool
persistByName(const std::string &mode, PersistConfig &out)
{
    if (mode == "off") {
        out.enabled = false;
    } else if (mode == "strict") {
        out.enabled = true;
        out.policy = PersistPolicy::Strict;
    } else if (mode == "lazy") {
        out.enabled = true;
        out.policy = PersistPolicy::Lazy;
    } else {
        return false;
    }
    return true;
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

bool
readableFile(const std::string &path)
{
    return bool(std::ifstream(path));
}

void
listWorkloads()
{
    std::printf("%-12s %-6s %8s %8s %10s  %s\n", "name", "suite",
                "rdPKI", "wrPKI", "footprint", "pattern");
    for (const auto &spec : workloadTable()) {
        const char *pattern =
            spec.pattern == Pattern::Streaming  ? "streaming"
            : spec.pattern == Pattern::Random   ? "random"
            : spec.pattern == Pattern::HotCold  ? "hot-cold"
                                                : "mixed";
        std::printf("%-12s %-6s %8.1f %8.1f %7.1f GB  %s\n",
                    spec.name.c_str(), spec.suite.c_str(), spec.readPki,
                    spec.writePki, spec.footprintGb, pattern);
    }
    for (const auto &mix : mixTable()) {
        std::printf("%-12s %-6s  {%s, %s, %s, %s}\n", mix.name.c_str(),
                    "MIX", mix.parts[0].c_str(), mix.parts[1].c_str(),
                    mix.parts[2].c_str(), mix.parts[3].c_str());
    }
}

/**
 * Check a real-valued setting given by a flag (--scale, --mem-gb) or
 * an INI key (system.scale, system.mem_gb): @p text must be a whole,
 * finite, non-negative number (parseReal), and a capacity in GiB
 * (@p gib) must have a byte count that fits in 64 bits, because
 * converting a larger double to an integer is undefined. Returns
 * nullptr and stores the value in @p out, or says what is wrong.
 */
const char *
checkRealSetting(const char *text, bool gib, double &out)
{
    const std::optional<double> v = parseReal(text);
    if (!v || *v < 0.0)
        return "needs a non-negative number";
    if (gib && *v >= double(~std::uint64_t(0) >> 30))
        return "is out of range";
    out = *v;
    return nullptr;
}

/** Bytes in @p gb GiB (checked by checkRealSetting). */
std::uint64_t
gibToBytes(double gb)
{
    return std::uint64_t(gb * double(1ull << 30));
}

/** Real INI key @p key through checkRealSetting, nullopt if absent;
 *  exits with exitBadConfig on a bad value. */
std::optional<double>
realKey(const IniFile &ini, const std::string &path, const char *key,
        bool gib = false)
{
    if (!ini.has(key))
        return std::nullopt;
    double v = 0.0;
    const std::string text = ini.getString(key);
    if (const char *why = checkRealSetting(text.c_str(), gib, v)) {
        std::fprintf(stderr, "morphsim: config %s: %s %s (got '%s')\n",
                     path.c_str(), key, why, text.c_str());
        std::exit(exitBadConfig);
    }
    return v;
}

/** Apply an INI config file onto the option structs; exits with
 *  exitBadConfig on unreadable files, unknown keys and bad values. */
void
applyConfigFile(const std::string &path, std::string &workload,
                std::string &trace_path, std::string &config_name,
                SecureModelConfig &secmem, SimOptions &options)
{
    if (!readableFile(path)) {
        std::fprintf(stderr, "morphsim: cannot read config file %s\n",
                     path.c_str());
        std::exit(exitBadConfig);
    }
    const IniFile ini = IniFile::fromFile(path);

    static const char *known[] = {
        "system.workload", "system.trace", "system.config",
        "system.mem_gb", "system.cache_kb", "system.accesses",
        "system.warmup", "system.scale", "system.seed",
        "system.timing", "controller.separate_macs",
        "controller.spec_verify", "controller.ctr_prefetch",
        "controller.demote_enc", "persist.mode",
        "persist.epoch_writes", "dram.refresh",
        "dram.write_queueing", "dram.channels", "dram.ranks",
    };
    for (const std::string &key : ini.keys()) {
        bool ok = false;
        for (const char *candidate : known)
            ok = ok || key == candidate;
        if (!ok) {
            std::fprintf(stderr,
                         "morphsim: config %s: unknown key '%s'\n",
                         path.c_str(), key.c_str());
            std::exit(exitBadConfig);
        }
    }

    workload = ini.getString("system.workload", workload);
    trace_path = ini.getString("system.trace", trace_path);
    config_name = ini.getString("system.config", config_name);
    if (const auto gb = realKey(ini, path, "system.mem_gb", true))
        secmem.memBytes = gibToBytes(*gb);
    secmem.metadataCacheBytes = std::size_t(
        ini.getInt("system.cache_kb",
                   std::int64_t(secmem.metadataCacheBytes / 1024)) *
        1024);
    options.accessesPerCore = std::uint64_t(ini.getInt(
        "system.accesses", std::int64_t(options.accessesPerCore)));
    options.warmupPerCore = std::uint64_t(ini.getInt(
        "system.warmup", std::int64_t(options.warmupPerCore)));
    if (const auto scale = realKey(ini, path, "system.scale"))
        options.footprintScale = *scale;
    options.seed = std::uint64_t(
        ini.getInt("system.seed", std::int64_t(options.seed)));
    options.timing = ini.getBool("system.timing", options.timing);
    secmem.inlineMacs =
        !ini.getBool("controller.separate_macs", !secmem.inlineMacs);
    secmem.speculativeVerification =
        ini.getBool("controller.spec_verify",
                    secmem.speculativeVerification);
    secmem.counterPrefetch =
        ini.getBool("controller.ctr_prefetch", secmem.counterPrefetch);
    secmem.demoteEncCounters =
        ini.getBool("controller.demote_enc", secmem.demoteEncCounters);
    const std::string persist_mode =
        ini.getString("persist.mode", std::string());
    if (!persist_mode.empty() &&
        !persistByName(persist_mode, secmem.persist)) {
        std::fprintf(stderr,
                     "morphsim: config %s: persist.mode must be "
                     "strict, lazy or off (got '%s')\n",
                     path.c_str(), persist_mode.c_str());
        std::exit(exitBadConfig);
    }
    const std::int64_t epoch_writes =
        ini.getInt("persist.epoch_writes",
                   std::int64_t(secmem.persist.epochWrites));
    if (epoch_writes < 1) {
        std::fprintf(stderr,
                     "morphsim: config %s: persist.epoch_writes must "
                     "be >= 1\n",
                     path.c_str());
        std::exit(exitBadConfig);
    }
    secmem.persist.epochWrites = std::uint64_t(epoch_writes);
    options.dram.refresh =
        ini.getBool("dram.refresh", options.dram.refresh);
    options.dram.writeQueueing =
        ini.getBool("dram.write_queueing", options.dram.writeQueueing);
    options.dram.channels = unsigned(
        ini.getInt("dram.channels", options.dram.channels));
    options.dram.ranksPerChannel =
        unsigned(ini.getInt("dram.ranks", options.dram.ranksPerChannel));
}

[[noreturn]] void
badFlag(const char *fmt, const char *detail)
{
    std::fprintf(stderr, "morphsim: ");
    std::fprintf(stderr, fmt, detail);
    std::fprintf(stderr, " (--help for usage)\n");
    std::exit(exitBadFlag);
}

/** Parse a non-negative integer option value; exits with code 2 on
 *  junk or negative input (see flag_parse.hh). */
std::uint64_t
countFlag(const std::string &arg, const char *text)
{
    const std::optional<std::uint64_t> v = parseCount(text);
    if (!v)
        badFlag("option %s needs a non-negative integer",
                arg.c_str());
    return *v;
}

/** Real option value through checkRealSetting; exits with code 2 on
 *  junk, nan, infinite, negative or (@p gib) oversized input. */
double
realFlag(const std::string &arg, const char *text, bool gib = false)
{
    double v = 0.0;
    if (const char *why = checkRealSetting(text, gib, v))
        badFlag(("option %s " + std::string(why)).c_str(), arg.c_str());
    return v;
}

/** Expand a --sweep list ("all" or comma-separated names) into
 *  config names; exits with code 3 on an unknown name. */
std::vector<std::string>
sweepConfigs(const std::string &list)
{
    static const char *all[] = {"sc64",   "vault", "morph", "morph-zcc",
                                "sc128",  "sgx",   "bmt"};
    std::vector<std::string> names;
    if (list == "all") {
        names.assign(std::begin(all), std::end(all));
        return names;
    }
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            names.push_back(item);
    if (names.empty()) {
        std::fprintf(stderr, "morphsim: --sweep needs a config list\n");
        std::exit(exitBadFlag);
    }
    for (const std::string &name : names) {
        TreeConfig probe;
        if (!configByName(name, probe)) {
            std::fprintf(stderr,
                         "morphsim: unknown config '%s' in --sweep\n",
                         name.c_str());
            std::exit(exitBadConfig);
        }
    }
    return names;
}

/** Everything one parallel sweep run produces, collected on the
 *  worker and emitted in config-list order by the driver. */
struct SweepRun
{
    std::string report;     ///< header + dumpText output
    std::string writeError; ///< first failed export path, if any
};

/** Run one workload against several configs as independent parallel
 *  runs. Per-run MorphScope/StatRegistry instances, seeds derived
 *  from the (workload, config) key, output flushed in list order:
 *  byte-identical at any --jobs level. */
int
runSweep(const std::vector<std::string> &configs,
         const std::string &workload, const std::string &trace_path,
         const SecureModelConfig &base_secmem,
         const SimOptions &base_options,
         const ScopeConfig &scope_config,
         const std::string &stats_json_path,
         const std::string &stats_csv_path, unsigned jobs)
{
    const std::string key_base =
        trace_path.empty() ? workload : trace_path;
    SweepEngine engine(jobs);
    std::vector<SweepRun> runs;
    try {
        MORPH_PROF_SCOPE("morphsim.sweep");
        runs = engine.map<SweepRun>(
            configs.size(), [&](std::size_t i) {
                const std::string &name = configs[i];
                SecureModelConfig secmem = base_secmem;
                configByName(name, secmem.tree);
                SimOptions options = base_options;
                options.seed =
                    sweepSeed(key_base + "/" + name, base_options.seed);

                MorphScope scope(scope_config);
                const SimResult result =
                    trace_path.empty()
                        ? runByName(workload, secmem, options, &scope)
                        : runTraceFile(trace_path, secmem, options,
                                       &scope);

                SweepRun run;
                std::ostringstream text;
                text << "# " << result.configName << " on "
                     << result.workload << "\n";
                scope.dumpText(text, "morphsim");
                run.report = text.str();

                if (!stats_json_path.empty()) {
                    const std::string path =
                        stats_json_path + "." + name;
                    if (!scope.writeStatsJson(path))
                        run.writeError = path;
                }
                if (!stats_csv_path.empty() &&
                    run.writeError.empty()) {
                    const std::string path =
                        stats_csv_path + "." + name;
                    if (!scope.writeStatsCsv(path))
                        run.writeError = path;
                }
                return run;
            });
    } catch (const std::exception &e) {
        std::fprintf(stderr, "morphsim: sweep failed: %s\n", e.what());
        return exitRuntime;
    }
    if (profEnabled())
        std::fprintf(stderr, "morphsim: sweep %s\n",
                     engine.utilization().c_str());

    for (const SweepRun &run : runs)
        std::fputs(run.report.c_str(), stdout);
    std::fflush(stdout);
    for (const SweepRun &run : runs) {
        if (!run.writeError.empty()) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         run.writeError.c_str());
            return exitRuntime;
        }
    }
    return 0;
}

/**
 * Finalize self-profiling: merge and freeze the profile, stamp run
 * metadata, optionally merge it into the Chrome trace (before the
 * driver writes it), export the --prof-out file set and print the
 * stderr summary. Returns false on an export I/O failure.
 */
bool
finishProfile(const std::string &prof_out, bool prof_stderr,
              const std::string &workload_key,
              const std::string &config_name, TraceLog *trace)
{
    ProfReport report = profReport();
    report.meta.set("tool", "morphsim");
    report.meta.set("workload", workload_key);
    report.meta.set("config", config_name);
    if (trace != nullptr)
        report.mergeIntoTrace(*trace);
    if (!prof_out.empty()) {
        std::string failed;
        if (!profWriteFiles(report, prof_out, failed)) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         failed.c_str());
            return false;
        }
    }
    if (prof_stderr) {
        std::ostringstream text;
        report.dumpText(text);
        std::fputs(text.str().c_str(), stderr);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string trace_path;
    std::string config_name = "morph";
    std::string stats_json_path;
    std::string stats_csv_path;
    std::string trace_out_path;
    SecureModelConfig secmem;
    SimOptions options = SimOptions::fromEnv();
    ScopeConfig scope_config;
    std::uint64_t trace_sample = 64;
    std::string sweep_list;
    std::string prof_out_path;
    unsigned jobs = 0; // 0 = RunPool::hardwareJobs()

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                badFlag("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--config-file") {
            applyConfigFile(value(), workload, trace_path, config_name,
                            secmem, options);
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--config") {
            config_name = value();
        } else if (arg == "--mem-gb") {
            secmem.memBytes = gibToBytes(realFlag(arg, value(), true));
        } else if (arg == "--cache-kb") {
            secmem.metadataCacheBytes =
                std::size_t(countFlag(arg, value())) * 1024;
        } else if (arg == "--accesses") {
            options.accessesPerCore = countFlag(arg, value());
        } else if (arg == "--warmup") {
            options.warmupPerCore = countFlag(arg, value());
        } else if (arg == "--scale") {
            options.footprintScale = realFlag(arg, value());
        } else if (arg == "--seed") {
            options.seed = countFlag(arg, value());
        } else if (arg == "--timing") {
            options.timing = countFlag(arg, value()) != 0;
        } else if (arg == "--separate-macs") {
            secmem.inlineMacs = false;
        } else if (arg == "--persist") {
            if (!persistByName(value(), secmem.persist))
                badFlag("option %s needs strict, lazy or off",
                        arg.c_str());
        } else if (arg == "--persist-epoch") {
            const std::uint64_t v = countFlag(arg, value());
            if (v == 0)
                badFlag("option %s needs a value >= 1", arg.c_str());
            secmem.persist.epochWrites = v;
        } else if (arg == "--spec-verify") {
            secmem.speculativeVerification = true;
        } else if (arg == "--ctr-prefetch") {
            secmem.counterPrefetch = true;
        } else if (arg == "--demote-enc") {
            secmem.demoteEncCounters = true;
        } else if (arg == "--occupancy") {
            scope_config.occupancy = true;
        } else if (arg == "--epoch") {
            scope_config.epochAccesses = countFlag(arg, value());
        } else if (arg == "--stats-json") {
            stats_json_path = value();
        } else if (arg == "--stats-csv") {
            stats_csv_path = value();
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--trace-sample") {
            trace_sample = countFlag(arg, value());
            if (trace_sample == 0)
                badFlag("option %s needs a value >= 1", arg.c_str());
        } else if (arg == "--prof-out") {
            prof_out_path = value();
        } else if (arg == "--sweep") {
            sweep_list = value();
        } else if (arg == "--jobs") {
            const std::uint64_t v = countFlag(arg, value());
            if (v == 0)
                badFlag("option %s needs a value >= 1", arg.c_str());
            jobs = unsigned(v);
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            badFlag("unknown option '%s'", arg.c_str());
        }
    }

    if (workload.empty() && trace_path.empty()) {
        usage();
        std::fprintf(stderr, "morphsim: need --workload or --trace\n");
        return exitBadFlag;
    }

    // Validate the configuration before spending time simulating.
    if (!configByName(config_name, secmem.tree)) {
        std::fprintf(stderr, "morphsim: unknown config '%s'\n",
                     config_name.c_str());
        return exitBadConfig;
    }
    if (!workload.empty() && !knownWorkload(workload)) {
        std::fprintf(stderr,
                     "morphsim: unknown workload or mix '%s'"
                     " (see --list)\n",
                     workload.c_str());
        return exitBadConfig;
    }
    if (!trace_path.empty() && !readableFile(trace_path)) {
        std::fprintf(stderr, "morphsim: cannot read trace file %s\n",
                     trace_path.c_str());
        return exitBadConfig;
    }

    if (!trace_out_path.empty())
        scope_config.traceSampleEvery = trace_sample;

    bool prof_stderr = false;
    profApplyEnv(prof_out_path, prof_stderr);
    const bool profiling = !prof_out_path.empty() || prof_stderr;
    if (profiling)
        profEnable();
    const std::string workload_key =
        trace_path.empty() ? workload : trace_path;

    if (!sweep_list.empty()) {
        if (!trace_out_path.empty())
            badFlag("%s is not supported with --sweep", "--trace-out");
        const int code =
            runSweep(sweepConfigs(sweep_list), workload, trace_path,
                     secmem, options, scope_config, stats_json_path,
                     stats_csv_path, jobs);
        if (profiling &&
            !finishProfile(prof_out_path, prof_stderr, workload_key,
                           sweep_list, nullptr))
            return code == 0 ? exitRuntime : code;
        return code;
    }

    MorphScope scope(scope_config);
    SimResult result;
    try {
        MORPH_PROF_SCOPE("morphsim.run");
        result = trace_path.empty()
                     ? runByName(workload, secmem, options, &scope)
                     : runTraceFile(trace_path, secmem, options,
                                    &scope);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "morphsim: simulation failed: %s\n",
                     e.what());
        return exitRuntime;
    }

    std::printf("# %s on %s\n", result.configName.c_str(),
                result.workload.c_str());
    scope.dumpText(std::cout, "morphsim");
    std::cout.flush();

    if (!stats_json_path.empty() &&
        !scope.writeStatsJson(stats_json_path)) {
        std::fprintf(stderr, "morphsim: cannot write %s\n",
                     stats_json_path.c_str());
        return exitRuntime;
    }
    if (!stats_csv_path.empty() &&
        !scope.writeStatsCsv(stats_csv_path)) {
        std::fprintf(stderr, "morphsim: cannot write %s\n",
                     stats_csv_path.c_str());
        return exitRuntime;
    }
    if (profiling &&
        !finishProfile(prof_out_path, prof_stderr, workload_key,
                       config_name,
                       trace_out_path.empty() ? nullptr
                                              : &scope.trace()))
        return exitRuntime;
    if (!trace_out_path.empty()) {
        if (!scope.writeTrace(trace_out_path)) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         trace_out_path.c_str());
            return exitRuntime;
        }
        if (scope.trace().dropped() > 0)
            std::fprintf(stderr,
                         "morphsim: trace buffer full, dropped %llu"
                         " events (raise --trace-sample)\n",
                         (unsigned long long)scope.trace().dropped());
    }
    return 0;
}
