/**
 * @file
 * Host-throughput benchmark binary for the MorphCtr simulator.
 *
 * One process runs one workload at one seed and prints a single JSON
 * line on stdout; perfbench/run.py drives it (see perfbench/README.md
 * for the metrics and workloads).
 *
 * Untraced mode times SimSystem through its public API: set-up (the
 * per-core traces plus the SimSystem) is built several times and
 * timed, then one run is timed from the first simulated access to the
 * end of finishRun().
 *
 * Traced mode (--trace) times each layer from outside. SimSystem::step
 * is private, so TracedSystem below replays the same loop through the
 * layers' public calls (TraceSource::next via a timing decorator,
 * Core::beginEntry/completeEntry, SecureMemoryModel::onDataAccess and
 * finishRun, DramSystem::access) and reads the clock only on a random
 * 1-in-N sample of data accesses. Every traced run also runs the
 * untraced runWorkload() on the same workload and seed and fails
 * unless both produce bit-identical statistics, so the replica can
 * never drift away from SimSystem.
 *
 * A/B mode (--ab) cross-checks the DRAM layer's share without
 * spans: it times runWorkload() with timing on against timing off.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "sim/simulator.hh"

namespace
{

using namespace morph;

// ---------------------------------------------------------------------
// Workloads

/** One benchmark workload: a Table II workload plus the system knobs
 *  that pick which layers it stresses (README.md gives the reasons). */
struct BenchWorkload
{
    const char *name;
    const char *spec;       ///< Table II workload name
    bool timing;            ///< false: traffic only, DRAM bypassed
    double footprintScale;  ///< Table II footprint divisor
    bool strictPersist;     ///< NVM persist domain, strict policy
    std::uint64_t warmupPerCore;
    std::uint64_t accessesPerCore;
};

const BenchWorkload workloads[] = {
    {"mcf-morph", "mcf", true, 1.0, false, 250'000, 500'000},
    {"libquantum-morph", "libquantum", true, 1.0, false, 250'000,
     500'000},
    // Counter pressure needs the overflow-figure scale
    // (overflowOptions() in bench/bench_common.hh) before rebases and
    // morphs reach steady state.
    {"gcc-nvm-strict", "gcc", false, 32.0, true, 500'000, 1'000'000},
};

constexpr unsigned numCores = 4;

/** Set-up is built this many times per process and the median kept:
 *  it takes microseconds, so one sample is mostly noise. */
constexpr unsigned setupRepeats = 25;

/** One data access in this many gets spans in the traced run (a power
 *  of two). At 16 the clock reads add a few percent to the wall. */
constexpr std::uint64_t sampleEvery = 16;

/** Timing-on/timing-off pairs in one A/B run: one pair is at the mercy
 *  of host noise, and the A/B runs once per traced call. */
constexpr unsigned abPairs = 3;

const BenchWorkload *
findBenchWorkload(const std::string &name)
{
    for (const BenchWorkload &w : workloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

SystemConfig
systemConfig(const BenchWorkload &w)
{
    SystemConfig config;
    config.numCores = numCores;
    config.timing = w.timing;
    config.secmem.tree = TreeConfig::morph();
    if (w.strictPersist) {
        config.secmem.persist.enabled = true;
        config.secmem.persist.policy = PersistPolicy::Strict;
    }
    return config;
}

const WorkloadSpec &
tableSpec(const BenchWorkload &w)
{
    const WorkloadSpec *spec = findWorkload(w.spec);
    if (!spec) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", w.spec);
        std::exit(2);
    }
    return *spec;
}

std::vector<std::unique_ptr<TraceSource>>
makeTraces(const BenchWorkload &w, const SystemConfig &config,
           std::uint64_t seed)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned core = 0; core < config.numCores; ++core)
        traces.push_back(makeWorkloadTrace(tableSpec(w), core,
                                           config.numCores,
                                           config.secmem.memBytes, seed,
                                           w.footprintScale));
    return traces;
}

std::uint64_t
totalAccesses(const BenchWorkload &w)
{
    return (w.warmupPerCore + w.accessesPerCore) * numCores;
}

// ---------------------------------------------------------------------
// Clocks

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** Cheapest clock available: the TSC on x86 (invariant on the hosts
 *  the benchmark targets), steady_clock elsewhere. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return std::uint64_t(
        SteadyClock::now().time_since_epoch().count());
#endif
}

/** Tick rate and the cost of an empty span, measured at start-up. */
struct TickCalibration
{
    double nsPerTick = 1.0;
    /** What an empty span measures itself: the median of back-to-back
     *  clock reads. */
    double innerTicks = 0.0;
    /** What an empty span adds to the span around it: both reads plus
     *  the accumulation, timed over a loop of empty spans. */
    double outerTicks = 0.0;
};

TickCalibration
calibrateTicks()
{
    TickCalibration cal;
    const auto wall0 = SteadyClock::now();
    const std::uint64_t tick0 = ticks();
    while (secondsSince(wall0) < 0.05) {
    }
    const std::uint64_t tick1 = ticks();
    cal.nsPerTick = secondsSince(wall0) * 1e9 / double(tick1 - tick0);

    std::vector<std::uint64_t> empty(20'001);
    for (auto &d : empty) {
        const std::uint64_t a = ticks();
        d = ticks() - a;
    }
    std::nth_element(empty.begin(), empty.begin() + empty.size() / 2,
                     empty.end());
    cal.innerTicks = double(empty[empty.size() / 2]);

    constexpr unsigned loops = 20'000;
    std::uint64_t total = 0, calls = 0;
    std::vector<double> outer;
    for (unsigned round = 0; round < 11; ++round) {
        const std::uint64_t t0 = ticks();
        for (unsigned i = 0; i < loops; ++i) {
            const std::uint64_t a = ticks();
            total += ticks() - a;
            ++calls;
            asm volatile("" : "+m"(total), "+m"(calls));
        }
        outer.push_back(double(ticks() - t0) / loops);
    }
    std::nth_element(outer.begin(), outer.begin() + outer.size() / 2,
                     outer.end());
    cal.outerTicks = outer[outer.size() / 2];
    return cal;
}

// ---------------------------------------------------------------------
// Statistics

SimResult
collectResult(const std::string &workload, const SystemConfig &config,
              double ipc, Cycle cycles, std::uint64_t instructions,
              const SecureMemoryModel &secmem, const DramSystem &dram)
{
    SimResult r;
    r.workload = workload;
    r.configName = config.secmem.tree.name;
    r.ipc = ipc;
    r.cycles = cycles;
    r.instructions = instructions;
    r.traffic = secmem.stats();
    r.metadataCache = secmem.metadataCache().stats();
    r.dram = dram.totalActivity();
    if (const PersistDomain *domain = secmem.persistDomain())
        r.persist = domain->stats();
    return r;
}

SimResult
collectResult(const std::string &workload, const SimSystem &system)
{
    return collectResult(workload, system.config(),
                         system.aggregateIpc(), system.measuredCycles(),
                         system.measuredInstructions(), system.secmem(),
                         system.dram());
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

template <typename Array>
void
appendArray(std::string &out, const char *key, const Array &values)
{
    appendf(out, "\"%s\":[", key);
    for (std::size_t i = 0; i < values.size(); ++i)
        appendf(out, "%s%llu", i ? "," : "",
                (unsigned long long)values[i]);
    out += "],";
}

/**
 * Every simulated statistic the benchmark pins, as a JSON object with
 * a fixed key order: equal strings mean bit-identical statistics (IPC
 * is printed with 17 significant digits, which round-trips a double).
 */
std::string
statsJson(const SimResult &r)
{
    std::string out = "{";
    appendf(out, "\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.17g,",
            (unsigned long long)r.cycles,
            (unsigned long long)r.instructions, r.ipc);
    appendArray(out, "traffic_reads", r.traffic.reads);
    appendArray(out, "traffic_writes", r.traffic.writes);
    appendArray(out, "overflows_by_level", r.traffic.overflowsByLevel);
    appendArray(out, "rebases_by_level", r.traffic.rebasesByLevel);
    appendArray(out, "morphs_by_level", r.traffic.morphsByLevel);
    std::vector<std::uint64_t> usage;
    for (unsigned i = 0; i < r.traffic.usageAtOverflow.size(); ++i)
        usage.push_back(r.traffic.usageAtOverflow.bucket(i));
    appendArray(out, "usage_at_overflow", usage);
    const CacheStats &c = r.metadataCache;
    appendf(out,
            "\"mdcache\":{\"hits\":%llu,\"misses\":%llu,"
            "\"evictions\":%llu,\"dirty_evictions\":%llu},",
            (unsigned long long)c.hits, (unsigned long long)c.misses,
            (unsigned long long)c.evictions,
            (unsigned long long)c.dirtyEvictions);
    const ChannelActivity &d = r.dram;
    appendf(out,
            "\"dram\":{\"reads\":%llu,\"writes\":%llu,"
            "\"activates\":%llu,\"refreshes\":%llu,\"row_hits\":%llu,"
            "\"row_closed\":%llu,\"row_conflicts\":%llu,"
            "\"write_drains\":%llu,\"bus_busy_cycles\":%llu},",
            (unsigned long long)d.reads, (unsigned long long)d.writes,
            (unsigned long long)d.activates,
            (unsigned long long)d.refreshes,
            (unsigned long long)d.rowHits,
            (unsigned long long)d.rowClosed,
            (unsigned long long)d.rowConflicts,
            (unsigned long long)d.writeDrains,
            (unsigned long long)d.busBusyCycles);
    const PersistStats &p = r.persist;
    appendf(out,
            "\"persist\":{\"line_persists\":%llu,\"root_persists\":%llu,"
            "\"log_appends\":%llu,\"barriers\":%llu,"
            "\"barrier_flushes\":%llu,\"entry_mutations\":%llu}}",
            (unsigned long long)p.linePersists,
            (unsigned long long)p.rootPersists,
            (unsigned long long)p.logAppends,
            (unsigned long long)p.barriers,
            (unsigned long long)p.barrierFlushes,
            (unsigned long long)p.entryMutations);
    return out;
}

/**
 * Peak resident set of this process image, in MiB. VmHWM rather than
 * getrusage(): Linux carries ru_maxrss across execve, so a child
 * started from a large parent would report the parent's peak.
 */
double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kib = 0;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib > 0)
            return double(kib) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Untraced run: SimSystem through its public API

struct UntracedRun
{
    SimResult result;
    double wallSeconds = 0;
    std::vector<double> setupSeconds;
};

UntracedRun
runUntraced(const BenchWorkload &w, std::uint64_t seed)
{
    const SystemConfig config = systemConfig(w);
    UntracedRun run;
    std::unique_ptr<SimSystem> system;
    for (unsigned i = 0; i < setupRepeats; ++i) {
        system.reset();
        const auto start = SteadyClock::now();
        system = std::make_unique<SimSystem>(config,
                                             makeTraces(w, config, seed));
        run.setupSeconds.push_back(secondsSince(start));
    }

    const auto start = SteadyClock::now();
    system->run(w.warmupPerCore);
    system->startMeasurement();
    system->run(w.accessesPerCore);
    system->finishRun();
    run.wallSeconds = secondsSince(start);
    run.result = collectResult(w.name, *system);
    return run;
}

// ---------------------------------------------------------------------
// Traced run: the SimSystem loop replayed through public calls

/** Sampled span totals, in ticks, as measured (clock cost included). */
struct LayerSpans
{
    bool active = false; ///< the current data access is sampled

    std::uint64_t steps = 0;        ///< all data accesses
    std::uint64_t sampledSteps = 0;
    std::uint64_t stepTicks = 0;    ///< whole sampled steps
    std::uint64_t stepChildren = 0; ///< child spans inside them

    std::uint64_t nextTicks = 0, nextCalls = 0;
    std::uint64_t secmemTicks = 0, secmemCalls = 0;
    std::uint64_t dramTicks = 0, dramCalls = 0;

    /** Per-run calls, timed on every call (not sampled). */
    std::uint64_t finishTicks = 0, finishCalls = 0;
    std::uint64_t otherTicks = 0; ///< drain and measurement start
};

/** TraceSource decorator: spans TraceSource::next on sampled steps. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(std::unique_ptr<TraceSource> inner, LayerSpans &spans)
        : inner_(std::move(inner)), spans_(&spans)
    {}

    TraceEntry
    next() override
    {
        if (!spans_->active)
            return inner_->next();
        const std::uint64_t t0 = ticks();
        const TraceEntry entry = inner_->next();
        spans_->nextTicks += ticks() - t0;
        ++spans_->nextCalls;
        return entry;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    LayerSpans *spans_;
};

/** Random 1-in-sampleEvery choice of traced data accesses
 *  (xorshift64), independent of the simulation's own generators. */
class Sampler
{
  public:
    bool
    take()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return (state_ & (sampleEvery - 1)) == 0;
    }

  private:
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/**
 * SimSystem's run/step loop, replayed through the layers' public
 * calls (system.cc is the reference; the traced run checks the two
 * produce identical statistics).
 */
class TracedSystem
{
  public:
    TracedSystem(const SystemConfig &config,
                 std::vector<std::unique_ptr<TraceSource>> traces)
        : config_(config), secmem_(config.secmem), dram_(config.dram)
    {
        for (auto &trace : traces)
            traces_.push_back(
                std::make_unique<TimedTrace>(std::move(trace), spans_));
        cores_.reserve(config_.numCores);
        for (unsigned i = 0; i < config_.numCores; ++i)
            cores_.emplace_back(i, *traces_[i], config_.core);
        generated_.reserve(512);
    }

    void
    run(std::uint64_t accesses_per_core)
    {
        std::vector<std::uint64_t> targets(cores_.size());
        for (std::size_t i = 0; i < cores_.size(); ++i)
            targets[i] = cores_[i].accesses() + accesses_per_core;

        if (!config_.timing) {
            for (std::size_t i = 0; i < cores_.size(); ++i)
                while (cores_[i].accesses() < targets[i]) {
                    const bool sampled = sampler_.take();
                    step(cores_[i], sampled, sampled ? ticks() : 0);
                }
            return;
        }

        while (true) {
            // The step span opens before core selection, so the
            // selection loop is charged to the sim layer.
            const bool sampled = sampler_.take();
            const std::uint64_t t0 = sampled ? ticks() : 0;
            Core *next = nullptr;
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                if (cores_[i].accesses() >= targets[i])
                    continue;
                if (!next || cores_[i].clock() < next->clock())
                    next = &cores_[i];
            }
            if (!next)
                break;
            step(*next, sampled, t0);
        }
        const std::uint64_t t0 = ticks();
        for (auto &core : cores_)
            core.drain();
        spans_.otherTicks += ticks() - t0;
    }

    void
    startMeasurement()
    {
        const std::uint64_t t0 = ticks();
        secmem_.resetStats();
        dram_.resetActivity();
        for (auto &core : cores_)
            core.markMeasurementStart();
        spans_.otherTicks += ticks() - t0;
    }

    void
    finishRun()
    {
        const std::uint64_t t0 = ticks();
        secmem_.finishRun();
        spans_.finishTicks += ticks() - t0;
        ++spans_.finishCalls;
    }

    SimResult
    result(const std::string &workload) const
    {
        double ipc = 0.0;
        Cycle cycles = 0;
        std::uint64_t instructions = 0;
        for (const Core &core : cores_) {
            if (core.measuredCycles() > 0)
                ipc += double(core.measuredInstructions()) /
                       double(core.measuredCycles());
            cycles = std::max(cycles, core.measuredCycles());
            instructions += core.measuredInstructions();
        }
        return collectResult(workload, config_, ipc, cycles,
                             instructions, secmem_, dram_);
    }

    const LayerSpans &spans() const { return spans_; }

  private:
    Cycle
    dramAccess(const MemAccess &access, Cycle when, bool sampled)
    {
        if (!sampled)
            return dram_.access(access.line, access.type, when);
        const std::uint64_t d0 = ticks();
        const Cycle finish = dram_.access(access.line, access.type, when);
        spans_.dramTicks += ticks() - d0;
        ++spans_.dramCalls;
        return finish;
    }

    void
    step(Core &core, bool sampled, std::uint64_t t0)
    {
        ++spans_.steps;
        spans_.active = sampled;
        const TraceEntry entry = core.beginEntry();

        generated_.clear();
        if (sampled) {
            const std::uint64_t s0 = ticks();
            secmem_.onDataAccess(entry.line, entry.type, generated_);
            spans_.secmemTicks += ticks() - s0;
            ++spans_.secmemCalls;
        } else {
            secmem_.onDataAccess(entry.line, entry.type, generated_);
        }

        Cycle done = core.clock();
        std::uint64_t children = 2; // next + onDataAccess
        if (config_.timing) {
            for (const MemAccess &access : generated_) {
                const Cycle finish =
                    dramAccess(access, core.clock(), sampled);
                if (sampled)
                    ++children;
                if (access.critical)
                    done = std::max(done, finish);
            }
        }
        core.completeEntry(entry, done);

        if (sampled) {
            spans_.stepTicks += ticks() - t0;
            spans_.stepChildren += children;
            ++spans_.sampledSteps;
            spans_.active = false;
        }
    }

    SystemConfig config_;
    std::vector<std::unique_ptr<TimedTrace>> traces_;
    std::vector<Core> cores_;
    SecureMemoryModel secmem_;
    DramSystem dram_;
    std::vector<MemAccess> generated_;
    LayerSpans spans_;
    Sampler sampler_;
};

/** Wall seconds of one full run (warm-up, measurement, finish). */
double
timeRun(TracedSystem &replica, const BenchWorkload &w)
{
    const auto start = SteadyClock::now();
    replica.run(w.warmupPerCore);
    replica.startMeasurement();
    replica.run(w.accessesPerCore);
    replica.finishRun();
    return secondsSince(start);
}

// ---------------------------------------------------------------------
// Modes

SimOptions
simOptions(const BenchWorkload &w, std::uint64_t seed, bool timing)
{
    SimOptions options;
    options.warmupPerCore = w.warmupPerCore;
    options.accessesPerCore = w.accessesPerCore;
    options.seed = seed;
    options.timing = timing;
    options.footprintScale = w.footprintScale;
    return options;
}

/** Opening keys of a result line: what ran, at which scale. */
std::string
resultHeader(const char *mode, const BenchWorkload &w, std::uint64_t seed)
{
    std::string out;
    appendf(out,
            "{\"mode\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
            "\"timing\":%s,\"warmup_per_core\":%llu,"
            "\"accesses_per_core\":%llu,",
            mode, w.name, (unsigned long long)seed,
            w.timing ? "true" : "false",
            (unsigned long long)w.warmupPerCore,
            (unsigned long long)w.accessesPerCore);
    return out;
}

int
untracedMode(const BenchWorkload &w, std::uint64_t seed)
{
    const UntracedRun run = runUntraced(w, seed);
    std::string out = resultHeader("untraced", w, seed);
    appendf(out, "\"accesses\":%llu,\"wall_s\":%.9g,",
            (unsigned long long)totalAccesses(w), run.wallSeconds);
    out += "\"setup_s\":[";
    for (std::size_t i = 0; i < run.setupSeconds.size(); ++i)
        appendf(out, "%s%.9g", i ? "," : "", run.setupSeconds[i]);
    out += "],";
    appendf(out, "\"peak_rss_mb\":%.6f,", peakRssMb());
    out += "\"stats\":" + statsJson(run.result) + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

int
tracedMode(const BenchWorkload &w, std::uint64_t seed)
{
    const TickCalibration cal = calibrateTicks();

    // Untraced reference: runWorkload() on the same workload and seed,
    // for the same-program check and the untraced wall time (which
    // thereby includes set-up, a few hundred microseconds at most).
    const WorkloadSpec &spec = tableSpec(w);
    const SystemConfig config = systemConfig(w);
    const auto start = SteadyClock::now();
    const SimResult api =
        runWorkload(spec, config.secmem, simOptions(w, seed, w.timing));
    const double untraced_wall = secondsSince(start);

    TracedSystem traced(config, makeTraces(w, config, seed));
    const double traced_wall = timeRun(traced, w);
    const SimResult replica = traced.result(w.name);

    const std::string api_stats = statsJson(api);
    const std::string replica_stats = statsJson(replica);
    const bool same_program = api_stats == replica_stats;
    if (!same_program)
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: traced loop diverged "
                     "from runWorkload\n  runWorkload: %s\n"
                     "  traced:      %s\n",
                     w.name, (unsigned long long)seed,
                     api_stats.c_str(), replica_stats.c_str());

    // Self times. A span's measured ticks include the cost of its own
    // clock reads plus that of every nested child span; subtract the
    // calibrated empty-span costs, then take children out of parents.
    const LayerSpans &s = traced.spans();
    const double c = cal.innerTicks;
    const double next_t = double(s.nextTicks) - c * double(s.nextCalls);
    const double secmem_t =
        double(s.secmemTicks) - c * double(s.secmemCalls);
    const double dram_t = double(s.dramTicks) - c * double(s.dramCalls);
    const double step_t =
        double(s.stepTicks) -
        c * double(s.sampledSteps) -
        cal.outerTicks * double(s.stepChildren);
    const double core_t = step_t - next_t - secmem_t - dram_t;
    const double finish_t =
        double(s.finishTicks) - c * double(s.finishCalls);

    // Sampled self times scale to the whole run by the sampled share
    // of data accesses.
    const double wall_ns = traced_wall * 1e9;
    const double scale = ratio(double(s.steps), double(s.sampledSteps)) *
                         cal.nsPerTick;
    const double next_share = next_t * scale / wall_ns;
    const double core_share =
        (core_t * scale + double(s.otherTicks) * cal.nsPerTick) / wall_ns;
    const double secmem_share = secmem_t * scale / wall_ns;
    const double dram_share = dram_t * scale / wall_ns;
    const double finish_share = finish_t * cal.nsPerTick / wall_ns;

    const TrafficStats &t = replica.traffic;
    const double data = double(t.accesses(Traffic::Data));
    const double data_writes = double(t.writes[unsigned(Traffic::Data)]);
    const CacheStats &mc = replica.metadataCache;
    const ChannelActivity &d = replica.dram;

    // A failed check still reports its timings; run.py counts the
    // repetition as failed.
    std::string out = resultHeader("traced", w, seed);
    appendf(out, "\"same_program\":%s,", same_program ? "true" : "false");
    appendf(out,
            "\"sample_every\":%llu,\"ns_per_tick\":%.9g,"
            "\"empty_span_ns\":[%.6g,%.6g],\"traced_wall_s\":%.9g,"
            "\"untraced_wall_s\":%.9g,",
            (unsigned long long)sampleEvery, cal.nsPerTick,
            c * cal.nsPerTick, cal.outerTicks * cal.nsPerTick,
            traced_wall, untraced_wall);
    out += "\"metrics\":{";
    const auto metric = [&out](const char *name, double value) {
        appendf(out, "\"%s\":%.9g,", name, value);
    };
    metric("workloads.next_ns",
           ratio(next_t, double(s.nextCalls)) * cal.nsPerTick);
    metric("workloads.share", next_share);
    metric("sim.core_ns",
           ratio(core_t, double(s.sampledSteps)) * cal.nsPerTick);
    metric("sim.share", core_share);
    metric("secmem.access_ns",
           ratio(secmem_t, double(s.secmemCalls)) * cal.nsPerTick);
    metric("secmem.share", secmem_share);
    metric("secmem.mem_accesses_per_data", t.bloat());
    metric("secmem.finish_run_ns",
           ratio(finish_t, double(s.finishCalls)) * cal.nsPerTick);
    metric("mdcache.hit_rate", mc.hitRate());
    metric("mdcache.misses_per_data", ratio(double(mc.misses), data));
    metric("mdcache.dirty_evictions_per_data",
           ratio(double(mc.dirtyEvictions), data));
    metric("counters.rebases_per_million",
           ratio(double(t.totalRebases()) * 1e6, data));
    metric("counters.morphs_per_million",
           ratio(double(t.totalMorphs()) * 1e6, data));
    metric("counters.overflows_per_million",
           ratio(double(t.totalOverflows()) * 1e6, data));
    metric("persist.line_persists_per_write",
           ratio(double(replica.persist.linePersists), data_writes));
    metric("persist.log_appends_per_write",
           ratio(double(replica.persist.logAppends), data_writes));
    metric("dram.access_ns",
           ratio(dram_t, double(s.dramCalls)) * cal.nsPerTick);
    metric("dram.share", dram_share);
    metric("dram.accesses_per_data", ratio(double(d.reads + d.writes), data));
    metric("dram.row_hit_rate",
           ratio(double(d.rowHits), double(d.reads + d.writes)));
    metric("trace.overhead", traced_wall / untraced_wall);
    appendf(out, "\"trace.coverage\":%.9g},",
            next_share + core_share + secmem_share + dram_share +
                finish_share);
    out += "\"stats\":" + replica_stats + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

/**
 * The timing A/B that cross-checks dram.share: untraced runWorkload()
 * with timing on, then with timing off (which skips the DRAM model),
 * alternated abPairs times. Each pair's share is
 * 1 - wall(off) / wall(on); run.py reports the median.
 */
int
abMode(const BenchWorkload &w, std::uint64_t seed)
{
    const WorkloadSpec &spec = tableSpec(w);
    const SystemConfig config = systemConfig(w);
    std::string out = resultHeader("ab", w, seed);
    out += "\"shares\":[";
    for (unsigned i = 0; i < abPairs; ++i) {
        double wall[2];
        for (const bool timing : {true, false}) {
            const auto start = SteadyClock::now();
            runWorkload(spec, config.secmem, simOptions(w, seed, timing));
            wall[timing ? 0 : 1] = secondsSince(start);
        }
        appendf(out, "%s%.9g", i ? "," : "", 1.0 - wall[1] / wall[0]);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}

/** Nanoseconds per hop of a dependent pointer chase over a random
 *  cyclic permutation of the cache lines of a @p bytes buffer. */
double
chaseNs(std::size_t bytes, std::uint64_t &sink)
{
    constexpr std::size_t line = 64;
    const std::size_t lines = bytes / line;

    // Sattolo's algorithm: a single cycle through every line.
    std::vector<std::uint32_t> order(lines);
    for (std::size_t i = 0; i < lines; ++i)
        order[i] = std::uint32_t(i);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (std::size_t i = lines - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(order[i], order[x % i]);
    }
    std::vector<std::uint64_t> buffer(lines * line / 8);
    for (std::size_t i = 0; i < lines; ++i)
        buffer[order[i] * (line / 8)] = order[(i + 1) % lines];

    // One lap untimed, so the small buffer is cache-resident if the
    // host lets it stay there.
    std::uint64_t at = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(lines, 2'000'000);
         ++i)
        at = buffer[at * (line / 8)];
    const std::size_t hops = 2'000'000;
    const auto start = SteadyClock::now();
    for (std::size_t i = 0; i < hops; ++i)
        at = buffer[at * (line / 8)];
    sink += at;
    return secondsSince(start) * 1e9 / double(hops);
}

/**
 * Host memory probes, a diagnostic that lets a slow run be attributed
 * to the host: a pointer chase over a buffer twice the LLC size (DRAM
 * latency), and one over 4 MB, about the simulator's working set. The
 * second reads LLC latency on a quiet host and DRAM latency when other
 * tenants have evicted the LLC, which is when the simulator slows.
 */
int
probeMode()
{
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = 32l << 20;
    const std::size_t bytes = std::clamp<std::size_t>(
        2 * std::size_t(llc), 64ull << 20, 256ull << 20);
    constexpr std::size_t small = 4ull << 20;
    std::uint64_t sink = 0;
    const double mem_ns = chaseNs(bytes, sink);
    const double llc_ns = chaseNs(small, sink);
    std::printf("{\"mode\":\"probe\",\"buffer_mb\":%zu,"
                "\"mem_latency_ns\":%.6g,\"llc_buffer_mb\":%zu,"
                "\"llc_latency_ns\":%.6g,\"end\":%llu}\n",
                bytes >> 20, mem_ns, small >> 20, llc_ns,
                (unsigned long long)sink);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: morph_perfbench --workload NAME --seed N "
                 "[--trace | --ab]\n"
                 "       morph_perfbench --probe\n"
                 "workloads:");
    for (const BenchWorkload &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    value = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    bool probe = false;
    bool ab = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--trace") {
            traced = true;
        } else if (arg == "--probe") {
            probe = true;
        } else if (arg == "--ab") {
            ab = true;
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            if (!parseUnsigned(argv[++i], seed))
                return usage();
        } else {
            return usage();
        }
    }
    if (probe)
        return probeMode();
    const BenchWorkload *w = findBenchWorkload(workload);
    if (!w)
        return usage();
    if (ab)
        return abMode(*w, seed);
    return traced ? tracedMode(*w, seed) : untracedMode(*w, seed);
}
