#include "sim/system.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/prof.hh"

namespace morph
{

SimSystem::SimSystem(const SystemConfig &config,
                     std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(config), traces_(std::move(traces)),
      secmem_(config.secmem), dram_(config.dram)
{
    if (traces_.size() != config_.numCores)
        fatal("system: %zu traces for %u cores", traces_.size(),
              config_.numCores);
    cores_.reserve(config_.numCores);
    for (unsigned i = 0; i < config_.numCores; ++i)
        cores_.emplace_back(i, *traces_[i], config_.core);
    scratch_.reserve(512);
}

void
SimSystem::step(Core &core)
{
    const TraceEntry entry = core.beginEntry();

    scratch_.clear();
    secmem_.onDataAccess(entry.line, entry.type, scratch_);

    const bool traced = takeTraceSample();
    const Cycle start = core.clock();
    Cycle done = start;
    if (config_.timing) {
        for (const MemAccess &access : scratch_) {
            Cycle finish;
            if (traced) [[unlikely]] {
                DramAccessTiming timing;
                finish = dram_.access(access.line, access.type, start,
                                      &timing);
                traceDramAccess(core, access, timing);
            } else {
                finish = dram_.access(access.line, access.type, start);
            }
            if (access.critical)
                done = std::max(done, finish);
        }
        if (measuring_ && entry.type == AccessType::Read)
            readLatency_.record(done - start);
    }
    if (traced)
        traceEntryDone(core, entry, start, done);
    core.completeEntry(entry, done);
}

bool
SimSystem::takeTraceSample()
{
    if (!scope_ || !measuring_ || !scope_->tracing())
        return false;
    return ++traceTick_ % scope_->config().traceSampleEvery == 0;
}

void
SimSystem::traceDramAccess(const Core &core, const MemAccess &access,
                           const DramAccessTiming &timing)
{
    TraceLog &trace = scope_->trace();
    // Walk span on the requesting core's track: one per generated
    // access, named by traffic category.
    const char *cat =
        access.category == Traffic::Data ? "data" : "walk";
    trace.complete(trafficKey(access.category), cat, core.id(),
                   timing.submit, timing.complete - timing.submit,
                   access.line);
    // Service spans on the owning channel's track: full occupancy
    // (queue + service) and the data burst nested inside it.
    const std::uint32_t tid = channelTidBase + timing.channel;
    trace.complete(access.type == AccessType::Read ? "rd" : "wr",
                   "dram", tid, timing.submit,
                   timing.complete - timing.submit, access.line);
    if (!timing.queued && timing.burstStart > timing.submit)
        trace.complete("burst", "dram", tid, timing.burstStart,
                       timing.complete - timing.burstStart,
                       access.line);
}

void
SimSystem::traceEntryDone(const Core &core, const TraceEntry &entry,
                          Cycle start, Cycle done)
{
    TraceLog &trace = scope_->trace();
    const bool read = entry.type == AccessType::Read;
    trace.complete(read ? "read" : "write", "access", core.id(),
                   start, done - start, entry.line);
    if (read)
        trace.instant("verify", "access", core.id(), done);
}

void
SimSystem::run(std::uint64_t accesses_per_core)
{
    MORPH_PROF_SCOPE("sim.run");
    std::vector<std::uint64_t> targets(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i)
        targets[i] = cores_[i].accesses() + accesses_per_core;

    if (!config_.timing) {
        // Traffic-only mode: DRAM untouched, core order immaterial.
        for (std::size_t i = 0; i < cores_.size(); ++i)
            while (cores_[i].accesses() < targets[i])
                step(cores_[i]);
        return;
    }

    // Time-ordered interleaving: always advance the core whose local
    // clock is furthest behind.
    while (true) {
        Core *next = nullptr;
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (cores_[i].accesses() >= targets[i])
                continue;
            if (!next || cores_[i].clock() < next->clock())
                next = &cores_[i];
        }
        if (!next)
            break;
        step(*next);
    }
    for (auto &core : cores_)
        core.drain();
}

void
SimSystem::startMeasurement()
{
    secmem_.resetStats();
    dram_.resetActivity();
    for (auto &core : cores_)
        core.markMeasurementStart();
    readLatency_.reset();
    measuring_ = true;
}

void
SimSystem::attachScope(MorphScope *scope)
{
    scope_ = scope;
    if (!scope_)
        return;
    StatRegistry &reg = scope_->registry();

    reg.gauge(
        "sim.ipc", [this]() { return aggregateIpc(); },
        "sum of per-core IPCs over the measured interval");
    reg.counter(
        "sim.cycles", [this]() { return measuredCycles(); },
        "longest measured per-core cycle count");
    reg.counter(
        "sim.instructions",
        [this]() { return measuredInstructions(); },
        "measured instructions across all cores");

    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core *core = &cores_[i];
        const std::string prefix = "core" + std::to_string(i);
        reg.counter(
            prefix + ".instructions",
            [core]() { return core->measuredInstructions(); },
            "measured instructions");
        reg.counter(
            prefix + ".cycles",
            [core]() { return core->measuredCycles(); },
            "measured cycles");
        reg.counter(
            prefix + ".accesses",
            [core]() { return core->measuredAccesses(); },
            "measured data accesses");
    }

    secmem_.registerStats(reg, "", scope_->config().occupancy);

    reg.gauge(
        "overflows.per_million",
        [this]() {
            const TrafficStats &s = secmem_.stats();
            const double data = double(s.accesses(Traffic::Data));
            if (data == 0.0)
                return 0.0;
            return double(s.totalOverflows()) * 1e6 / data;
        },
        "overflow resets per million data accesses");

    dram_.registerStats(reg, "dram");

    if (config_.timing)
        reg.histogram("latency.read_cycles", &readLatency_,
                      "end-to-end read latency in CPU cycles");

    if (scope_->tracing()) {
        TraceLog &trace = scope_->trace();
        for (std::size_t i = 0; i < cores_.size(); ++i)
            trace.nameTrack(std::uint32_t(i),
                            "core" + std::to_string(i));
        for (unsigned ch = 0; ch < dram_.config().channels; ++ch)
            trace.nameTrack(channelTidBase + ch,
                            "dram.ch" + std::to_string(ch));
        // Registered only for tracing runs so non-traced stat output
        // (bench baselines, byte-identity legs) is untouched.
        const TraceLog *tracePtr = &trace;
        reg.counter(
            "trace.dropped_events",
            [tracePtr]() { return double(tracePtr->dropped()); },
            "trace events discarded after the event cap was hit");
    }
}

double
SimSystem::aggregateIpc() const
{
    double total = 0.0;
    for (const auto &core : cores_) {
        const Cycle cycles = core.measuredCycles();
        if (cycles > 0)
            total += double(core.measuredInstructions()) /
                     double(cycles);
    }
    return total;
}

Cycle
SimSystem::measuredCycles() const
{
    Cycle longest = 0;
    for (const auto &core : cores_)
        longest = std::max(longest, core.measuredCycles());
    return longest;
}

std::uint64_t
SimSystem::measuredInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core.measuredInstructions();
    return total;
}

} // namespace morph
