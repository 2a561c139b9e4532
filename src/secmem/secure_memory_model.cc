#include "secmem/secure_memory_model.hh"


#include "common/check.hh"
#include "common/prof.hh"
#include "common/stat_registry.hh"

namespace morph
{

SecureMemoryModel::SecureMemoryModel(const SecureModelConfig &config)
    : config_(config), core_(config.memBytes, config.tree),
      mdcache_(config.metadataCacheBytes, config.metadataCacheWays,
               core_.geometry())
{
    // Separate-MAC mode: one 64-bit MAC per data line, 8 per MAC line,
    // in a slab above all other metadata.
    macBaseLine_ = geometry().totalBytes() / lineBytes;

    if (config_.persist.enabled)
        persist_ = std::make_unique<PersistDomain>(config_.persist);
}

SecureMemoryModel::~SecureMemoryModel() = default;

void
SecureMemoryModel::resetStats()
{
    stats_.reset();
    mdcache_.resetStats();
    if (persist_)
        persist_->resetStats();
}

void
SecureMemoryModel::finishRun()
{
    if (persist_)
        persist_->finish();
}

void
SecureMemoryModel::registerStats(StatRegistry &registry,
                                 const std::string &prefix,
                                 bool occupancy) const
{
    const std::string scope = prefix.empty() ? "" : prefix + ".";
    stats_.registerStats(registry, scope + "traffic");
    mdcache_.registerStats(registry, scope + "mdcache", occupancy);
    if (persist_)
        persist_->stats().registerStats(registry, scope + "persist");
}

std::uint64_t
SecureMemoryModel::counterOf(LineAddr data_line)
{
    return core_.counterIn(
        0, data_line, core_.entry(0, geometry().parentIndex(0, data_line)));
}

CachelineData
SecureMemoryModel::counterEntryOf(std::uint64_t entry_index)
{
    return core_.entry(0, entry_index);
}

LineAddr
SecureMemoryModel::macLineOf(LineAddr data_line) const
{
    return macBaseLine_ + data_line / 8;
}

/**
 * Guarantee the metadata entry is on-chip, generating the read +
 * upward verification walk on a miss (paper §II-B): the walk stops at
 * the first cached ancestor or the root.
 */
void
SecureMemoryModel::ensureCached(unsigned level, std::uint64_t index,
                                std::vector<MemAccess> &out,
                                bool critical)
{
    const TreeGeometry &geom = geometry();
    if (level == geom.rootLevel())
        return; // root registers live on-chip

    // Recursion shows up as nested secmem.tree_walk chains in a
    // profile: depth == levels actually walked past the cache.
    MORPH_PROF_SCOPE("secmem.tree_walk");
    const LineAddr line = geom.lineOfEntry(level, index);
    const CacheFill fill =
        mdcache_.accessOrInsert(line, false, fillPosition(level));
    if (fill.hit)
        return; // found securely cached: traversal terminates

    out.push_back({line, AccessType::Read, trafficForLevel(level),
                   critical});
    stats_.count(trafficForLevel(level), false);
    writeBackEvicted(fill.evicted, out);

    if (config_.counterPrefetch && level == 0 &&
        index + 1 < geom.levels()[0].entries) {
        const LineAddr next = geom.lineOfEntry(0, index + 1);
        if (!mdcache_.contains(next)) {
            out.push_back({next, AccessType::Read, Traffic::CtrEncr,
                           false});
            stats_.count(Traffic::CtrEncr, false);
            writeBackEvicted(
                mdcache_.insert(next, false, fillPosition(0)), out);
        }
    }

    // Verification walk: with speculative verification the ancestor
    // reads still consume bandwidth but no longer gate the load.
    ensureCached(level + 1, geom.parentIndex(level + 1, index), out,
                 critical && !config_.speculativeVerification);
}

/** Replacement position of a metadata line of @p level filled on a
 *  miss: encryption counters go in demoted when so configured. */
InsertPosition
SecureMemoryModel::fillPosition(unsigned level) const
{
    return config_.demoteEncCounters && level == 0 ? InsertPosition::Lru
                                                   : InsertPosition::Mru;
}

/** Write back the victim of a metadata fill if it was dirty. */
void
SecureMemoryModel::writeBackEvicted(const std::optional<Eviction> &evicted,
                                    std::vector<MemAccess> &out)
{
    if (!evicted || !evicted->dirty)
        return;

    unsigned ev_level;
    std::uint64_t ev_index;
    if (geometry().entryOfLine(evicted->line, ev_level, ev_index)) {
        handleDirtyWriteback(ev_level, ev_index, out);
    } else {
        // A dirty separate-mode MAC line: plain write-back.
        out.push_back({evicted->line, AccessType::Write, Traffic::Mac,
                       false});
        stats_.count(Traffic::Mac, true);
    }
}

/**
 * A dirty metadata entry leaves the chip: write it back and propagate
 * the write up the tree by incrementing its parent counter.
 */
void
SecureMemoryModel::handleDirtyWriteback(unsigned level,
                                        std::uint64_t index,
                                        std::vector<MemAccess> &out)
{
    const TreeGeometry &geom = geometry();
    const LineAddr line = geom.lineOfEntry(level, index);
    out.push_back({line, AccessType::Write, trafficForLevel(level),
                   false});
    stats_.count(trafficForLevel(level), true);

    // The line leaves the chip: under the lazy persist policy this is
    // the moment NVM takes the new image, ahead of the root commit.
    if (persist_)
        persist_->onDirtyWriteback(level, line, core_.entry(level, index));

    if (level == geom.rootLevel())
        return;

    MORPH_PROF_SCOPE("secmem.ctr_bump");
    const unsigned parent = level + 1;
    ensureCached(parent, geom.parentIndex(parent, index), out, false);
    bumpCounter(parent, index, out);
}

/**
 * Increment the counter at @p level covering @p child (a data line at
 * level 0, an entry of level - 1 above), whose entry is already
 * cached: mark it dirty, notify the persist domain, count the codec's
 * outcome and emit the traffic of an overflow reset.
 */
void
SecureMemoryModel::bumpCounter(unsigned level, std::uint64_t child,
                               std::vector<MemAccess> &out)
{
    const CounterTree::Bump bump = core_.bump(level, child);
    const LineAddr line = geometry().lineOfEntry(level, bump.entry);
    if (level != geometry().rootLevel())
        mdcache_.markDirty(line);
    if (persist_)
        persist_->onEntryUpdate(level, line, *bump.image);

    const unsigned bin = std::min<unsigned>(level, 7);
    if (bump.write.rebase)
        ++stats_.rebasesByLevel[bin];
    if (bump.write.formatSwitch)
        ++stats_.morphsByLevel[bin];
    if (bump.write.overflow) {
        ++stats_.overflowsByLevel[bin];
        stats_.usageAtOverflow.record(
            double(bump.write.usedBefore) /
            double(core_.format(level).arity()));
        emitOverflowTraffic(level, bump.childBegin, bump.childEnd, out);
    }
}

/**
 * Overflow reset at @p level: children [begin, end) changed protecting
 * counters — each is read, updated (re-encrypted for level 0
 * children, re-MACed for metadata children) and written back. The
 * children's counter images are unchanged (only data payloads / MACs
 * refresh, which this model does not store), so these writes are
 * persist-neutral: the durable copies stay valid.
 */
void
SecureMemoryModel::emitOverflowTraffic(unsigned level,
                                       std::uint64_t begin,
                                       std::uint64_t end,
                                       std::vector<MemAccess> &out)
{
    MORPH_PROF_SCOPE("secmem.overflow");
    // Children of a level-L entry live at level L-1; children of a
    // level-0 (encryption counter) entry are the data lines.
    const LineAddr child_line_base =
        level == 0 ? 0 : geometry().levels()[level - 1].baseLine;
    for (std::uint64_t child = begin; child < end; ++child) {
        const LineAddr line = child_line_base + child;
        out.push_back({line, AccessType::Read, Traffic::Overflow,
                       false});
        out.push_back({line, AccessType::Write, Traffic::Overflow,
                       false});
        stats_.count(Traffic::Overflow, false);
        stats_.count(Traffic::Overflow, true);
    }
}

void
SecureMemoryModel::onDataAccess(LineAddr data_line, AccessType type,
                                std::vector<MemAccess> &out)
{
    MORPH_PROF_SCOPE("secmem.data_access");
    MORPH_CHECK_LT(data_line, geometry().dataLines());
    const bool is_write = type == AccessType::Write;

    out.push_back({data_line, type, Traffic::Data, !is_write});
    stats_.count(Traffic::Data, is_write);

    if (!config_.secure)
        return;

    // The encryption counter is needed for both directions: OTP
    // generation on reads (critical), counter bump on writes (posted).
    ensureCached(0, geometry().parentIndex(0, data_line), out, !is_write);
    if (is_write)
        bumpCounter(0, data_line, out);

    if (!config_.inlineMacs) {
        // Separate-MAC organization: every data access also touches
        // the MAC line (reads verify, writes update).
        const LineAddr mac_line = macLineOf(data_line);
        const CacheFill fill = mdcache_.accessOrInsert(mac_line, is_write);
        if (!fill.hit) {
            out.push_back({mac_line, AccessType::Read, Traffic::Mac,
                           !is_write});
            stats_.count(Traffic::Mac, false);
            writeBackEvicted(fill.evicted, out);
        }
    }

    // Retired data write: advances the lazy policy's epoch clock
    // (and may fire a barrier). Last so the barrier covers every
    // metadata mutation this access generated.
    if (persist_ && is_write)
        persist_->onDataWrite();
}

} // namespace morph
