#include "secmem/persist_domain.hh"

#include <cstring>

#include "common/check.hh"
#include "common/stat_registry.hh"
#include "crypto/siphash.hh"

namespace morph
{

namespace
{

/** Fixed fingerprint key: the digest is an integrity *model*, not a
 *  cryptographic root of trust — same idiom as morphverify's visited
 *  set. A real controller would hold a device-unique secret here. */
const SipKey persistKey = {0x6d, 0x6f, 0x72, 0x70, 0x68, 0x70,
                           0x65, 0x72, 0x73, 0x69, 0x73, 0x74,
                           0x6b, 0x65, 0x79, 0x30};

std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    // splitmix64 finalizer over the running hash — order-sensitive,
    // used only where sequence matters (the undo log).
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return h;
}

} // namespace

void
PersistStats::registerStats(StatRegistry &registry,
                            const std::string &prefix) const
{
    registry.counter(prefix + ".line_persists", &linePersists,
                     "metadata lines written to NVM");
    registry.counter(prefix + ".root_persists", &rootPersists,
                     "atomic root re-commits");
    registry.counter(prefix + ".log_appends", &logAppends,
                     "write-ahead undo-log records");
    registry.counter(prefix + ".barriers", &barriers,
                     "lazy epoch barriers completed");
    registry.counter(prefix + ".barrier_flushes", &barrierFlushes,
                     "pending lines flushed at barriers");
    registry.counter(prefix + ".entry_mutations", &entryMutations,
                     "volatile entry mutations observed");
}

PersistDomain::PersistDomain(const PersistConfig &config)
    : config_(config)
{
    MORPH_CHECK(config_.enabled);
    if (config_.policy == PersistPolicy::Lazy)
        MORPH_CHECK(config_.epochWrites >= 1);
}

std::uint64_t
PersistDomain::entryHash(LineAddr line, const CachelineData &image) const
{
    std::uint8_t buf[sizeof(LineAddr) + lineBytes];
    std::memcpy(buf, &line, sizeof(line));
    std::memcpy(buf + sizeof(line), image.data(), lineBytes);
    return siphash24(buf, sizeof(buf), persistKey);
}

void
PersistDomain::persistLine(LineAddr line, const CachelineData &image,
                           bool foldDigest)
{
    ++stats_.linePersists;
    DurableMap::value_type &node = *durable_.try_emplace(line).first;
    DurableLine &entry = node.second;
    if (!foldDigest) {
        // The digest must not move. A deferred line now owes
        // H(new image), so durableDigest_ absorbs the difference; a
        // folded line keeps its old term in durableDigest_ but caches
        // H(new image), the term its next folded persist XORs out.
        const std::uint64_t hash = entryHash(line, image);
        if (entry.deferred)
            durableDigest_ ^= entryHash(line, entry.image) ^ hash;
        entry.hash = hash;
        entry.image = image;
        return;
    }
    entry.image = image;
    if (entry.deferred)
        return;
    durableDigest_ ^= entry.hash;
    entry.deferred = true;
    deferred_.push_back(&node);
}

std::uint64_t
PersistDomain::currentDigest() const
{
    std::uint64_t digest = durableDigest_;
    for (const DurableMap::value_type *node : deferred_)
        digest ^= entryHash(node->first, node->second.image);
    return digest;
}

void
PersistDomain::foldDeferred()
{
    for (DurableMap::value_type *node : deferred_) {
        DurableLine &entry = node->second;
        entry.hash = entryHash(node->first, entry.image);
        entry.deferred = false;
        durableDigest_ ^= entry.hash;
    }
    deferred_.clear();
}

void
PersistDomain::appendUndo(LineAddr line)
{
    UndoRecord record;
    record.line = line;
    const auto it = durable_.find(line);
    record.hadPrev = it != durable_.end();
    if (record.hadPrev)
        record.prev = it->second.image;
    else
        record.prev = CachelineData{};
    undoLog_.push_back(record);
    ++stats_.logAppends;
}

void
PersistDomain::commitRoot()
{
    rootIsDigest_ = true;
    mutationsSinceRoot_ = 0;
    ++stats_.rootPersists;
}

void
PersistDomain::onEntryUpdate(unsigned level, LineAddr line,
                             const CachelineData &image)
{
    ++stats_.entryMutations;
    ++mutationsSinceRoot_;
    if (config_.policy == PersistPolicy::Strict) {
        // Write-ahead ordering: the line reaches NVM, then the root
        // atomically re-commits — durable state tracks volatile state
        // mutation by mutation. The broken fixture persists the line
        // but commits a root computed *before* the tree write, the
        // classic unpersisted-tree-write bug.
        const bool fold = !(config_.brokenSkipTreePersist && level >= 1);
        persistLine(line, image, fold);
        commitRoot();
        return;
    }
    // Lazy: the mutation stays on-chip until eviction or a barrier.
    pendingLines_[line] = image;
}

void
PersistDomain::onDirtyWriteback(unsigned level, LineAddr line,
                                const CachelineData &image)
{
    if (config_.policy == PersistPolicy::Strict)
        return; // already persisted at mutation time
    // The dirty line leaves the chip, so NVM takes the new image now,
    // ahead of the root: log the durable pre-image first so recovery
    // can roll back to the state the persisted root covers. The
    // broken fixture drops the log record for tree-level lines.
    if (!(config_.brokenSkipTreePersist && level >= 1))
        appendUndo(line);
    // The persist moves the digest past the committed root, so the
    // root needs its own value from here on.
    if (rootIsDigest_) {
        foldDeferred();
        persistedRoot_ = durableDigest_;
        rootIsDigest_ = false;
    }
    persistLine(line, image, true);
    pendingLines_.erase(line);
}

void
PersistDomain::onDataWrite()
{
    if (config_.policy != PersistPolicy::Lazy)
        return;
    if (++epochClock_ < config_.epochWrites)
        return;
    epochClock_ = 0;
    barrier();
}

void
PersistDomain::barrier()
{
    // Flush every pending mutation (XOR digest: iteration order is
    // irrelevant), truncate the log, re-commit the root.
    // morphflow: allow(nondet-iter): XOR digest is order-independent
    for (const auto &[line, image] : pendingLines_) {
        persistLine(line, image, true);
        ++stats_.barrierFlushes;
    }
    pendingLines_.clear();
    undoLog_.clear();
    commitRoot();
    ++stats_.barriers;
}

void
PersistDomain::finish()
{
    if (config_.policy != PersistPolicy::Lazy)
        return;
    if (pendingLines_.empty() && undoLog_.empty() &&
        mutationsSinceRoot_ == 0)
        return;
    epochClock_ = 0;
    barrier();
}

RecoveryReport
PersistDomain::recover() const
{
    RecoveryReport report;

    // Roll the write-ahead log back: a line's recovered image is the
    // pre-image in its oldest undo record.
    std::unordered_map<LineAddr, const UndoRecord *> oldest;
    for (const UndoRecord &record : undoLog_)
        oldest.try_emplace(record.line, &record);
    report.rolledBack = undoLog_.size();

    // Re-derive the root from the recovered lines, exactly as a
    // post-crash verifier must. A folded line's cached hash is
    // H(line, image); a deferred line is hashed here, once, and the
    // same hash pays what it owes to the current digest. Undo records
    // come only from lazy writebacks, each of which pins the root, so
    // a rolled-back line never feeds the current digest.
    MORPH_CHECK(undoLog_.empty() || !rootIsDigest_);
    std::uint64_t digest = 0;
    std::uint64_t current = durableDigest_;
    // morphflow: allow(nondet-iter): XOR fold is order-independent
    for (const auto &[line, entry] : durable_) {
        const auto undo = oldest.find(line);
        if (undo != oldest.end()) {
            if (undo->second->hadPrev) {
                digest ^= entryHash(line, undo->second->prev);
                ++report.durableEntries;
            }
            continue;
        }
        std::uint64_t hash = entry.hash;
        if (entry.deferred) {
            hash = entryHash(line, entry.image);
            current ^= hash;
        }
        digest ^= hash;
        ++report.durableEntries;
    }

    report.recoveredDigest = digest;
    report.persistedRoot = rootIsDigest_ ? current : persistedRoot_;
    report.consistent = digest == report.persistedRoot;
    report.lostWrites = mutationsSinceRoot_;
    return report;
}

std::uint64_t
PersistDomain::durableFingerprint() const
{
    const std::uint64_t digest = currentDigest();
    std::uint64_t fp = digest;
    fp = mix64(fp, rootIsDigest_ ? digest : persistedRoot_);
    fp = mix64(fp, std::uint64_t(undoLog_.size()));
    for (const UndoRecord &record : undoLog_)
        fp = mix64(fp, entryHash(record.line, record.prev) ^
                           (record.hadPrev ? 1u : 0u));
    // Pending set: XOR fold, order-independent by construction.
    std::uint64_t pendingHash = 0;
    // morphflow: allow(nondet-iter): XOR fold is order-independent
    for (const auto &[line, image] : pendingLines_)
        pendingHash ^= entryHash(line, image);
    fp = mix64(fp, pendingHash);
    fp = mix64(fp, mutationsSinceRoot_);
    return fp;
}

} // namespace morph
