/**
 * @file
 * Tests for the NVM persist domain: recoverability under both root
 * policies, write-ahead rollback, the broken-fixture exposure, the
 * lazy digest against an eager reference, and the pure-observer
 * invariant against the volatile model.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "crypto/siphash.hh"
#include "secmem/persist_domain.hh"
#include "sim/simulator.hh"

namespace morph
{
namespace
{

CachelineData
image(std::uint8_t seed)
{
    CachelineData data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(seed + i);
    return data;
}

PersistConfig
lazyConfig(std::uint64_t epoch_writes)
{
    PersistConfig config;
    config.enabled = true;
    config.policy = PersistPolicy::Lazy;
    config.epochWrites = epoch_writes;
    return config;
}

PersistConfig
strictConfig()
{
    PersistConfig config;
    config.enabled = true;
    config.policy = PersistPolicy::Strict;
    return config;
}

TEST(PersistDomain, StrictAlwaysRecoverable)
{
    PersistDomain domain(strictConfig());
    for (unsigned step = 0; step < 64; ++step) {
        const unsigned level = step % 3;
        domain.onEntryUpdate(level, LineAddr(0x1000 + step % 7),
                             image(std::uint8_t(step)));
        const RecoveryReport report = domain.recover();
        EXPECT_TRUE(report.consistent) << "step " << step;
        EXPECT_EQ(report.rolledBack, 0u);
        EXPECT_EQ(report.lostWrites, 0u);
    }
    // Every mutation persisted its line and re-committed the root.
    EXPECT_EQ(domain.stats().linePersists, 64u);
    EXPECT_EQ(domain.stats().rootPersists, 64u);
    EXPECT_EQ(domain.stats().logAppends, 0u);
}

TEST(PersistDomain, StrictWritebackIsPersistNoop)
{
    PersistDomain domain(strictConfig());
    domain.onEntryUpdate(0, LineAddr(0x10), image(1));
    const std::uint64_t persists = domain.stats().linePersists;
    // The eviction writes a line strict already persisted.
    domain.onDirtyWriteback(0, LineAddr(0x10), image(1));
    EXPECT_EQ(domain.stats().linePersists, persists);
    EXPECT_TRUE(domain.recover().consistent);
}

TEST(PersistDomain, LazyRecoverableAtArbitraryCuts)
{
    // Interleave pends, write-ahead evictions and epoch clocks; the
    // durable state must be recoverable after every single step.
    PersistDomain domain(lazyConfig(8));
    for (unsigned step = 0; step < 200; ++step) {
        const LineAddr line = LineAddr(0x2000 + step % 11);
        switch (step % 4) {
        case 0:
            domain.onEntryUpdate(0, line, image(std::uint8_t(step)));
            break;
        case 1:
            domain.onEntryUpdate(1, line, image(std::uint8_t(step)));
            break;
        case 2:
            domain.onDirtyWriteback(step % 2, line,
                                    image(std::uint8_t(step)));
            break;
        default:
            domain.onDataWrite();
            break;
        }
        EXPECT_TRUE(domain.recover().consistent) << "step " << step;
    }
    EXPECT_GT(domain.stats().barriers, 0u);
    EXPECT_GT(domain.stats().logAppends, 0u);
}

TEST(PersistDomain, LazyRollsBackUnbarrieredWritebacks)
{
    PersistDomain domain(lazyConfig(1ull << 30));
    domain.onEntryUpdate(0, LineAddr(0x30), image(1));
    domain.onDirtyWriteback(0, LineAddr(0x30), image(1));
    domain.onEntryUpdate(1, LineAddr(0x31), image(2));
    domain.onDirtyWriteback(1, LineAddr(0x31), image(2));

    // No barrier has committed the root, so both persists sit behind
    // undo records and recovery must roll them back to reach the
    // (empty) committed state.
    const RecoveryReport report = domain.recover();
    EXPECT_TRUE(report.consistent);
    EXPECT_EQ(report.rolledBack, 2u);
    EXPECT_EQ(report.durableEntries, 0u);
    EXPECT_GT(report.lostWrites, 0u);
}

TEST(PersistDomain, EpochBarrierFires)
{
    PersistDomain domain(lazyConfig(4));
    domain.onEntryUpdate(0, LineAddr(0x40), image(7));
    for (int i = 0; i < 4; ++i)
        domain.onDataWrite();
    EXPECT_EQ(domain.stats().barriers, 1u);
    EXPECT_EQ(domain.stats().barrierFlushes, 1u);
    EXPECT_EQ(domain.pendingEntries(), 0u);
    // After the barrier the committed root covers everything: nothing
    // to roll back, nothing lost.
    const RecoveryReport report = domain.recover();
    EXPECT_TRUE(report.consistent);
    EXPECT_EQ(report.rolledBack, 0u);
    EXPECT_EQ(report.lostWrites, 0u);
}

TEST(PersistDomain, FinishDrainsPending)
{
    PersistDomain domain(lazyConfig(1ull << 30));
    domain.onEntryUpdate(0, LineAddr(0x50), image(3));
    domain.onDirtyWriteback(1, LineAddr(0x51), image(4));
    EXPECT_EQ(domain.pendingEntries(), 1u);

    domain.finish();
    EXPECT_EQ(domain.pendingEntries(), 0u);
    EXPECT_EQ(domain.stats().barriers, 1u);
    const RecoveryReport report = domain.recover();
    EXPECT_TRUE(report.consistent);
    EXPECT_EQ(report.rolledBack, 0u);
    EXPECT_EQ(report.lostWrites, 0u);
    EXPECT_EQ(report.durableEntries, 2u);
}

TEST(PersistDomain, BrokenStrictTreePersistCaught)
{
    PersistConfig config = strictConfig();
    config.brokenSkipTreePersist = true;
    PersistDomain domain(config);
    // Level-0 persists stay correct...
    domain.onEntryUpdate(0, LineAddr(0x60), image(1));
    EXPECT_TRUE(domain.recover().consistent);
    // ...but the first tree-level mutation skips its root obligation
    // and the persisted root no longer covers the durable image.
    domain.onEntryUpdate(1, LineAddr(0x61), image(2));
    EXPECT_FALSE(domain.recover().consistent);
}

TEST(PersistDomain, BrokenLazyTreePersistCaught)
{
    PersistConfig config = lazyConfig(1ull << 30);
    config.brokenSkipTreePersist = true;
    PersistDomain domain(config);
    domain.onEntryUpdate(1, LineAddr(0x70), image(5));
    // The broken writeback persists the line without its write-ahead
    // undo record: recovery cannot roll it back to the committed
    // state and the digests diverge.
    domain.onDirtyWriteback(1, LineAddr(0x70), image(5));
    EXPECT_FALSE(domain.recover().consistent);
}

TEST(PersistDomain, FingerprintTracksDurableState)
{
    PersistDomain a(lazyConfig(8));
    PersistDomain b(lazyConfig(8));
    EXPECT_EQ(a.durableFingerprint(), b.durableFingerprint());

    a.onEntryUpdate(0, LineAddr(0x80), image(1));
    EXPECT_NE(a.durableFingerprint(), b.durableFingerprint());

    b.onEntryUpdate(0, LineAddr(0x80), image(1));
    EXPECT_EQ(a.durableFingerprint(), b.durableFingerprint());
}

TEST(PersistDomain, ObserverDoesNotPerturbSimulation)
{
    // Enabling the persist domain must not move a single volatile
    // number: same cycles, traffic and cache behaviour, only the
    // persist counters differ.
    SimOptions options;
    options.accessesPerCore = 4'000;
    options.warmupPerCore = 1'000;
    options.timing = true;

    SecureModelConfig plain;
    plain.tree = TreeConfig::morph();

    SecureModelConfig persisted = plain;
    persisted.persist.enabled = true;
    persisted.persist.policy = PersistPolicy::Lazy;
    persisted.persist.epochWrites = 64;

    const SimResult base = runByName("mcf", plain, options);
    const SimResult nvm = runByName("mcf", persisted, options);

    EXPECT_EQ(base.cycles, nvm.cycles);
    EXPECT_EQ(base.ipc, nvm.ipc);
    EXPECT_EQ(base.dram.reads, nvm.dram.reads);
    EXPECT_EQ(base.dram.writes, nvm.dram.writes);
    for (unsigned t = 0; t < numTrafficCategories; ++t) {
        EXPECT_EQ(base.traffic.reads[t], nvm.traffic.reads[t]);
        EXPECT_EQ(base.traffic.writes[t], nvm.traffic.writes[t]);
    }
    EXPECT_EQ(base.persist.linePersists, 0u);
    EXPECT_GT(nvm.persist.linePersists, 0u);
}

/**
 * The eager digest bookkeeping the lazy fold replaces: every persist
 * XORs H(line, old image) out of the digest and H(line, new image) in,
 * and a commit stores the digest's value as the root. Persist policy,
 * undo log, pending set and broken fixture follow PersistDomain.
 */
class EagerReference
{
  public:
    explicit EagerReference(const PersistConfig &config) : config_(config)
    {
    }

    void
    onEntryUpdate(unsigned level, LineAddr line, const CachelineData &img)
    {
        ++mutationsSinceRoot_;
        if (config_.policy == PersistPolicy::Strict) {
            persistLine(line, img, !(broken() && level >= 1));
            commitRoot();
            return;
        }
        pending_[line] = img;
    }

    void
    onDirtyWriteback(unsigned level, LineAddr line,
                     const CachelineData &img)
    {
        if (config_.policy == PersistPolicy::Strict)
            return;
        if (!(broken() && level >= 1)) {
            const auto it = durable_.find(line);
            const bool had = it != durable_.end();
            undo_.push_back(
                {line, had, had ? it->second : CachelineData{}});
        }
        persistLine(line, img, true);
        pending_.erase(line);
    }

    void
    onDataWrite()
    {
        if (config_.policy == PersistPolicy::Lazy &&
            ++epochClock_ >= config_.epochWrites)
            barrier();
    }

    void
    finish()
    {
        if (config_.policy == PersistPolicy::Lazy &&
            !(pending_.empty() && undo_.empty() &&
              mutationsSinceRoot_ == 0))
            barrier();
    }

    RecoveryReport
    recover() const
    {
        RecoveryReport report;
        std::unordered_map<LineAddr, CachelineData> recovered = durable_;
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
            if (it->hadPrev)
                recovered[it->line] = it->prev;
            else
                recovered.erase(it->line);
            ++report.rolledBack;
        }
        std::uint64_t digest = 0;
        for (const auto &[line, img] : recovered)
            digest ^= hash(line, img);
        report.durableEntries = recovered.size();
        report.recoveredDigest = digest;
        report.persistedRoot = root_;
        report.consistent = digest == root_;
        report.lostWrites = mutationsSinceRoot_;
        return report;
    }

    std::uint64_t
    durableFingerprint() const
    {
        std::uint64_t fp = digest_;
        fp = mix64(fp, root_);
        fp = mix64(fp, std::uint64_t(undo_.size()));
        for (const Undo &record : undo_)
            fp = mix64(fp, hash(record.line, record.prev) ^
                               (record.hadPrev ? 1u : 0u));
        std::uint64_t pendingHash = 0;
        for (const auto &[line, img] : pending_)
            pendingHash ^= hash(line, img);
        fp = mix64(fp, pendingHash);
        return mix64(fp, mutationsSinceRoot_);
    }

  private:
    struct Undo
    {
        LineAddr line;
        bool hadPrev;
        CachelineData prev;
    };

    static std::uint64_t
    hash(LineAddr line, const CachelineData &img)
    {
        static const SipKey key = {0x6d, 0x6f, 0x72, 0x70, 0x68, 0x70,
                                   0x65, 0x72, 0x73, 0x69, 0x73, 0x74,
                                   0x6b, 0x65, 0x79, 0x30};
        std::uint8_t buf[sizeof(LineAddr) + lineBytes];
        std::memcpy(buf, &line, sizeof(line));
        std::memcpy(buf + sizeof(line), img.data(), lineBytes);
        return siphash24(buf, sizeof(buf), key);
    }

    static std::uint64_t
    mix64(std::uint64_t h, std::uint64_t v)
    {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
        return h;
    }

    bool broken() const { return config_.brokenSkipTreePersist; }

    void
    persistLine(LineAddr line, const CachelineData &img, bool fold)
    {
        const auto it = durable_.find(line);
        if (fold) {
            if (it != durable_.end())
                digest_ ^= hash(line, it->second);
            digest_ ^= hash(line, img);
        }
        durable_[line] = img;
    }

    void
    commitRoot()
    {
        root_ = digest_;
        mutationsSinceRoot_ = 0;
    }

    void
    barrier()
    {
        epochClock_ = 0;
        for (const auto &[line, img] : pending_)
            persistLine(line, img, true);
        pending_.clear();
        undo_.clear();
        commitRoot();
    }

    PersistConfig config_;
    std::unordered_map<LineAddr, CachelineData> durable_;
    std::unordered_map<LineAddr, CachelineData> pending_;
    std::vector<Undo> undo_;
    std::uint64_t digest_ = 0;
    std::uint64_t root_ = 0;
    std::uint64_t epochClock_ = 0;
    std::uint64_t mutationsSinceRoot_ = 0;
};

TEST(PersistDomain, LazyDigestMatchesEagerReference)
{
    struct Case
    {
        const char *name;
        PersistConfig config;
    };
    std::vector<Case> cases = {{"strict", strictConfig()},
                               {"lazy-1", lazyConfig(1)},
                               {"lazy-7", lazyConfig(7)},
                               {"lazy-4096", lazyConfig(4096)},
                               {"broken-strict", strictConfig()},
                               {"broken-lazy-7", lazyConfig(7)}};
    cases[4].config.brokenSkipTreePersist = true;
    cases[5].config.brokenSkipTreePersist = true;

    for (const Case &c : cases) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string(c.name) + " seed " +
                         std::to_string(seed));
            PersistDomain lazy(c.config);
            EagerReference eager(c.config);
            Rng rng(seed);
            for (unsigned step = 0; step < 2000; ++step) {
                // Half the traffic hits four hot lines, so lines are
                // re-persisted while deferred, folded and rolled back.
                const LineAddr line = LineAddr(
                    0x9000 + (rng.chance(0.5) ? rng.below(4)
                                              : rng.below(40)));
                const unsigned level = unsigned(rng.below(3));
                const CachelineData img =
                    image(std::uint8_t(rng.below(8)));
                const std::uint64_t op = rng.below(100);
                if (op < 40) {
                    lazy.onEntryUpdate(level, line, img);
                    eager.onEntryUpdate(level, line, img);
                } else if (op < 65) {
                    lazy.onDirtyWriteback(level, line, img);
                    eager.onDirtyWriteback(level, line, img);
                } else if (op < 98) {
                    lazy.onDataWrite();
                    eager.onDataWrite();
                } else {
                    lazy.finish();
                    eager.finish();
                }

                const RecoveryReport got = lazy.recover();
                const RecoveryReport want = eager.recover();
                ASSERT_EQ(got.consistent, want.consistent) << step;
                ASSERT_EQ(got.durableEntries, want.durableEntries) << step;
                ASSERT_EQ(got.rolledBack, want.rolledBack) << step;
                ASSERT_EQ(got.lostWrites, want.lostWrites) << step;
                ASSERT_EQ(got.recoveredDigest, want.recoveredDigest)
                    << step;
                ASSERT_EQ(got.persistedRoot, want.persistedRoot) << step;
                ASSERT_EQ(lazy.durableFingerprint(),
                          eager.durableFingerprint())
                    << step;
            }
        }
    }
}

} // namespace
} // namespace morph
