/**
 * @file
 * Unit tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace morph
{
namespace
{

TEST(Cache, Construction)
{
    Cache cache(128 * 1024, 8);
    EXPECT_EQ(cache.sizeBytes(), 128u * 1024);
    EXPECT_EQ(cache.ways(), 8u);
    EXPECT_EQ(cache.numSets(), 128u * 1024 / 64 / 8);
}

TEST(Cache, MissThenHit)
{
    Cache cache(4096, 4);
    EXPECT_FALSE(cache.access(1));
    cache.insert(1, false);
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruVictimSelection)
{
    // One set: 4 ways, 1 set (4 * 64 = 256 bytes).
    Cache cache(256, 4);
    for (LineAddr line = 0; line < 4; ++line)
        cache.insert(line, false);
    // Touch 0 so 1 becomes LRU.
    cache.access(0);
    const auto evicted = cache.insert(100, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 1u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(256, 4);
    cache.insert(1, true);
    for (LineAddr line = 2; line <= 4; ++line)
        cache.insert(line, false);
    const auto evicted = cache.insert(5, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 1u);
    EXPECT_TRUE(evicted->dirty);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteAccessSetsDirty)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    cache.access(1, true);
    const auto evicted = cache.invalidate(1);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->dirty);
}

TEST(Cache, MarkDirty)
{
    Cache cache(256, 4);
    EXPECT_FALSE(cache.markDirty(9));
    cache.insert(9, false);
    EXPECT_TRUE(cache.markDirty(9));
    EXPECT_TRUE(cache.invalidate(9)->dirty);
}

TEST(Cache, InsertExistingUpdatesDirtyOnly)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    const auto evicted = cache.insert(1, true);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_TRUE(cache.invalidate(1)->dirty);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, SetIsolation)
{
    // Lines mapping to different sets never evict each other.
    Cache cache(4096, 2); // 32 sets
    const std::size_t sets = cache.numSets();
    for (LineAddr line = 0; line < sets; ++line)
        EXPECT_FALSE(cache.insert(line, false).has_value());
    for (LineAddr line = 0; line < sets; ++line)
        EXPECT_TRUE(cache.contains(line));
}

TEST(Cache, ConflictWithinSet)
{
    Cache cache(4096, 2); // 32 sets, 2 ways
    const std::size_t sets = cache.numSets();
    // Three lines in the same set: first one evicted.
    cache.insert(0, false);
    cache.insert(sets, false);
    const auto evicted = cache.insert(2 * sets, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 0u);
}

TEST(Cache, ContainsDoesNotTouchLruOrStats)
{
    Cache cache(256, 2); // 2 sets: even lines map to set 0
    cache.insert(0, false);
    cache.insert(2, false);
    const auto hits = cache.stats().hits;
    // contains() must not promote line 0 to MRU.
    EXPECT_TRUE(cache.contains(0));
    EXPECT_EQ(cache.stats().hits, hits);
    const auto evicted = cache.insert(4, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 0u);
}

TEST(Cache, FlushDropsEverything)
{
    Cache cache(256, 4);
    for (LineAddr line = 0; line < 4; ++line)
        cache.insert(line, true);
    cache.flush();
    for (LineAddr line = 0; line < 4; ++line)
        EXPECT_FALSE(cache.contains(line));
}

TEST(Cache, ForEachVisitsValidLines)
{
    Cache cache(256, 4);
    cache.insert(1, true);
    cache.insert(2, false);
    unsigned count = 0, dirty = 0;
    cache.forEach([&](LineAddr, bool d) {
        ++count;
        dirty += d;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(dirty, 1u);
}

TEST(Cache, HitRate)
{
    Cache cache(256, 4);
    cache.insert(1, false);
    cache.access(1);
    cache.access(2);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(Cache, AccessOrInsertHitsOrFillsInOnePass)
{
    Cache cache(256, 4); // one set
    const CacheFill miss = cache.accessOrInsert(7, true);
    EXPECT_FALSE(miss.hit);
    EXPECT_FALSE(miss.evicted.has_value());
    EXPECT_TRUE(cache.contains(7));
    EXPECT_EQ(cache.stats().misses, 1u);

    const CacheFill hit = cache.accessOrInsert(7, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    for (LineAddr line = 8; line < 11; ++line)
        cache.accessOrInsert(line, false);
    const CacheFill evict = cache.accessOrInsert(11, false);
    EXPECT_FALSE(evict.hit);
    ASSERT_TRUE(evict.evicted.has_value());
    EXPECT_EQ(evict.evicted->line, 7u); // least recently used
    EXPECT_TRUE(evict.evicted->dirty);  // filled by a write
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

/**
 * The Way-array LRU cache that the packed-tag Cache replaced, kept
 * verbatim as the reference: an array of {line, lastUse, valid,
 * dirty} per way, victim = first invalid way, else the first way with
 * the smallest lastUse.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t size_bytes, unsigned ways)
        : numSets_(size_bytes / (std::size_t(ways) * lineBytes)),
          ways_(ways), lines_(numSets_ * ways)
    {}

    bool
    access(LineAddr line, bool write)
    {
        Way *way = find(line);
        if (way) {
            way->lastUse = ++useClock_;
            way->dirty = way->dirty || write;
            ++stats_.hits;
            return true;
        }
        ++stats_.misses;
        return false;
    }

    bool contains(LineAddr line) { return find(line) != nullptr; }

    std::optional<Eviction>
    insert(LineAddr line, bool dirty, InsertPosition position)
    {
        if (Way *hit = find(line)) {
            hit->lastUse = ++useClock_;
            hit->dirty = hit->dirty || dirty;
            return std::nullopt;
        }
        Way *base = &lines_[setOf(line) * ways_];
        Way *victim = &base[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        std::optional<Eviction> evicted;
        if (victim->valid) {
            evicted = Eviction{victim->line, victim->dirty};
            ++stats_.evictions;
            if (victim->dirty)
                ++stats_.dirtyEvictions;
        }
        victim->line = line;
        victim->valid = true;
        victim->dirty = dirty;
        if (position == InsertPosition::Mru) {
            victim->lastUse = ++useClock_;
        } else {
            std::uint64_t lowest = ~std::uint64_t(0);
            for (unsigned w = 0; w < ways_; ++w) {
                if (base[w].valid && &base[w] != victim)
                    lowest = std::min(lowest, base[w].lastUse);
            }
            victim->lastUse = lowest == ~std::uint64_t(0) || lowest == 0
                                  ? 0
                                  : lowest - 1;
        }
        return evicted;
    }

    CacheFill
    accessOrInsert(LineAddr line, bool write, InsertPosition position)
    {
        if (access(line, write))
            return {true, std::nullopt};
        return {false, insert(line, write, position)};
    }

    bool
    markDirty(LineAddr line)
    {
        if (Way *way = find(line)) {
            way->dirty = true;
            return true;
        }
        return false;
    }

    std::optional<Eviction>
    invalidate(LineAddr line)
    {
        if (Way *way = find(line)) {
            const Eviction ev{way->line, way->dirty};
            way->valid = false;
            way->dirty = false;
            return ev;
        }
        return std::nullopt;
    }

    void
    flush()
    {
        for (auto &way : lines_) {
            way.valid = false;
            way.dirty = false;
        }
    }

    std::vector<std::pair<LineAddr, bool>>
    contents() const
    {
        std::vector<std::pair<LineAddr, bool>> out;
        for (const auto &way : lines_)
            if (way.valid)
                out.emplace_back(way.line, way.dirty);
        return out;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        LineAddr line = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::size_t setOf(LineAddr line) const { return line % numSets_; }

    Way *
    find(LineAddr line)
    {
        Way *base = &lines_[setOf(line) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].line == line)
                return &base[w];
        return nullptr;
    }

    std::size_t numSets_;
    unsigned ways_;
    std::vector<Way> lines_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

std::vector<std::pair<LineAddr, bool>>
contentsOf(const Cache &cache)
{
    std::vector<std::pair<LineAddr, bool>> out;
    cache.forEach([&](LineAddr line, bool dirty) {
        out.emplace_back(line, dirty);
    });
    return out;
}

bool
sameEviction(const std::optional<Eviction> &a,
             const std::optional<Eviction> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || (a->line == b->line && a->dirty == b->dirty);
}

/**
 * Drive the packed-tag cache and the Way-array reference with one
 * seeded random stream of every operation and compare each result,
 * the statistics and the full contents after every step.
 */
void
checkAgainstReference(std::size_t sets, unsigned ways, std::uint64_t seed)
{
    const std::size_t bytes = sets * ways * lineBytes;
    Cache cache(bytes, ways);
    ReferenceCache ref(bytes, ways);
    ASSERT_EQ(cache.numSets(), sets);
    Rng rng(seed);
    // Three lines per way on average, so sets overflow and evict; a
    // high base keeps the line values away from small integers.
    const std::uint64_t span = sets * ways * 3;
    const LineAddr base = LineAddr(1) << 40;
    for (unsigned step = 0; step < 4000; ++step) {
        const LineAddr line = base + rng.below(span);
        const bool flag = rng.chance(0.5);
        const InsertPosition pos = rng.chance(0.3) ? InsertPosition::Lru
                                                   : InsertPosition::Mru;
        const std::uint64_t op = rng.below(100);
        SCOPED_TRACE("step " + std::to_string(step) + ", op " +
                     std::to_string(op) + ", line " +
                     std::to_string(line));
        if (op < 25) {
            ASSERT_EQ(cache.access(line, flag), ref.access(line, flag));
        } else if (op < 45) {
            ASSERT_TRUE(sameEviction(cache.insert(line, flag, pos),
                                     ref.insert(line, flag, pos)));
        } else if (op < 75) {
            const CacheFill got = cache.accessOrInsert(line, flag, pos);
            const CacheFill want = ref.accessOrInsert(line, flag, pos);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_TRUE(sameEviction(got.evicted, want.evicted));
        } else if (op < 85) {
            ASSERT_EQ(cache.markDirty(line), ref.markDirty(line));
        } else if (op < 93) {
            ASSERT_TRUE(
                sameEviction(cache.invalidate(line), ref.invalidate(line)));
        } else if (op < 99) {
            ASSERT_EQ(cache.contains(line), ref.contains(line));
        } else {
            cache.flush();
            ref.flush();
        }
        const CacheStats &a = cache.stats();
        const CacheStats &b = ref.stats();
        ASSERT_EQ(a.hits, b.hits);
        ASSERT_EQ(a.misses, b.misses);
        ASSERT_EQ(a.evictions, b.evictions);
        ASSERT_EQ(a.dirtyEvictions, b.dirtyEvictions);
        ASSERT_EQ(contentsOf(cache), ref.contents());
    }
}

TEST(CacheReference, MatchesWayArrayLruOverRandomStreams)
{
    for (const unsigned ways : {1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
        for (const std::size_t sets : {std::size_t(1), std::size_t(4),
                                       std::size_t(16), std::size_t(3),
                                       std::size_t(5), std::size_t(13)}) {
            for (const std::uint64_t seed : {1ull, 2ull}) {
                SCOPED_TRACE("ways " + std::to_string(ways) + ", sets " +
                             std::to_string(sets) + ", seed " +
                             std::to_string(seed));
                checkAgainstReference(sets, ways, seed);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(CacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache(100, 3), ::testing::ExitedWithCode(1), "cache");
}

} // namespace
} // namespace morph
