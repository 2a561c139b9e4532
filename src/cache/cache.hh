/**
 * @file
 * Generic set-associative write-back cache model.
 *
 * Models presence and dirtiness only — payloads live in the backing
 * stores of the components that use the cache. Used for the shared
 * metadata cache that holds encryption-counter and integrity-tree
 * lines (128 KB, 8-way in the paper's baseline).
 *
 * Replacement is exact LRU. Each set is stored packed: its ways' tags,
 * then their LRU stamps, side by side in one set-major array (16 bytes
 * per way, so an 8-way set spans two host cachelines), with the dirty
 * bits in a parallel byte array. An empty way holds the invalidTag
 * sentinel and stamp 0; a valid way's stamp is its last-use clock
 * plus one. The victim is therefore simply the first way with the
 * smallest stamp — the first empty way, else the first least recently
 * used one — and both the tag compare and the victim pick run over
 * every way without data-dependent branches. accessOrInsert() does a
 * lookup and, on a miss, the fill in that one scan of the set. The
 * set index is a mask when the set count is a power of two.
 *
 * Dirty evictions are reported to the caller through the return value
 * of insert()/accessOrInsert() so that the secure memory controller
 * can propagate counter write-back traffic up the integrity tree.
 */

#ifndef MORPH_CACHE_CACHE_HH
#define MORPH_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace morph
{

/** A line evicted from the cache. */
struct Eviction
{
    LineAddr line;
    bool dirty;
};

/** Replacement-stack position for newly inserted lines. */
enum class InsertPosition : std::uint8_t
{
    Mru, ///< normal insertion (most recently used)
    Lru, ///< demoted insertion: first victim unless re-referenced
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? double(hits) / double(total) : 0.0;
    }
};

/** Outcome of Cache::accessOrInsert(). */
struct CacheFill
{
    bool hit = false;
    std::optional<Eviction> evicted; ///< valid line displaced on a miss
};

/** Set-associative LRU cache over 64-byte lines. */
class Cache
{
  public:
    /** Tag of an empty way; never a line address. */
    static constexpr LineAddr invalidTag = ~LineAddr(0);

    /**
     * @param size_bytes total capacity; must be a multiple of
     *                   ways * lineBytes
     * @param ways       associativity
     */
    Cache(std::size_t size_bytes, unsigned ways);

    /**
     * Look up @p line; updates LRU on hit.
     *
     * @param line  line to access
     * @param write if true and the line hits, mark it dirty
     * @retval true on hit
     */
    bool access(LineAddr line, bool write = false);

    /** Probe without updating replacement state or statistics. */
    bool contains(LineAddr line) const;

    /**
     * Insert @p line (assumed missing; inserting a present line just
     * updates its dirty bit and LRU position).
     *
     * @param position stack position for the new line; Lru implements
     *        type-aware demotion (metadata classes with little reuse
     *        can be inserted as the next victim)
     * @return the victim line if a valid line had to be evicted
     */
    std::optional<Eviction> insert(LineAddr line, bool dirty,
                                   InsertPosition position =
                                       InsertPosition::Mru);

    /**
     * access(@p line, @p write) and, on a miss, insert(@p line,
     * @p write, @p position) in one scan of the set: same statistics,
     * same replacement state, same victim.
     */
    CacheFill accessOrInsert(LineAddr line, bool write,
                             InsertPosition position =
                                 InsertPosition::Mru);

    /** Mark a (present) line dirty; returns false if absent. */
    bool markDirty(LineAddr line);

    /** Remove a line if present; returns its eviction record. */
    std::optional<Eviction> invalidate(LineAddr line);

    /** Drop all contents (statistics are preserved). */
    void flush();

    /** Walk all valid lines in set-major, way order, invoking
     *  @p fn(line, dirty). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t set = 0; set < numSets_; ++set) {
            const LineAddr *tags = tagsOf(set);
            const std::uint64_t *stamps = stampsOf(set);
            const std::uint8_t *dirty = dirtyOf(set);
            for (unsigned w = 0; w < ways_; ++w)
                if (stamps[w] != 0)
                    fn(tags[w], dirty[w] != 0);
        }
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::size_t sizeBytes() const { return numSets_ * ways_ * lineBytes; }
    unsigned ways() const { return ways_; }
    std::size_t numSets() const { return numSets_; }

  private:
    std::size_t
    setOf(LineAddr line) const
    {
        return pow2Sets_ ? std::size_t(line & setMask_)
                         : std::size_t(line % numSets_);
    }

    LineAddr *tagsOf(std::size_t set) { return &slots_[set * 2 * ways_]; }
    const LineAddr *
    tagsOf(std::size_t set) const
    {
        return &slots_[set * 2 * ways_];
    }
    std::uint64_t *stampsOf(std::size_t set) { return tagsOf(set) + ways_; }
    const std::uint64_t *
    stampsOf(std::size_t set) const
    {
        return tagsOf(set) + ways_;
    }
    std::uint8_t *dirtyOf(std::size_t set) { return &dirty_[set * ways_]; }
    const std::uint8_t *
    dirtyOf(std::size_t set) const
    {
        return &dirty_[set * ways_];
    }

    /** The way holding a line (ways_ when absent) and the way a fill
     *  of the set would evict. */
    struct Probe
    {
        unsigned hit;
        unsigned victim;
    };
    Probe probe(std::size_t set, LineAddr line) const;

    /** Make @p way of @p set most recently used; or in @p dirty. */
    void touch(std::size_t set, unsigned way, bool dirty);

    /** Place @p line into @p way of @p set, evicting its occupant. */
    std::optional<Eviction> fill(std::size_t set, unsigned way,
                                 LineAddr line, bool dirty,
                                 InsertPosition position);

    std::size_t numSets_;
    unsigned ways_;
    bool pow2Sets_;
    LineAddr setMask_;
    /** Per set, set-major: ways_ tags, then ways_ stamps. */
    std::vector<std::uint64_t> slots_;
    std::vector<std::uint8_t> dirty_; ///< numSets_ * ways_, set-major
    std::uint64_t clock_ = 1; ///< last MRU stamp (last use + 1) issued
    CacheStats stats_;
};

} // namespace morph

#endif // MORPH_CACHE_CACHE_HH
