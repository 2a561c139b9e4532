/**
 * @file
 * The counter-tree core shared by every counter-tree driver.
 *
 * One Bonsai counter tree of counter cachelines (paper §II-A4, §IV):
 * the geometry, the counter format of each level, a sparse image store
 * per level, and the increment that all drivers apply. The drivers
 * differ only in when an entry update reaches the root:
 *
 *  - IntegrityTree propagates every update eagerly and keeps MACs;
 *  - SecureMemoryModel propagates on dirty metadata-cache eviction;
 *  - SecureMemory's Merkle scheme uses level 0 alone and publishes
 *    each level-0 image to a MacTree.
 *
 * Reference stability: stores are node-based std::unordered_maps, so
 * a reference to a stored image stays valid while other entries are
 * materialized (a rehash moves buckets, not nodes). Drivers hold image
 * references across materialization and rely on this; only inject()
 * overwrites an image in place, and nothing erases one.
 */

#ifndef MORPH_INTEGRITY_COUNTER_TREE_HH
#define MORPH_INTEGRITY_COUNTER_TREE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "integrity/tree_geometry.hh"

namespace morph
{

/** Per-level counter-cacheline stores over one tree geometry. */
class CounterTree
{
  public:
    /** Sparse images of one level, keyed by entry index. */
    using LevelStore = std::unordered_map<std::uint64_t, CachelineData>;

    /** One counter increment and the children it changed. */
    struct Bump
    {
        WriteResult write;          ///< the codec's outcome
        std::uint64_t entry = 0;    ///< index of the incremented entry
        CachelineData *image = nullptr; ///< its image (reference-stable)

        /** Children whose counter an overflow reset changed: data
         *  lines at level 0, entries of level - 1 above. Clipped to
         *  the level below; empty unless write.overflow. */
        std::uint64_t childBegin = 0;
        std::uint64_t childEnd = 0;
    };

    CounterTree(std::uint64_t mem_bytes, const TreeConfig &config);

    const TreeGeometry &geometry() const { return geom_; }

    /** Counter format of @p level. */
    const CounterFormat &
    format(unsigned level) const
    {
        return *formats_[level];
    }

    /**
     * Image of entry @p index at @p level, materializing a freshly
     * initialized one if absent; @p born reports a materialization so
     * the driver can seal the new image (MAC it, publish it).
     */
    CachelineData &entry(unsigned level, std::uint64_t index,
                         bool &born);

    /** As above, for drivers that need no birth hook. */
    CachelineData &
    entry(unsigned level, std::uint64_t index)
    {
        bool born = false;
        return entry(level, index, born);
    }

    /** Counter at @p level covering @p child (a data line at level 0,
     *  an entry of level - 1 above), read from @p image. */
    std::uint64_t
    counterIn(unsigned level, std::uint64_t child,
              const CachelineData &image) const
    {
        return formats_[level]->read(image, geom_.childSlot(level, child));
    }

    /**
     * Increment the counter at @p level covering @p child,
     * materializing its entry if needed. Allocates only when it
     * materializes.
     */
    Bump bump(unsigned level, std::uint64_t child);

    /**
     * Overwrite the image of entry @p index at @p level, bypassing all
     * protection (the adversary interface). Both coordinates are
     * bounds-checked here, at the call, not later when the tree is
     * walked.
     */
    void inject(unsigned level, std::uint64_t index,
                const CachelineData &image);

    /** The materialized images of @p level. */
    const LevelStore &store(unsigned level) const;

    /** Overflow resets at @p level since construction. */
    std::uint64_t overflowEvents(unsigned level) const;

  private:
    void checkEntry(unsigned level, std::uint64_t index) const;

    TreeGeometry geom_;
    std::vector<std::unique_ptr<CounterFormat>> formats_; // per level
    std::vector<LevelStore> stores_;                       // per level
    std::vector<std::uint64_t> overflows_;                 // per level
};

} // namespace morph

#endif // MORPH_INTEGRITY_COUNTER_TREE_HH
