#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"
#include "common/log.hh"

namespace morph
{

Cache::Cache(std::size_t size_bytes, unsigned ways) : ways_(ways)
{
    if (ways == 0 || size_bytes == 0 ||
        size_bytes % (std::size_t(ways) * lineBytes) != 0) {
        fatal("cache: size %zu not divisible into %u-way sets of 64B "
              "lines", size_bytes, ways);
    }
    numSets_ = size_bytes / (std::size_t(ways) * lineBytes);
    pow2Sets_ = std::has_single_bit(numSets_);
    setMask_ = LineAddr(numSets_ - 1);
    slots_.resize(numSets_ * 2 * ways_);
    dirty_.resize(numSets_ * ways_);
    flush();
}

Cache::Probe
Cache::probe(std::size_t set, LineAddr line) const
{
    MORPH_DCHECK(line != invalidTag);
    const LineAddr *tags = tagsOf(set);
    const std::uint64_t *stamps = stampsOf(set);
    // One pass for both answers: the matching way (tags in a set are
    // distinct) and the first way with the smallest stamp.
    Probe p{ways_, 0};
    std::uint64_t oldest = ~std::uint64_t(0);
    for (unsigned w = 0; w < ways_; ++w) {
        p.hit = tags[w] == line ? w : p.hit;
        const bool older = stamps[w] < oldest;
        p.victim = older ? w : p.victim;
        oldest = older ? stamps[w] : oldest;
    }
    return p;
}

void
Cache::touch(std::size_t set, unsigned way, bool dirty)
{
    stampsOf(set)[way] = ++clock_;
    dirtyOf(set)[way] |= std::uint8_t(dirty);
}

std::optional<Eviction>
Cache::fill(std::size_t set, unsigned way, LineAddr line, bool dirty,
            InsertPosition position)
{
    LineAddr *tags = tagsOf(set);
    std::uint64_t *stamps = stampsOf(set);
    std::uint8_t *dirt = dirtyOf(set);

    std::optional<Eviction> evicted;
    if (stamps[way] != 0) {
        evicted = Eviction{tags[way], dirt[way] != 0};
        ++stats_.evictions;
        stats_.dirtyEvictions += dirt[way];
    }

    tags[way] = line;
    dirt[way] = std::uint8_t(dirty);
    if (position == InsertPosition::Mru) {
        stamps[way] = ++clock_;
    } else {
        // Demoted insertion: one below every other valid way of the
        // set, floored at the lowest valid stamp, 1. Empty ways hold
        // stamp 0, which the "- 1" wraps past every valid stamp.
        std::uint64_t lowest = ~std::uint64_t(0);
        for (unsigned w = 0; w < ways_; ++w)
            if (w != way)
                lowest = std::min(lowest, stamps[w] - 1);
        stamps[way] = lowest == ~std::uint64_t(0) || lowest == 0
                          ? 1
                          : lowest;
    }
    return evicted;
}

bool
Cache::access(LineAddr line, bool write)
{
    const std::size_t set = setOf(line);
    const unsigned way = probe(set, line).hit;
    if (way == ways_) {
        ++stats_.misses;
        return false;
    }
    touch(set, way, write);
    ++stats_.hits;
    return true;
}

bool
Cache::contains(LineAddr line) const
{
    return probe(setOf(line), line).hit != ways_;
}

std::optional<Eviction>
Cache::insert(LineAddr line, bool dirty, InsertPosition position)
{
    const std::size_t set = setOf(line);
    const Probe p = probe(set, line);
    if (p.hit != ways_) {
        touch(set, p.hit, dirty);
        return std::nullopt;
    }
    return fill(set, p.victim, line, dirty, position);
}

CacheFill
Cache::accessOrInsert(LineAddr line, bool write, InsertPosition position)
{
    const std::size_t set = setOf(line);
    const Probe p = probe(set, line);
    if (p.hit != ways_) {
        touch(set, p.hit, write);
        ++stats_.hits;
        return {true, std::nullopt};
    }
    ++stats_.misses;
    return {false, fill(set, p.victim, line, write, position)};
}

bool
Cache::markDirty(LineAddr line)
{
    const std::size_t set = setOf(line);
    const unsigned way = probe(set, line).hit;
    if (way == ways_)
        return false;
    dirtyOf(set)[way] = 1;
    return true;
}

std::optional<Eviction>
Cache::invalidate(LineAddr line)
{
    const std::size_t set = setOf(line);
    const unsigned way = probe(set, line).hit;
    if (way == ways_)
        return std::nullopt;
    std::uint8_t &dirty = dirtyOf(set)[way];
    const Eviction ev{line, dirty != 0};
    tagsOf(set)[way] = invalidTag;
    stampsOf(set)[way] = 0;
    dirty = 0;
    return ev;
}

void
Cache::flush()
{
    for (std::size_t set = 0; set < numSets_; ++set) {
        std::fill_n(tagsOf(set), ways_, invalidTag);
        std::fill_n(stampsOf(set), ways_, 0);
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

} // namespace morph
