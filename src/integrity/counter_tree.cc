#include "integrity/counter_tree.hh"

#include <algorithm>

#include "common/check.hh"

namespace morph
{

CounterTree::CounterTree(std::uint64_t mem_bytes, const TreeConfig &config)
    : geom_(mem_bytes, config)
{
    const auto &levels = geom_.levels();
    formats_.reserve(levels.size());
    stores_.resize(levels.size());
    overflows_.assign(levels.size(), 0);
    for (const auto &info : levels)
        formats_.push_back(makeCounterFormat(info.kind));
}

void
CounterTree::checkEntry(unsigned level, std::uint64_t index) const
{
    MORPH_CHECK_LT(level, stores_.size());
    MORPH_CHECK_LT(index, geom_.levels()[level].entries);
}

CachelineData &
CounterTree::entry(unsigned level, std::uint64_t index, bool &born)
{
    checkEntry(level, index);
    auto [it, inserted] = stores_[level].try_emplace(index);
    born = inserted;
    if (inserted)
        formats_[level]->init(it->second);
    return it->second;
}

CounterTree::Bump
CounterTree::bump(unsigned level, std::uint64_t child)
{
    Bump out;
    out.entry = geom_.parentIndex(level, child);
    out.image = &entry(level, out.entry);
    out.write = formats_[level]->increment(*out.image,
                                           geom_.childSlot(level, child));
    if (out.write.overflow) {
        ++overflows_[level];
        const std::uint64_t children =
            level == 0 ? geom_.dataLines() : geom_.levels()[level - 1].entries;
        const std::uint64_t base = out.entry * formats_[level]->arity();
        out.childBegin = std::min(base + out.write.reencBegin, children);
        out.childEnd = std::min(base + out.write.reencEnd, children);
    }
    return out;
}

void
CounterTree::inject(unsigned level, std::uint64_t index,
                    const CachelineData &image)
{
    checkEntry(level, index);
    stores_[level][index] = image;
}

const CounterTree::LevelStore &
CounterTree::store(unsigned level) const
{
    MORPH_CHECK_LT(level, stores_.size());
    return stores_[level];
}

std::uint64_t
CounterTree::overflowEvents(unsigned level) const
{
    MORPH_CHECK_LT(level, overflows_.size());
    return overflows_[level];
}

} // namespace morph
