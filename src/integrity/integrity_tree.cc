#include "integrity/integrity_tree.hh"

#include "common/check.hh"
#include "common/prof.hh"

namespace morph
{

IntegrityTree::IntegrityTree(std::uint64_t mem_bytes,
                             const TreeConfig &config,
                             const SipKey &mac_key)
    : core_(mem_bytes, config), macEngine_(mac_key)
{}

CachelineData &
IntegrityTree::getEntry(unsigned level, std::uint64_t index)
{
    bool born = false;
    CachelineData &image = core_.entry(level, index, born);
    // A fresh all-zero entry's MAC must be consistent from birth so
    // verification of untouched regions succeeds.
    if (born && level != geometry().rootLevel())
        CounterFormat::setMac(image, entryMac(level, index, image));
    return image;
}

std::uint64_t
IntegrityTree::parentCounter(unsigned level, std::uint64_t index)
{
    const unsigned parent_level = level + 1;
    MORPH_CHECK_LE(parent_level, geometry().rootLevel());
    const std::uint64_t pidx = geometry().parentIndex(parent_level, index);
    return core_.counterIn(parent_level, index,
                           getEntry(parent_level, pidx));
}

std::uint64_t
IntegrityTree::entryMac(unsigned level, std::uint64_t index,
                        const CachelineData &image)
{
    // MAC covers the entry contents (MAC field zeroed), bound to the
    // entry's physical line address and its parent counter.
    CachelineData payload = image;
    CounterFormat::setMac(payload, 0);
    return macEngine_.compute(geometry().lineOfEntry(level, index),
                              parentCounter(level, index), payload);
}

void
IntegrityTree::recomputeMac(unsigned level, std::uint64_t index)
{
    if (level == geometry().rootLevel())
        return; // the root is on-chip and needs no MAC
    CachelineData &image = getEntry(level, index);
    CounterFormat::setMac(image, entryMac(level, index, image));
}

void
IntegrityTree::propagateMutation(unsigned level, std::uint64_t index,
                                 BumpResult &out)
{
    if (level == geometry().rootLevel()) {
        return; // root updates are on-chip register writes
    }

    // Recursion nests one tree.propagate per level climbed.
    MORPH_PROF_SCOPE("tree.propagate");

    // A parent born here is sealed by its own recomputeMac once the
    // recursion below returns, so it needs no birth MAC.
    const unsigned parent_level = level + 1;
    const CounterTree::Bump bump = core_.bump(parent_level, index);
    if (bump.write.rebase)
        ++out.rebases;
    if (bump.write.overflow) {
        ++out.treeOverflows;
        // Every child in the reset range changed its protecting
        // counter; re-hash the materialized ones (this entry's own
        // MAC is recomputed below in any case).
        const auto &siblings = core_.store(level);
        for (std::uint64_t child = bump.childBegin;
             child < bump.childEnd; ++child) {
            if (child != index && siblings.count(child))
                recomputeMac(level, child);
        }
    }

    // The parent entry changed: continue up before finalizing our MAC
    // (order is immaterial — counters at parent_level are final once
    // bump() returns — but doing it here keeps the invariant "every
    // stored MAC is consistent when the call stack unwinds").
    propagateMutation(parent_level, bump.entry, out);
    recomputeMac(level, index);
}

std::uint64_t
IntegrityTree::counterOf(LineAddr data_line)
{
    MORPH_CHECK_LT(data_line, geometry().dataLines());
    return core_.counterIn(0, data_line,
                           getEntry(0, geometry().parentIndex(0, data_line)));
}

IntegrityTree::BumpResult
IntegrityTree::bumpEncryptionCounter(CounterTree &core, LineAddr data_line)
{
    MORPH_CHECK_LT(data_line, core.geometry().dataLines());
    const CounterTree::Bump bump = core.bump(0, data_line);
    BumpResult out;
    if (bump.write.rebase)
        ++out.rebases;
    if (bump.write.overflow) {
        out.overflowed = true;
        for (LineAddr child = bump.childBegin; child < bump.childEnd;
             ++child)
            out.reencrypt.push_back(child);
    }
    out.newCounter = core.counterIn(0, data_line, *bump.image);
    return out;
}

IntegrityTree::BumpResult
IntegrityTree::bumpCounter(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.bump");
    BumpResult out = bumpEncryptionCounter(core_, data_line);
    // The counter was read before propagation. That is final: the
    // store is node-based (CounterTree), so materializing entries on
    // the way up never moves an image, and propagation rewrites only
    // MAC fields at level 0.
    propagateMutation(0, geometry().parentIndex(0, data_line), out);
    return out;
}

bool
IntegrityTree::verify(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.verify");
    MORPH_CHECK_LT(data_line, geometry().dataLines());
    std::uint64_t index = geometry().parentIndex(0, data_line);
    for (unsigned level = 0; level < geometry().rootLevel(); ++level) {
        const CachelineData &image = getEntry(level, index);
        const std::uint64_t stored = CounterFormat::mac(image);
        if (!MacEngine::equal(stored, entryMac(level, index, image)))
            return false;
        index = geometry().parentIndex(level + 1, index);
    }
    return true;
}

bool
IntegrityTree::verifyAll()
{
    for (unsigned level = 0; level < geometry().rootLevel(); ++level) {
        for (const auto &kv : core_.store(level)) {
            const std::uint64_t stored = CounterFormat::mac(kv.second);
            if (!MacEngine::equal(stored,
                                  entryMac(level, kv.first, kv.second)))
                return false;
        }
    }
    return true;
}

const CachelineData &
IntegrityTree::rawEntry(unsigned level, std::uint64_t index)
{
    return getEntry(level, index);
}

void
IntegrityTree::injectEntry(unsigned level, std::uint64_t index,
                           const CachelineData &image)
{
    core_.inject(level, index, image);
}

std::uint64_t
IntegrityTree::overflowEvents(unsigned level) const
{
    return core_.overflowEvents(level);
}

std::uint64_t
IntegrityTree::materializedEntries(unsigned level) const
{
    return core_.store(level).size();
}

} // namespace morph
