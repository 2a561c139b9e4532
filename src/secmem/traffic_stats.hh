/**
 * @file
 * Memory-traffic taxonomy for secure execution (paper Figs 5 and 16).
 *
 * Every DRAM access generated by the secure memory controller is
 * attributed to one category: program data, encryption counters,
 * integrity-tree levels 1 / 2 / 3-and-up, counter-overflow handling
 * (re-encryption and re-hashing), or separate-MAC accesses. The
 * "bloat" (memory accesses per data access) of each category is the
 * quantity the paper's traffic figures report.
 */

#ifndef MORPH_SECMEM_TRAFFIC_STATS_HH
#define MORPH_SECMEM_TRAFFIC_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/stats.hh"

namespace morph
{

/** DRAM traffic categories. */
enum class Traffic : std::uint8_t
{
    Data,    ///< program reads/writes
    CtrEncr, ///< encryption-counter entries (tree level 0)
    Ctr1,    ///< integrity-tree level 1
    Ctr2,    ///< integrity-tree level 2
    Ctr3Up,  ///< integrity-tree levels 3 and above
    Overflow, ///< re-encryption / re-hash traffic on overflow resets
    Mac,     ///< separate-MAC accesses (zero under Synergy in-line MACs)
};

constexpr unsigned numTrafficCategories = 7;

/** Display name of a traffic category. */
const char *trafficName(Traffic category);

/** Registry key of a traffic category ([a-z0-9_.]+, stable). */
const char *trafficKey(Traffic category);

/** Traffic category for a metadata access at tree @p level. */
inline Traffic
trafficForLevel(unsigned level)
{
    switch (level) {
      case 0:
        return Traffic::CtrEncr;
      case 1:
        return Traffic::Ctr1;
      case 2:
        return Traffic::Ctr2;
      default:
        return Traffic::Ctr3Up;
    }
}

class StatRegistry;

/** Counters for secure-memory traffic and overflow behaviour. */
struct TrafficStats
{
    std::array<std::uint64_t, numTrafficCategories> reads{};
    std::array<std::uint64_t, numTrafficCategories> writes{};

    /** Overflow-reset events, indexed by tree level (clamped to 7). */
    std::array<std::uint64_t, 8> overflowsByLevel{};

    /** MCR rebases that absorbed overflows, by level. */
    std::array<std::uint64_t, 8> rebasesByLevel{};

    /** Representation switches (ZCC <-> MCR/Uniform), by level. */
    std::array<std::uint64_t, 8> morphsByLevel{};

    /** Fraction of counters in use at each overflow (Fig 7). */
    Histogram usageAtOverflow{0.0, 1.0 + 1e-9, 20};

    TrafficStats() = default;

    void
    count(Traffic category, bool is_write)
    {
        auto &side = is_write ? writes : reads;
        ++side[unsigned(category)];
    }

    std::uint64_t
    accesses(Traffic category) const
    {
        return reads[unsigned(category)] + writes[unsigned(category)];
    }

    /** Total accesses across all categories. */
    std::uint64_t total() const;

    /** Total overflow events across levels. */
    std::uint64_t totalOverflows() const;

    /** Total rebase events across levels. */
    std::uint64_t totalRebases() const;

    /** Total representation switches across levels. */
    std::uint64_t totalMorphs() const;

    /** Accesses per data access (the paper's bloat metric);
     *  1.0 means no metadata traffic at all. */
    double bloat() const;

    /** Reset all counters and the histogram. */
    void reset();

    /**
     * Register every counter, derived gauge and the usage histogram
     * into @p registry under @p prefix (morphscope naming scheme, see
     * docs/OBSERVABILITY.md). The registry holds pointers into this
     * object; it must not outlive it.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;
};

} // namespace morph

#endif // MORPH_SECMEM_TRAFFIC_STATS_HH
