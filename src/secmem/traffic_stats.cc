#include "secmem/traffic_stats.hh"

#include "common/stat_registry.hh"

namespace morph
{

const char *
trafficName(Traffic category)
{
    switch (category) {
      case Traffic::Data:
        return "Data";
      case Traffic::CtrEncr:
        return "Ctr_Encr";
      case Traffic::Ctr1:
        return "Ctr_1";
      case Traffic::Ctr2:
        return "Ctr_2";
      case Traffic::Ctr3Up:
        return "Ctr_3&Up";
      case Traffic::Overflow:
        return "Overflow";
      case Traffic::Mac:
        return "MAC";
    }
    return "?";
}

const char *
trafficKey(Traffic category)
{
    switch (category) {
      case Traffic::Data:
        return "data";
      case Traffic::CtrEncr:
        return "ctr_encr";
      case Traffic::Ctr1:
        return "ctr_1";
      case Traffic::Ctr2:
        return "ctr_2";
      case Traffic::Ctr3Up:
        return "ctr_3up";
      case Traffic::Overflow:
        return "overflow";
      case Traffic::Mac:
        return "mac";
    }
    return "unknown";
}

std::uint64_t
TrafficStats::total() const
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < numTrafficCategories; ++i)
        sum += reads[i] + writes[i];
    return sum;
}

std::uint64_t
TrafficStats::totalOverflows() const
{
    std::uint64_t sum = 0;
    for (auto v : overflowsByLevel)
        sum += v;
    return sum;
}

std::uint64_t
TrafficStats::totalRebases() const
{
    std::uint64_t sum = 0;
    for (auto v : rebasesByLevel)
        sum += v;
    return sum;
}

std::uint64_t
TrafficStats::totalMorphs() const
{
    std::uint64_t sum = 0;
    for (auto v : morphsByLevel)
        sum += v;
    return sum;
}

double
TrafficStats::bloat() const
{
    const std::uint64_t data = accesses(Traffic::Data);
    return data ? double(total()) / double(data) : 0.0;
}

void
TrafficStats::reset()
{
    reads.fill(0);
    writes.fill(0);
    overflowsByLevel.fill(0);
    rebasesByLevel.fill(0);
    morphsByLevel.fill(0);
    usageAtOverflow.reset();
}

void
TrafficStats::registerStats(StatRegistry &registry,
                            const std::string &prefix) const
{
    for (unsigned i = 0; i < numTrafficCategories; ++i) {
        const std::string base =
            prefix + "." + trafficKey(Traffic(i));
        registry.counter(base + ".reads", &reads[i],
                         "DRAM reads in this traffic category");
        registry.counter(base + ".writes", &writes[i],
                         "DRAM writes in this traffic category");
    }
    registry.counter(
        prefix + ".total", [this]() { return total(); },
        "total DRAM accesses, all categories");
    registry.gauge(
        prefix + ".bloat", [this]() { return bloat(); },
        "memory accesses per data access (paper Figs 5b/16)");
    for (unsigned level = 0; level < overflowsByLevel.size();
         ++level) {
        const std::string suffix = ".level" + std::to_string(level);
        registry.counter(prefix + ".overflows" + suffix,
                         &overflowsByLevel[level],
                         "overflow resets at this tree level");
        registry.counter(prefix + ".rebases" + suffix,
                         &rebasesByLevel[level],
                         "MCR rebases at this tree level");
        registry.counter(prefix + ".morphs" + suffix,
                         &morphsByLevel[level],
                         "representation switches at this tree level");
    }
    registry.counter(
        prefix + ".overflows.total",
        [this]() { return totalOverflows(); },
        "overflow resets, all levels");
    registry.counter(
        prefix + ".rebases.total", [this]() { return totalRebases(); },
        "MCR rebases, all levels");
    registry.counter(
        prefix + ".morphs.total", [this]() { return totalMorphs(); },
        "representation switches, all levels");
    registry.histogram(prefix + ".usage_at_overflow", &usageAtOverflow,
                       "counter-usage fraction at overflow (Fig 7)");
}

} // namespace morph
