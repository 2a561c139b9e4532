/**
 * @file
 * Lockstep differential test of the counter-tree drivers.
 *
 * One seeded, write-heavy access stream runs through the functional
 * IntegrityTree, the timing SecureMemoryModel (with a metadata cache
 * tiny enough that dirty evictions propagate constantly), and the
 * functional SecureMemory under both freshness schemes. The drivers
 * differ only in when they propagate an update up the tree, so
 * everything at level 0 must agree exactly:
 *
 *  - after every write, the written line's effective counter;
 *  - the re-encryption set of every level-0 overflow (the functional
 *    BumpResult against the data lines the model emits as Overflow
 *    traffic);
 *  - at the end, every level-0 image byte for byte with the MAC field
 *    zeroed (the model stores no MACs), and the level-0 overflow
 *    count.
 *
 * Upper-level images differ by design (eager versus lazy
 * propagation) and are not compared; the functional trees must still
 * verify. The hot set sits in the first and the last (partial)
 * level-0 entry, so clipped overflow ranges are covered too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "integrity/integrity_tree.hh"
#include "secmem/secure_memory.hh"
#include "secmem/secure_memory_model.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

/** 16 MiB plus 44 lines: the last level-0 entry is partial for every
 *  arity above 8, so overflow ranges get clipped at the memory end. */
constexpr std::uint64_t memBytes = 16 * MiB + 44 * lineBytes;

constexpr unsigned streamLength = 16000;

TreeConfig
treeOf(CounterKind kind)
{
    TreeConfig tree;
    tree.name = counterKindName(kind);
    tree.encryption = kind;
    tree.treeLevels = {kind};
    return tree;
}

SipKey
macKey()
{
    SipKey key{};
    for (unsigned i = 0; i < key.size(); ++i)
        key[i] = std::uint8_t(0x51 + i);
    return key;
}

SecureMemoryConfig
functionalConfig(CounterKind kind, FreshnessScheme freshness)
{
    SecureMemoryConfig config;
    config.memBytes = memBytes;
    config.tree = treeOf(kind);
    config.freshness = freshness;
    for (unsigned i = 0; i < 16; ++i)
        config.encryptionKey[i] = std::uint8_t(0x21 + i);
    config.macKey = macKey();
    return config;
}

SecureModelConfig
modelConfig(CounterKind kind)
{
    SecureModelConfig config;
    config.memBytes = memBytes;
    config.tree = treeOf(kind);
    config.metadataCacheBytes = 1024; // 2 sets x 8 ways
    config.metadataCacheWays = 8;
    return config;
}

CachelineData
patternLine(std::uint64_t seed)
{
    CachelineData data;
    for (unsigned i = 0; i < lineBytes; ++i)
        data[i] = std::uint8_t(seed * 131 + i * 7);
    return data;
}

CachelineData
withoutMac(CachelineData image)
{
    CounterFormat::setMac(image, 0);
    return image;
}

std::string
kindTestName(const ::testing::TestParamInfo<CounterKind> &info)
{
    std::string name;
    for (const char c : counterKindName(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            name += c;
        else if (c == '+')
            name += "Plus";
    }
    return name;
}

class CounterTreeLockstep : public ::testing::TestWithParam<CounterKind>
{};

TEST_P(CounterTreeLockstep, LevelZeroAgreesAcrossDrivers)
{
    const CounterKind kind = GetParam();
    IntegrityTree tree(memBytes, treeOf(kind), macKey());
    SecureMemoryModel model(modelConfig(kind));
    SecureMemory counter_mem(
        functionalConfig(kind, FreshnessScheme::CounterTree));
    SecureMemory merkle_mem(
        functionalConfig(kind, FreshnessScheme::MerkleMacTree));

    const TreeGeometry &geom = tree.geometry();
    const unsigned arity = geom.levels()[0].arity;
    const std::uint64_t last_entry = geom.levels()[0].entries - 1;
    const LineAddr hammer = 3;

    std::vector<LineAddr> hot;
    for (LineAddr line = 0; line < arity; ++line)
        hot.push_back(line);
    for (LineAddr line = last_entry * arity; line < geom.dataLines();
         ++line)
        hot.push_back(line);

    Rng rng(0x10c5'7e9ull + unsigned(kind));
    std::unordered_map<LineAddr, CachelineData> shadow;
    std::set<std::uint64_t> touched;
    std::vector<MemAccess> out;
    std::uint64_t level0_overflows = 0;

    for (unsigned step = 0; step < streamLength; ++step) {
        LineAddr line;
        bool write;
        if (rng.chance(0.15)) {
            line = rng.below(geom.dataLines());
            write = rng.chance(0.5);
        } else {
            line = rng.chance(0.5) ? hammer : hot[rng.below(hot.size())];
            write = rng.chance(0.9);
        }
        touched.insert(geom.parentIndex(0, line));

        out.clear();
        model.onDataAccess(line, write ? AccessType::Write
                                       : AccessType::Read,
                           out);

        if (!write) {
            ASSERT_TRUE(tree.verify(line)) << "step " << step;
            const auto expect = shadow.count(line) ? shadow[line]
                                                   : CachelineData{};
            const auto a = counter_mem.readLine(line);
            const auto b = merkle_mem.readLine(line);
            ASSERT_TRUE(a.has_value()) << "step " << step;
            ASSERT_TRUE(b.has_value()) << "step " << step;
            ASSERT_EQ(*a, expect) << "step " << step;
            ASSERT_EQ(*b, expect) << "step " << step;
            continue;
        }

        const IntegrityTree::BumpResult bump = tree.bumpCounter(line);
        const CachelineData data = patternLine(step);
        counter_mem.writeLine(line, data);
        merkle_mem.writeLine(line, data);
        shadow[line] = data;

        const std::uint64_t ctr = bump.newCounter;
        ASSERT_EQ(tree.counterOf(line), ctr) << "step " << step;
        ASSERT_EQ(model.counterOf(line), ctr) << "step " << step;
        ASSERT_EQ(counter_mem.counterOf(line), ctr) << "step " << step;
        ASSERT_EQ(merkle_mem.counterOf(line), ctr) << "step " << step;

        // Data lines in the model's Overflow traffic: each re-encrypted
        // line is one read plus one write.
        std::vector<LineAddr> reencrypted;
        for (const MemAccess &access : out) {
            if (access.category == Traffic::Overflow &&
                access.type == AccessType::Write &&
                access.line < geom.dataLines())
                reencrypted.push_back(access.line);
        }
        std::vector<LineAddr> expected = bump.reencrypt;
        std::sort(reencrypted.begin(), reencrypted.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(reencrypted, expected) << "step " << step;
        ASSERT_EQ(bump.overflowed, !expected.empty()) << "step " << step;
        level0_overflows += bump.overflowed;
    }

    // Every materialized level-0 entry is one the stream touched.
    ASSERT_EQ(tree.materializedEntries(0), touched.size());
    for (const std::uint64_t entry : touched) {
        const CachelineData image = withoutMac(tree.rawEntry(0, entry));
        EXPECT_EQ(withoutMac(model.counterEntryOf(entry)), image)
            << "entry " << entry;
        EXPECT_EQ(withoutMac(counter_mem.counterEntryOf(entry)), image)
            << "entry " << entry;
        EXPECT_EQ(withoutMac(merkle_mem.counterEntryOf(entry)), image)
            << "entry " << entry;
    }

    EXPECT_EQ(tree.overflowEvents(0), level0_overflows);
    EXPECT_EQ(model.stats().overflowsByLevel[0], level0_overflows);
    EXPECT_EQ(counter_mem.stats().counterOverflows, level0_overflows);
    EXPECT_EQ(merkle_mem.stats().counterOverflows, level0_overflows);
    // 24- and 48-bit minors never wrap in this stream; every narrower
    // organization must have been driven through level-0 overflows.
    if (kind != CounterKind::SC8 && kind != CounterKind::SC16) {
        EXPECT_GT(level0_overflows, 0u);
    }

    EXPECT_TRUE(tree.verifyAll());
    EXPECT_TRUE(counter_mem.tree().verifyAll());
    EXPECT_TRUE(merkle_mem.macTree().verifyAll());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CounterTreeLockstep,
    ::testing::Values(CounterKind::SC8, CounterKind::SC16,
                      CounterKind::SC32, CounterKind::SC64,
                      CounterKind::SC128, CounterKind::MorphZccOnly,
                      CounterKind::Morph, CounterKind::MorphSingleBase,
                      CounterKind::SC64Rebased),
    kindTestName);

} // namespace
} // namespace morph
