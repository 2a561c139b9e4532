/**
 * @file
 * Tests for the functional integrity tree: counter propagation, MAC
 * chaining, tamper and replay detection.
 */

#include <gtest/gtest.h>

#include "integrity/integrity_tree.hh"

namespace morph
{
namespace
{

SipKey
testKey()
{
    SipKey key{};
    key[0] = 0x42;
    return key;
}

constexpr std::uint64_t MiB = 1ull << 20;

class IntegrityTreeTest : public ::testing::Test
{
  protected:
    IntegrityTreeTest() : tree(16 * MiB, TreeConfig::morph(), testKey())
    {}

    IntegrityTree tree;
};

TEST_F(IntegrityTreeTest, FreshCountersAreZeroAndVerify)
{
    EXPECT_EQ(tree.counterOf(0), 0u);
    EXPECT_EQ(tree.counterOf(1000), 0u);
    EXPECT_TRUE(tree.verify(0));
    EXPECT_TRUE(tree.verify(1000));
}

TEST_F(IntegrityTreeTest, BumpAdvancesCounter)
{
    const auto result = tree.bumpCounter(5);
    EXPECT_EQ(result.newCounter, 1u);
    EXPECT_FALSE(result.overflowed);
    EXPECT_EQ(tree.counterOf(5), 1u);
    EXPECT_EQ(tree.counterOf(6), 0u);
    EXPECT_TRUE(tree.verify(5));
}

TEST_F(IntegrityTreeTest, RepeatedBumpsStayVerifiable)
{
    for (int i = 0; i < 500; ++i)
        tree.bumpCounter(LineAddr(i % 7));
    EXPECT_TRUE(tree.verifyAll());
}

TEST_F(IntegrityTreeTest, TamperWithCounterEntryDetected)
{
    tree.bumpCounter(3);
    ASSERT_TRUE(tree.verify(3));

    CachelineData image = tree.rawEntry(0, 0);
    image[8] ^= 0x40; // flip a bit inside the counter payload
    tree.injectEntry(0, 0, image);
    EXPECT_FALSE(tree.verify(3));
}

TEST_F(IntegrityTreeTest, TamperAtUpperLevelDetected)
{
    tree.bumpCounter(3);
    CachelineData image = tree.rawEntry(1, 0);
    image[10] ^= 0x01;
    tree.injectEntry(1, 0, image);
    EXPECT_FALSE(tree.verify(3));
    EXPECT_FALSE(tree.verifyAll());
}

TEST_F(IntegrityTreeTest, ReplayOfStaleEntryDetected)
{
    // Snapshot entry 0 (with its then-valid MAC), advance the counter,
    // then restore the stale snapshot: the parent counter has moved,
    // so the old MAC no longer verifies — replay caught.
    tree.bumpCounter(3);
    const CachelineData stale = tree.rawEntry(0, 0);
    ASSERT_TRUE(tree.verify(3));

    tree.bumpCounter(3);
    ASSERT_TRUE(tree.verify(3));

    tree.injectEntry(0, 0, stale);
    EXPECT_FALSE(tree.verify(3));
}

TEST_F(IntegrityTreeTest, SiblingSubtreesUnaffected)
{
    // Mutations under one level-0 entry leave distant lines verifiable.
    tree.bumpCounter(0);
    CachelineData image = tree.rawEntry(0, 0);
    image[9] ^= 0xff;
    tree.injectEntry(0, 0, image);

    const LineAddr distant = 128 * 50; // entry 50
    EXPECT_TRUE(tree.verify(distant));
    EXPECT_FALSE(tree.verify(0));
}

TEST_F(IntegrityTreeTest, OverflowReportsReencryptSet)
{
    // Drive one counter to its 16-bit ZCC limit.
    IntegrityTree::BumpResult result;
    for (std::uint64_t w = 0; w < (1ull << 16); ++w) {
        result = tree.bumpCounter(9);
        if (result.overflowed)
            break;
    }
    ASSERT_TRUE(result.overflowed);
    EXPECT_EQ(result.reencrypt.size(), 128u);
    EXPECT_EQ(result.reencrypt.front(), 0u);
    EXPECT_EQ(result.reencrypt.back(), 127u);
    EXPECT_EQ(tree.overflowEvents(0), 1u);
    EXPECT_TRUE(tree.verifyAll());
}

TEST_F(IntegrityTreeTest, ReencryptListClampedAtMemoryEnd)
{
    IntegrityTree small(130 * lineBytes * 1, TreeConfig::sc64(),
                        testKey());
    // 130 data lines -> entry 2 covers lines 128..129 only.
    IntegrityTree::BumpResult result;
    for (int w = 0; w < 100; ++w) {
        result = small.bumpCounter(129);
        if (result.overflowed)
            break;
    }
    ASSERT_TRUE(result.overflowed);
    EXPECT_EQ(result.reencrypt.size(), 2u);
}

TEST_F(IntegrityTreeTest, TreeOverflowRehashesChildren)
{
    // Force an overflow at level 1 by hammering level-0 entries under
    // one parent; all sibling level-0 MACs must be refreshed so the
    // whole tree still verifies.
    IntegrityTree dense(16 * MiB, TreeConfig::sc128(), testKey());
    // SC-128: 3-bit minors at level 1 overflow after 8 bumps of one
    // child entry. Each data-line bump propagates one increment to
    // every ancestor.
    for (int w = 0; w < 20; ++w)
        dense.bumpCounter(0);
    EXPECT_GT(dense.overflowEvents(1), 0u);
    EXPECT_TRUE(dense.verifyAll());
}

TEST_F(IntegrityTreeTest, RebasesReported)
{
    // Uniform writes across one Morph entry's 128 children eventually
    // saturate 3-bit minors; rebasing must absorb them quietly.
    std::uint64_t rebases = 0;
    for (int sweep = 0; sweep < 12; ++sweep)
        for (LineAddr line = 0; line < 128; ++line)
            rebases += tree.bumpCounter(line).rebases;
    EXPECT_GT(rebases, 0u);
    EXPECT_TRUE(tree.verifyAll());
}

TEST_F(IntegrityTreeTest, MaterializationIsLazy)
{
    IntegrityTree lazy(16 * MiB, TreeConfig::morph(), testKey());
    EXPECT_EQ(lazy.materializedEntries(0), 0u);
    lazy.bumpCounter(0);
    EXPECT_EQ(lazy.materializedEntries(0), 1u);
    EXPECT_GE(lazy.materializedEntries(1), 1u);
}

TEST(IntegrityTreeDeathTest, InjectOutOfRangeFailsAtTheCall)
{
    IntegrityTree tree(16 * MiB, TreeConfig::morph(), testKey());
    const auto &levels = tree.geometry().levels();
    const CachelineData image{};
    // Rejected here, not later inside verifyAll's parent walk.
    EXPECT_DEATH(tree.injectEntry(0, levels[0].entries, image),
                 "lhs \\(index\\)");
    EXPECT_DEATH(tree.injectEntry(unsigned(levels.size()), 0, image),
                 "lhs \\(level\\)");
}

TEST(IntegrityTreeConfigs, AllConfigsFunctionallyEquivalent)
{
    // Every counter organization must provide the same functional
    // behaviour: counters advance, trees verify, tampering is caught.
    for (const auto &config :
         {TreeConfig::sgx(), TreeConfig::vault(), TreeConfig::sc64(),
          TreeConfig::sc128(), TreeConfig::morph(),
          TreeConfig::morphZccOnly()}) {
        IntegrityTree tree(4 * MiB, config, testKey());
        for (int i = 0; i < 200; ++i)
            tree.bumpCounter(LineAddr(i % 11));
        EXPECT_TRUE(tree.verifyAll()) << config.name;

        CachelineData image = tree.rawEntry(0, 0);
        image[12] ^= 0x02;
        tree.injectEntry(0, 0, image);
        EXPECT_FALSE(tree.verify(0)) << config.name;
    }
}

} // namespace
} // namespace morph
