/**
 * @file
 * Tests for the DDR3 timing model: address mapping, row-buffer
 * behaviour, bus serialization, and activity accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "dram/dram_power.hh"
#include "dram/dram_system.hh"

namespace morph
{
namespace
{

TEST(DramAddressMap, FieldsDecodeAndInterleave)
{
    DramConfig config;
    const DramCoord c0 = decodeLine(config, 0);
    const DramCoord c1 = decodeLine(config, 1);
    EXPECT_EQ(c0.channel, 0u);
    EXPECT_EQ(c1.channel, 1u);
    EXPECT_EQ(c0.row, c1.row);

    // Two consecutive even lines differ only in column.
    const DramCoord c2 = decodeLine(config, 2);
    EXPECT_EQ(c2.channel, 0u);
    EXPECT_EQ(c2.column, c0.column + 1);
    EXPECT_EQ(c2.bank, c0.bank);
}

TEST(DramAddressMap, RowCapacity)
{
    DramConfig config;
    // One row per (channel, bank): linesPerRow columns; the row index
    // increments only after channels * linesPerRow * banks * ranks
    // lines.
    const std::uint64_t lines_per_row_group =
        std::uint64_t(config.channels) * config.linesPerRow *
        config.banksPerRank * config.ranksPerChannel;
    EXPECT_EQ(decodeLine(config, lines_per_row_group - 1).row, 0u);
    EXPECT_EQ(decodeLine(config, lines_per_row_group).row, 1u);
}

bool
sameCoord(const DramCoord &a, const DramCoord &b)
{
    return a.channel == b.channel && a.rank == b.rank &&
           a.bank == b.bank && a.row == b.row && a.column == b.column;
}

TEST(DramAddressMap, ShiftDecodeMatchesDecodeLine)
{
    const DramSystem dram;
    ASSERT_TRUE(dram.shiftDecode()); // default 2/128/8/2
    Rng rng(17);
    for (unsigned i = 0; i < 100000; ++i) {
        // Mix small lines, 16 GB-range lines and full 64-bit values.
        const LineAddr line = i % 3 == 0   ? rng.below(1 << 20)
                              : i % 3 == 1 ? rng.below(1ull << 28)
                                           : rng.next();
        ASSERT_TRUE(
            sameCoord(dram.decode(line), decodeLine(dram.config(), line)))
            << "line " << line;
    }
}

TEST(DramAddressMap, NonPowerOfTwoFieldTakesGeneralPath)
{
    DramConfig three_channels;
    three_channels.channels = 3;
    DramConfig short_rows;
    short_rows.linesPerRow = 96;
    DramConfig odd_ranks;
    odd_ranks.ranksPerChannel = 3;
    for (const DramConfig &config :
         {three_channels, short_rows, odd_ranks}) {
        const DramSystem dram(config);
        EXPECT_FALSE(dram.shiftDecode());
        Rng rng(5);
        for (unsigned i = 0; i < 1000; ++i) {
            const LineAddr line = rng.below(1ull << 28);
            ASSERT_TRUE(
                sameCoord(dram.decode(line), decodeLine(config, line)));
        }
    }
    DramConfig wide; // every field a power of two, none the default
    wide.channels = 4;
    wide.linesPerRow = 64;
    wide.banksPerRank = 16;
    wide.ranksPerChannel = 1;
    const DramSystem dram(wide);
    EXPECT_TRUE(dram.shiftDecode());
    for (LineAddr line = 0; line < 5000; line += 7)
        ASSERT_TRUE(sameCoord(dram.decode(line), decodeLine(wide, line)));
}

/** Completion cycles of DramSystem::access against channels driven
 *  directly with decodeLine coordinates, over one seeded stream. */
void
checkAccessAgainstDecodeLine(const DramConfig &config)
{
    DramSystem dram(config);
    std::vector<Channel> reference;
    for (unsigned c = 0; c < config.channels; ++c)
        reference.emplace_back(config);
    Rng rng(23);
    Cycle when = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        // Half near-sequential (row hits), half scattered.
        const LineAddr line = rng.chance(0.5) ? LineAddr(i) * 2 + 1
                                              : rng.below(1ull << 28);
        const AccessType type = rng.chance(0.3) ? AccessType::Write
                                                : AccessType::Read;
        when += rng.below(40);
        const DramCoord coord = decodeLine(config, line);
        ASSERT_EQ(dram.access(line, type, when),
                  reference[coord.channel].access(coord, type, when))
            << "access " << i;
    }
    for (unsigned c = 0; c < config.channels; ++c) {
        EXPECT_EQ(dram.activity(c).rowHits,
                  reference[c].activity().rowHits);
        EXPECT_EQ(dram.activity(c).activates,
                  reference[c].activity().activates);
    }
}

TEST(DramTiming, AccessMatchesDecodeLineReference)
{
    checkAccessAgainstDecodeLine(DramConfig{});
    DramConfig queued;
    queued.writeQueueing = true;
    queued.refresh = true;
    checkAccessAgainstDecodeLine(queued);
    DramConfig three_channels;
    three_channels.channels = 3;
    checkAccessAgainstDecodeLine(three_channels);
}

TEST(DramTiming, RowHitFasterThanRowMiss)
{
    DramSystem dram;
    const DramConfig &config = dram.config();

    // First access opens the row (ACT + CAS).
    const Cycle first = dram.access(0, AccessType::Read, 0);
    EXPECT_EQ(first, config.cpu(config.tRCD + config.tCL +
                                config.tBURST));

    // Same row, later: CAS only.
    const Cycle start = 10000;
    const Cycle hit = dram.access(2, AccessType::Read, start);
    EXPECT_EQ(hit, start + config.cpu(config.tCL + config.tBURST));

    // Different row, same bank: PRE + ACT + CAS.
    const std::uint64_t conflict_line =
        std::uint64_t(config.channels) * config.linesPerRow *
        config.banksPerRank * config.ranksPerChannel;
    const Cycle start2 = 20000;
    const Cycle miss = dram.access(conflict_line, AccessType::Read,
                                   start2);
    EXPECT_EQ(miss, start2 + config.cpu(config.tRP + config.tRCD +
                                        config.tCL + config.tBURST));
}

TEST(DramTiming, BusSerializesSameChannel)
{
    DramSystem dram;
    const DramConfig &config = dram.config();
    // Two row hits in the same row: second is delayed by the burst.
    dram.access(0, AccessType::Read, 0);
    const Cycle a = dram.access(2, AccessType::Read, 10000);
    const Cycle b = dram.access(4, AccessType::Read, 10000);
    EXPECT_EQ(b - a, config.cpu(config.tBURST));
}

TEST(DramTiming, ChannelsOperateIndependently)
{
    DramSystem dram;
    // Saturate channel 0's bus; channel 1 must be unaffected.
    dram.access(0, AccessType::Read, 0);
    const Cycle ch0 = dram.access(2, AccessType::Read, 0);
    const Cycle ch1 = dram.access(1, AccessType::Read, 0);
    EXPECT_LT(ch1, ch0);
}

TEST(DramTiming, CompletionNeverBeforeSubmission)
{
    DramSystem dram;
    Cycle last = 0;
    for (LineAddr line = 0; line < 500; ++line) {
        const Cycle done = dram.access(line * 37, AccessType::Read,
                                       line * 3);
        EXPECT_GT(done, line * 3);
        last = std::max(last, done);
    }
    EXPECT_GT(last, 0u);
}

TEST(DramTiming, FawLimitsActivateBursts)
{
    DramSystem dram;
    const DramConfig &config = dram.config();
    // Five row-miss accesses to distinct banks of one rank: the fifth
    // ACT must wait for the tFAW window.
    std::uint64_t lines[5];
    for (unsigned i = 0; i < 5; ++i) {
        // Same channel (0), bank i, rank 0, row 0.
        lines[i] = std::uint64_t(i % config.banksPerRank) *
                   (config.channels * config.linesPerRow);
    }
    Cycle done[5];
    for (unsigned i = 0; i < 5; ++i)
        done[i] = dram.access(lines[i], AccessType::Read, 0);
    // With tFAW = 32 mem cycles and tRRD = 5, the 5th activate lands
    // at >= tFAW; its completion exceeds the 4th's by more than one
    // burst slot.
    EXPECT_GT(done[4], done[3] + config.cpu(config.tBURST) - 1);
}

TEST(DramActivity, CountsOpsAndRowOutcomes)
{
    DramSystem dram;
    dram.access(0, AccessType::Read, 0);   // closed -> ACT
    dram.access(2, AccessType::Read, 0);   // hit
    dram.access(2, AccessType::Write, 0);  // hit
    const auto activity = dram.totalActivity();
    EXPECT_EQ(activity.reads, 2u);
    EXPECT_EQ(activity.writes, 1u);
    EXPECT_EQ(activity.activates, 1u);
    EXPECT_EQ(activity.rowHits, 2u);
    EXPECT_EQ(activity.rowClosed, 1u);
    EXPECT_EQ(activity.rowConflicts, 0u);
}

TEST(DramActivity, ResetClears)
{
    DramSystem dram;
    dram.access(0, AccessType::Read, 0);
    dram.resetActivity();
    const auto activity = dram.totalActivity();
    EXPECT_EQ(activity.reads + activity.writes + activity.activates,
              0u);
}

TEST(DramPower, EnergyComposition)
{
    DramPowerParams params;
    ChannelActivity activity;
    activity.activates = 1000;
    activity.reads = 2000;
    activity.writes = 500;
    const DramEnergy energy = dramEnergy(params, activity, 0.01, 4);
    EXPECT_DOUBLE_EQ(energy.activateJ, 1000 * params.activateEnergyJ);
    EXPECT_DOUBLE_EQ(energy.readJ, 2000 * params.readEnergyJ);
    EXPECT_DOUBLE_EQ(energy.writeJ, 500 * params.writeEnergyJ);
    EXPECT_DOUBLE_EQ(energy.backgroundJ,
                     params.backgroundWattsPerRank * 4 * 0.01);
    EXPECT_DOUBLE_EQ(energy.totalJ(),
                     energy.activateJ + energy.readJ + energy.writeJ +
                         energy.backgroundJ);
}

TEST(DramPower, MoreTrafficMoreEnergy)
{
    DramSystem dram;
    for (LineAddr line = 0; line < 100; ++line)
        dram.access(line * 13, AccessType::Read, 0);
    const auto light = dramEnergy(DramPowerParams{},
                                  dram.totalActivity(), 0.001, 8);
    for (LineAddr line = 0; line < 10000; ++line)
        dram.access(line * 13, AccessType::Read, 0);
    const auto heavy = dramEnergy(DramPowerParams{},
                                  dram.totalActivity(), 0.001, 8);
    EXPECT_GT(heavy.totalJ(), light.totalJ());
}

} // namespace
} // namespace morph
