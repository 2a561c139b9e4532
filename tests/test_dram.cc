/**
 * @file
 * Tests for the DDR3 timing model: address mapping, row-buffer
 * behaviour, bus serialization, and activity accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

/**
 * The channel as it was before its schedule was folded inline: a
 * separate Bank state machine, timing read through the config on every
 * access, and the refresh window always consulted. Kept here, verbatim
 * in its decisions, as the reference the inline channel must match.
 */
class ReferenceChannel
{
  public:
    explicit ReferenceChannel(const DramConfig &config)
        : config_(config),
          banks_(config.ranksPerChannel * config.banksPerRank),
          ranks_(config.ranksPerChannel),
          refreshesDone_(config.ranksPerChannel, 0)
    {}

    Cycle
    access(const DramCoord &coord, AccessType type, Cycle when,
           DramAccessTiming *timing)
    {
        if (config_.writeQueueing && type == AccessType::Write) {
            writeQueue_.push_back(coord);
            timing->submit = when;
            timing->burstStart = when;
            timing->complete = when;
            timing->queued = true;
            if (writeQueue_.size() >= config_.writeQueueHigh)
                drainWrites(when);
            return when;
        }
        return scheduleAccess(coord, type, when, timing);
    }

    ChannelActivity activity;
    Cycle busFreeAt = 0;

  private:
    enum class RowOutcome { Hit, Closed, Conflict };

    class Bank
    {
      public:
        RowOutcome
        schedule(const DramConfig &config, std::uint64_t row,
                 Cycle earliest, Cycle act_ready, Cycle &cas_ready,
                 Cycle &act_at)
        {
            Cycle start = std::max(earliest, readyAt_);
            act_at = ~Cycle(0);
            if (rowOpen_ && openRow_ == row) {
                cas_ready = start;
                return RowOutcome::Hit;
            }
            RowOutcome outcome = RowOutcome::Closed;
            if (rowOpen_) {
                outcome = RowOutcome::Conflict;
                const Cycle pre_at = std::max(
                    start, activatedAt_ + config.cpu(config.tRAS));
                start = pre_at + config.cpu(config.tRP);
            }
            const Cycle act = std::max(start, act_ready);
            act_at = act;
            activatedAt_ = act;
            rowOpen_ = true;
            openRow_ = row;
            cas_ready = act + config.cpu(config.tRCD);
            return outcome;
        }

        void
        complete(const DramConfig &config, Cycle cas_at,
                 Cycle data_start, bool is_write)
        {
            if (is_write)
                readyAt_ = data_start + config.cpu(config.tBURST) +
                           config.cpu(config.tWR);
            else
                readyAt_ = cas_at + config.cpu(config.tCCD);
        }

      private:
        bool rowOpen_ = false;
        std::uint64_t openRow_ = 0;
        Cycle readyAt_ = 0;
        Cycle activatedAt_ = 0;
    };

    struct RankWindow
    {
        std::array<Cycle, 4> lastActs{};
        unsigned next = 0;
        std::uint64_t actCount = 0;
        Cycle lastAct = 0;

        Cycle
        readyFor(const DramConfig &config) const
        {
            const Cycle faw_gate =
                actCount >= lastActs.size()
                    ? lastActs[next] + config.cpu(config.tFAW)
                    : 0;
            const Cycle rrd_gate =
                actCount >= 1 ? lastAct + config.cpu(config.tRRD) : 0;
            return std::max(faw_gate, rrd_gate);
        }

        void
        record(Cycle act_at)
        {
            lastActs[next] = act_at;
            next = unsigned((next + 1) % lastActs.size());
            lastAct = act_at;
            ++actCount;
        }
    };

    Cycle
    afterRefresh(unsigned rank, Cycle when)
    {
        if (!config_.refresh)
            return when;
        const Cycle interval = config_.cpu(config_.tREFI);
        const Cycle blocked = config_.cpu(config_.tRFC);
        const Cycle offset =
            interval * rank / std::max(1u, config_.ranksPerChannel);
        const Cycle phase = (when + interval - offset) % interval;
        const std::uint64_t elapsed =
            (when + interval - offset) / interval;
        if (elapsed > refreshesDone_[rank]) {
            activity.refreshes += elapsed - refreshesDone_[rank];
            refreshesDone_[rank] = elapsed;
        }
        if (phase < blocked)
            return when + (blocked - phase);
        return when;
    }

    void
    drainWrites(Cycle when)
    {
        ++activity.writeDrains;
        while (writeQueue_.size() > config_.writeQueueLow) {
            const DramCoord coord = writeQueue_.front();
            writeQueue_.erase(writeQueue_.begin());
            scheduleAccess(coord, AccessType::Write, when, nullptr);
        }
    }

    Cycle
    scheduleAccess(const DramCoord &coord, AccessType type, Cycle when,
                   DramAccessTiming *timing)
    {
        when = afterRefresh(coord.rank, when);
        Bank &bank = banks_[coord.rank * config_.banksPerRank + coord.bank];
        RankWindow &rank = ranks_[coord.rank];
        const bool is_write = type == AccessType::Write;

        Cycle cas_ready, act_at;
        const RowOutcome outcome =
            bank.schedule(config_, coord.row, when,
                          rank.readyFor(config_), cas_ready, act_at);
        if (act_at != ~Cycle(0)) {
            rank.record(act_at);
            ++activity.activates;
        }
        switch (outcome) {
          case RowOutcome::Hit:
            ++activity.rowHits;
            break;
          case RowOutcome::Closed:
            ++activity.rowClosed;
            break;
          case RowOutcome::Conflict:
            ++activity.rowConflicts;
            break;
        }

        const unsigned cas_latency =
            is_write ? config_.tCWL : config_.tCL;
        const Cycle data_ready = cas_ready + config_.cpu(cas_latency);
        const Cycle data_start = std::max(data_ready, busFreeAt);
        busFreeAt = data_start + config_.cpu(config_.tBURST);
        activity.busBusyCycles += config_.cpu(config_.tBURST);

        const Cycle cas_at = data_start - config_.cpu(cas_latency);
        bank.complete(config_, cas_at, data_start, is_write);
        if (is_write)
            ++activity.writes;
        else
            ++activity.reads;

        const Cycle done = data_start + config_.cpu(config_.tBURST);
        if (timing) {
            timing->submit = when;
            timing->burstStart = data_start;
            timing->complete = done;
            timing->queued = false;
        }
        return done;
    }

    DramConfig config_;
    std::vector<Bank> banks_;
    std::vector<RankWindow> ranks_;
    std::vector<DramCoord> writeQueue_;
    std::vector<std::uint64_t> refreshesDone_;
};

bool
sameActivity(const ChannelActivity &a, const ChannelActivity &b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.activates == b.activates && a.refreshes == b.refreshes &&
           a.rowHits == b.rowHits && a.rowClosed == b.rowClosed &&
           a.rowConflicts == b.rowConflicts &&
           a.writeDrains == b.writeDrains &&
           a.busBusyCycles == b.busBusyCycles;
}

/** DramSystem against per-channel references over one seeded stream
 *  mixing row hits, same-bank conflicts and scattered lines, submitted
 *  at jittered non-decreasing cycles. */
void
checkAgainstBankReference(const DramConfig &config, std::uint64_t seed)
{
    DramSystem dram(config);
    std::vector<ReferenceChannel> reference;
    for (unsigned c = 0; c < config.channels; ++c)
        reference.emplace_back(config);
    const std::uint64_t row_group = std::uint64_t(config.channels) *
                                    config.linesPerRow *
                                    config.banksPerRank *
                                    config.ranksPerChannel;
    Rng rng(seed);
    Cycle when = 0;
    LineAddr cursor = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        LineAddr line;
        switch (rng.below(3)) {
          case 0: // streaming: mostly row hits
            line = cursor++;
            break;
          case 1: // a few rows of one bank: conflicts
            line = rng.below(4) * row_group + rng.below(8);
            break;
          default:
            line = rng.below(1ull << 28);
            break;
        }
        const AccessType type = rng.chance(0.4) ? AccessType::Write
                                                : AccessType::Read;
        // Bursts at one cycle, short gaps, and rare idle stretches
        // long enough to cross refresh intervals.
        const unsigned shape = unsigned(rng.below(16));
        when += shape < 4    ? 0
                : shape < 15 ? rng.below(64)
                             : rng.below(40000);

        const DramCoord coord = decodeLine(config, line);
        DramAccessTiming got, want;
        want.channel = coord.channel;
        const Cycle done = dram.access(line, type, when, &got);
        ASSERT_EQ(done,
                  reference[coord.channel].access(coord, type, when,
                                                  &want))
            << "access " << i;
        ASSERT_EQ(got.submit, want.submit) << "access " << i;
        ASSERT_EQ(got.burstStart, want.burstStart) << "access " << i;
        ASSERT_EQ(got.complete, want.complete) << "access " << i;
        ASSERT_EQ(got.channel, want.channel) << "access " << i;
        ASSERT_EQ(got.queued, want.queued) << "access " << i;
        for (unsigned c = 0; c < config.channels; ++c)
            ASSERT_TRUE(sameActivity(dram.activity(c),
                                     reference[c].activity))
                << "access " << i << ", channel " << c;
    }
    // The stream reached every row outcome and, when on, the refresh
    // and drain paths.
    const ChannelActivity total = dram.totalActivity();
    EXPECT_GT(total.rowHits, 0u);
    EXPECT_GT(total.rowClosed, 0u);
    EXPECT_GT(total.rowConflicts, 0u);
    EXPECT_EQ(total.refreshes > 0, config.refresh);
    EXPECT_EQ(total.writeDrains > 0, config.writeQueueing);
}

TEST(DramTiming, InlineChannelMatchesBankReference)
{
    DramConfig odd; // no field a power of two
    odd.channels = 3;
    odd.ranksPerChannel = 3;
    odd.banksPerRank = 6;
    odd.linesPerRow = 96;
    std::uint64_t seed = 41;
    for (DramConfig config : {DramConfig{}, odd})
        for (const bool refresh : {false, true})
            for (const bool queueing : {false, true}) {
                config.refresh = refresh;
                config.writeQueueing = queueing;
                SCOPED_TRACE(testing::Message()
                             << config.channels << " channels, refresh "
                             << refresh << ", write queueing "
                             << queueing);
                checkAgainstBankReference(config, ++seed);
            }
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
