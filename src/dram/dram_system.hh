/**
 * @file
 * Top-level DRAM system: channel demux plus aggregate accounting.
 */

#ifndef MORPH_DRAM_DRAM_SYSTEM_HH
#define MORPH_DRAM_DRAM_SYSTEM_HH

#include <string>
#include <vector>

#include "dram/channel.hh"

namespace morph
{

class StatRegistry;

/** The main-memory system (all channels). */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &config = DramConfig{});

    /**
     * Schedule one 64-byte access submitted at CPU cycle @p when.
     *
     * @param timing optional lifecycle detail for tracing (channel
     *               index, queue/burst/complete cycles)
     * @return completion CPU cycle (data burst fully transferred)
     */
    Cycle access(LineAddr line, AccessType type, Cycle when,
                 DramAccessTiming *timing = nullptr);

    /** Aggregate activity over all channels. */
    ChannelActivity totalActivity() const;

    /** Per-channel activity. */
    const ChannelActivity &activity(unsigned channel) const;

    /** Zero all activity counters (warm-up boundary). */
    void resetActivity();

    /**
     * Register per-channel activity counters ("<prefix>.chN.*") and
     * aggregate gauges ("<prefix>.row_hit_rate", ...) into
     * @p registry. Pointers into the channels are held; the registry
     * must not outlive this system.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    const DramConfig &config() const { return config_; }

    /**
     * decodeLine(config(), @p line). When channels, lines per row,
     * banks and ranks are all powers of two (the default 2/128/8/2),
     * the fields are cut out with precomputed shifts and masks instead
     * of four 64-bit divisions.
     */
    DramCoord
    decode(LineAddr line) const
    {
        if (!shiftDecode_)
            return decodeLine(config_, line);
        DramCoord coord;
        coord.channel = unsigned(line & channelMask_);
        coord.column = unsigned((line >> columnShift_) & columnMask_);
        coord.bank = unsigned((line >> bankShift_) & bankMask_);
        coord.rank = unsigned((line >> rankShift_) & rankMask_);
        coord.row = line >> rowShift_;
        return coord;
    }

    /** Whether decode() takes the shift/mask path. */
    bool shiftDecode() const { return shiftDecode_; }

  private:
    DramConfig config_;
    std::vector<Channel> channels_;

    bool shiftDecode_ = false;
    LineAddr channelMask_ = 0;
    LineAddr columnMask_ = 0;
    LineAddr bankMask_ = 0;
    LineAddr rankMask_ = 0;
    unsigned columnShift_ = 0;
    unsigned bankShift_ = 0;
    unsigned rankShift_ = 0;
    unsigned rowShift_ = 0;
};

} // namespace morph

#endif // MORPH_DRAM_DRAM_SYSTEM_HH
