/**
 * @file
 * DRAM channel: banks, the shared data bus, and rank ACT windows.
 *
 * Requests are scheduled in arrival order (FCFS) against bank and bus
 * resources: bank preparation (PRE/ACT/CAS) proceeds in parallel
 * across banks, while data bursts serialize on the channel's data
 * bus. Rank-level tRRD and tFAW constraints gate activates. This
 * captures the two effects the paper's evaluation hinges on — row
 * locality and bandwidth saturation under metadata traffic bloat —
 * while staying simple enough to schedule each access in O(1).
 *
 * Each bank tracks its open row and the earliest CPU cycle at which a
 * new command sequence may begin. An access classifies as a row-buffer
 * hit (CAS only), a closed-row access (ACT + CAS) or a row conflict
 * (PRE + ACT + CAS); the paper's streaming-vs-random workload split
 * maps directly onto these classes. The scheduling step is defined
 * here, inline, because it runs on every DRAM access; the timing
 * parameters are converted to CPU cycles once, at construction.
 */

#ifndef MORPH_DRAM_CHANNEL_HH
#define MORPH_DRAM_CHANNEL_HH

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.hh"
#include "dram/dram_config.hh"

namespace morph
{

/**
 * Timing detail of one scheduled access (request-lifecycle tracing).
 *
 * For a normally scheduled access, submit <= burstStart < complete:
 * [submit, burstStart) is queueing plus bank preparation, [burstStart,
 * complete) the data burst on the shared bus. A posted write under
 * write-queueing reports queued = true with all three equal to the
 * submit cycle (its bus activity happens later, at drain time).
 */
struct DramAccessTiming
{
    Cycle submit = 0;     ///< cycle the request entered the channel
    Cycle burstStart = 0; ///< cycle the data burst won the bus
    Cycle complete = 0;   ///< cycle the burst finished
    unsigned channel = 0; ///< owning channel index
    bool queued = false;  ///< buffered posted write, not yet issued
};

/** Per-channel activity counters (power model inputs). */
struct ChannelActivity
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowClosed = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t writeDrains = 0; ///< write-queue drain episodes
    Cycle busBusyCycles = 0; ///< CPU cycles of data-bus occupancy
};

/** One memory channel with its ranks and banks. */
class Channel
{
  public:
    explicit Channel(const DramConfig &config);

    /**
     * Schedule one line access submitted at CPU cycle @p when.
     *
     * @param timing optional out-param filled with the access's
     *               lifecycle cycles (tracing; never affects timing)
     * @return the CPU cycle at which the data burst completes
     */
    Cycle
    access(const DramCoord &coord, AccessType type, Cycle when,
           DramAccessTiming *timing = nullptr)
    {
        if (writeQueueing_ && type == AccessType::Write) [[unlikely]]
            return postWrite(coord, when, timing);
        return schedule(coord, type, when, timing);
    }

    const ChannelActivity &activity() const { return activity_; }
    void resetActivity() { activity_ = ChannelActivity{}; }

    /** Earliest cycle the data bus is free (introspection/tests). */
    Cycle busFreeAt() const { return busFreeAt_; }

  private:
    /** Row buffer and availability of one bank. */
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0;     ///< earliest next command sequence
        Cycle activatedAt = 0; ///< last ACT (for tRAS)
    };

    /** Rank ACT-window bookkeeping for tRRD / tFAW. */
    struct RankWindow
    {
        std::array<Cycle, 4> lastActs{}; ///< rolling, oldest replaced
        unsigned next = 0;
        std::uint64_t actCount = 0;
        Cycle lastAct = 0;
    };

    /**
     * Schedule one access against bank/bus resources (no queuing):
     * the rank's refresh window, the bank's PRE/ACT/CAS sequence
     * under tRRD/tFAW, then the data burst on the shared bus.
     */
    Cycle
    schedule(const DramCoord &coord, AccessType type, Cycle when,
             DramAccessTiming *timing)
    {
        MORPH_CHECK_LT(coord.rank, ranksPerChannel_);
        MORPH_CHECK_LT(coord.bank, banksPerRank_);
        if (refresh_) [[unlikely]]
            when = afterRefresh(coord.rank, when);

        Bank &bank = banks_[coord.rank * banksPerRank_ + coord.bank];
        const bool is_write = type == AccessType::Write;

        Cycle start = std::max(when, bank.readyAt);
        Cycle cas_ready;
        if (bank.rowOpen && bank.openRow == coord.row) {
            cas_ready = start;
            ++activity_.rowHits;
        } else {
            if (bank.rowOpen) {
                // Row conflict: precharge first, honoring tRAS since
                // the ACT.
                start = std::max(start, bank.activatedAt + tRAS_) + tRP_;
                ++activity_.rowConflicts;
            } else {
                ++activity_.rowClosed;
            }
            // tFAW: the new ACT must start after the 4th-most-recent
            // ACT plus the window; tRRD: after the most recent ACT
            // plus tRRD. Neither gate applies until enough activates
            // have actually occurred.
            RankWindow &rank = ranks_[coord.rank];
            const Cycle faw_gate =
                rank.actCount >= rank.lastActs.size()
                    ? rank.lastActs[rank.next] + tFAW_
                    : 0;
            const Cycle rrd_gate =
                rank.actCount >= 1 ? rank.lastAct + tRRD_ : 0;
            const Cycle act =
                std::max(start, std::max(faw_gate, rrd_gate));
            rank.lastActs[rank.next] = act;
            rank.next = (rank.next + 1) & 3;
            rank.lastAct = act;
            ++rank.actCount;
            ++activity_.activates;

            bank.activatedAt = act;
            bank.rowOpen = true;
            bank.openRow = coord.row;
            cas_ready = act + tRCD_;
        }

        // Column access latency, then the burst must win the shared
        // bus.
        const Cycle cas_latency = is_write ? tCWL_ : tCL_;
        const Cycle data_start =
            std::max(cas_ready + cas_latency, busFreeAt_);
        const Cycle done = data_start + tBURST_;
        busFreeAt_ = done;
        activity_.busBusyCycles += tBURST_;

        if (is_write) {
            // Write recovery: the bank is busy until tWR past the
            // burst.
            bank.readyAt = done + tWR_;
            ++activity_.writes;
        } else {
            // Reads pipeline at tCCD after the CAS, which issued CL
            // before the burst; tRTP before a precharge is folded
            // into the conservative tRAS gate above.
            bank.readyAt = data_start - cas_latency + tCCD_;
            ++activity_.reads;
        }

        if (timing) {
            timing->submit = when;
            timing->burstStart = data_start;
            timing->complete = done;
            timing->queued = false;
        }
        return done;
    }

    /** Buffer a posted write; drain at the high watermark. */
    Cycle postWrite(const DramCoord &coord, Cycle when,
                    DramAccessTiming *timing);

    /** Earliest start for @p rank at @p when, refresh applied. */
    Cycle afterRefresh(unsigned rank, Cycle when);

    /** Drain buffered writes down to the low watermark. */
    void drainWrites(Cycle when);

    // Geometry and policy.
    unsigned ranksPerChannel_;
    unsigned banksPerRank_;
    bool refresh_;
    bool writeQueueing_;
    unsigned writeQueueHigh_;
    unsigned writeQueueLow_;

    // Timing, in CPU cycles.
    Cycle tCL_, tCWL_, tRCD_, tRP_, tRAS_, tBURST_, tCCD_, tWR_;
    Cycle tRRD_, tFAW_, tREFI_, tRFC_;

    std::vector<Bank> banks_;       ///< ranksPerChannel * banksPerRank
    std::vector<RankWindow> ranks_;
    std::vector<DramCoord> writeQueue_;
    std::vector<std::uint64_t> refreshesDone_; ///< per rank
    Cycle busFreeAt_ = 0;
    ChannelActivity activity_;
};

} // namespace morph

#endif // MORPH_DRAM_CHANNEL_HH
