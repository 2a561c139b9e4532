/**
 * @file
 * DRAM bank state machine (row buffer + availability tracking).
 *
 * Each bank tracks its open row and the earliest CPU cycle at which a
 * new column command may begin. An access classifies as a row-buffer
 * hit (CAS only), a closed-row access (ACT + CAS) or a row conflict
 * (PRE + ACT + CAS); the paper's streaming-vs-random workload split
 * maps directly onto these classes. Both steps are defined here,
 * inline, because the channel calls them on every DRAM access.
 */

#ifndef MORPH_DRAM_BANK_HH
#define MORPH_DRAM_BANK_HH

#include <algorithm>
#include <cstdint>

#include "dram/dram_config.hh"

namespace morph
{

/** Outcome classification of one bank access. */
enum class RowOutcome : std::uint8_t { Hit, Closed, Conflict };

/** One DRAM bank. */
class Bank
{
  public:
    /**
     * Schedule an access's bank-side work.
     *
     * @param config   timing parameters
     * @param row      target row
     * @param is_write column command direction
     * @param earliest earliest CPU cycle the command sequence may start
     * @param act_ready earliest cycle an ACT may issue (tRRD/tFAW from
     *                  the rank; ignored for row hits)
     * @param cas_ready out: cycle at which the CAS issues
     * @param act_at    out: cycle of the ACT, or ~0 if none issued
     * @return outcome class (hit / closed / conflict)
     */
    RowOutcome
    schedule(const DramConfig &config, std::uint64_t row, bool is_write,
             Cycle earliest, Cycle act_ready, Cycle &cas_ready,
             Cycle &act_at)
    {
        (void)is_write;
        Cycle start = std::max(earliest, readyAt_);
        act_at = ~Cycle(0);

        if (rowOpen_ && openRow_ == row) {
            cas_ready = start;
            return RowOutcome::Hit;
        }

        RowOutcome outcome = RowOutcome::Closed;
        if (rowOpen_) {
            // Row conflict: precharge first, honoring tRAS since the
            // ACT.
            outcome = RowOutcome::Conflict;
            const Cycle pre_at =
                std::max(start, activatedAt_ + config.cpu(config.tRAS));
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

    /**
     * Commit the access once the data phase is placed on the bus.
     *
     * Reads pipeline: the next CAS to this bank may issue tCCD after
     * this one, so back-to-back row hits stream at burst rate.
     * Writes add the tWR recovery after the data burst.
     *
     * @param config     timing parameters
     * @param cas_at     cycle the CAS command actually issued
     * @param data_start first cycle of the data burst
     * @param is_write   direction
     */
    void
    complete(const DramConfig &config, Cycle cas_at, Cycle data_start,
             bool is_write)
    {
        if (is_write) {
            // Write recovery: the bank is busy until tWR past the
            // burst.
            readyAt_ = data_start + config.cpu(config.tBURST) +
                       config.cpu(config.tWR);
        } else {
            // Reads pipeline at tCCD; tRTP before a precharge is
            // folded into the conservative tRAS gate in schedule().
            readyAt_ = cas_at + config.cpu(config.tCCD);
        }
    }

    bool rowOpen() const { return rowOpen_; }
    std::uint64_t openRow() const { return openRow_; }

  private:
    bool rowOpen_ = false;
    std::uint64_t openRow_ = 0;
    Cycle readyAt_ = 0;     ///< earliest next command sequence
    Cycle activatedAt_ = 0; ///< last ACT (for tRAS)
};

} // namespace morph

#endif // MORPH_DRAM_BANK_HH
