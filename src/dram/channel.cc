#include "dram/channel.hh"

namespace morph
{

Channel::Channel(const DramConfig &config)
    : ranksPerChannel_(config.ranksPerChannel),
      banksPerRank_(config.banksPerRank), refresh_(config.refresh),
      writeQueueing_(config.writeQueueing),
      writeQueueHigh_(config.writeQueueHigh),
      writeQueueLow_(config.writeQueueLow), tCL_(config.cpu(config.tCL)),
      tCWL_(config.cpu(config.tCWL)), tRCD_(config.cpu(config.tRCD)),
      tRP_(config.cpu(config.tRP)), tRAS_(config.cpu(config.tRAS)),
      tBURST_(config.cpu(config.tBURST)), tCCD_(config.cpu(config.tCCD)),
      tWR_(config.cpu(config.tWR)), tRRD_(config.cpu(config.tRRD)),
      tFAW_(config.cpu(config.tFAW)), tREFI_(config.cpu(config.tREFI)),
      tRFC_(config.cpu(config.tRFC)),
      banks_(config.ranksPerChannel * config.banksPerRank),
      ranks_(config.ranksPerChannel),
      refreshesDone_(config.ranksPerChannel, 0)
{
    if (config.writeQueueing)
        writeQueue_.reserve(config.writeQueueHigh);
}

Cycle
Channel::afterRefresh(unsigned rank, Cycle when)
{
    // Ranks refresh every tREFI, staggered across the interval; a
    // command landing inside a refresh window waits it out.
    const Cycle offset = tREFI_ * rank / std::max(1u, ranksPerChannel_);
    const Cycle phase = (when + tREFI_ - offset) % tREFI_;
    // Account refreshes that have elapsed up to `when` (power model).
    const std::uint64_t elapsed = (when + tREFI_ - offset) / tREFI_;
    if (elapsed > refreshesDone_[rank]) {
        activity_.refreshes += elapsed - refreshesDone_[rank];
        refreshesDone_[rank] = elapsed;
    }
    if (phase < tRFC_)
        return when + (tRFC_ - phase);
    return when;
}

Cycle
Channel::postWrite(const DramCoord &coord, Cycle when,
                   DramAccessTiming *timing)
{
    // Posted write: buffered, bus-invisible until a drain.
    writeQueue_.push_back(coord);
    if (timing) {
        timing->submit = when;
        timing->burstStart = when;
        timing->complete = when;
        timing->queued = true;
    }
    if (writeQueue_.size() >= writeQueueHigh_)
        drainWrites(when);
    return when;
}

void
Channel::drainWrites(Cycle when)
{
    ++activity_.writeDrains;
    if (writeQueue_.size() <= writeQueueLow_)
        return;
    // Oldest first, down to the low watermark.
    const std::size_t drained = writeQueue_.size() - writeQueueLow_;
    for (std::size_t i = 0; i < drained; ++i)
        schedule(writeQueue_[i], AccessType::Write, when, nullptr);
    writeQueue_.erase(writeQueue_.begin(),
                      writeQueue_.begin() + std::ptrdiff_t(drained));
}

} // namespace morph
