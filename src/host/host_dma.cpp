#include "host/host_dma.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace ehdl::host {

HostQueue::HostQueue(const HostDmaConfig &config, unsigned index)
    : cfg_(config), index_(index)
{
    if (cfg_.numQueues == 0)
        fatal("host dma: numQueues must be at least 1");
    if (cfg_.ringDepth == 0 || cfg_.shellFifoDepth == 0)
        fatal("host dma: ring and shell FIFO depths must be at least 1");
    if (cfg_.batchSize == 0)
        cfg_.batchSize = 1;
    if (cfg_.coalesceCount == 0)
        cfg_.coalesceCount = 1;
    if (cfg_.pcieGbps <= 0.0)
        fatal("host dma: PCIe bandwidth must be positive");
    if (cfg_.hostRateMpps <= 0.0)
        fatal("host dma: host service rate must be positive");
    bpsShare_ = static_cast<uint64_t>(cfg_.pcieGbps * 1e9 /
                                      static_cast<double>(cfg_.numQueues));
    if (bpsShare_ == 0)
        bpsShare_ = 1;
    ratePps_ = static_cast<uint64_t>(cfg_.hostRateMpps * 1e6);
    if (ratePps_ == 0)
        ratePps_ = 1;
    txPerMille_ = static_cast<uint64_t>(
        std::clamp(cfg_.txReinjectFraction, 0.0, 1.0) * 1000.0 + 0.5);
    occHist_.assign(cfg_.ringDepth + 1, 0);
}

/** Cycles the per-queue PCIe share needs to move @p bytes of payload. */
uint64_t
HostQueue::bwCycles(uint64_t bytes) const
{
    const uint64_t bit_cycles = bytes * 8 * cfg_.clockHz;
    const uint64_t cycles = (bit_cycles + bpsShare_ - 1) / bpsShare_;
    return cycles == 0 ? 1 : cycles;
}

/** Next host service interval (Bresenham: averages clockHz/ratePps). */
uint64_t
HostQueue::serviceInterval()
{
    svcAcc_ += cfg_.clockHz;
    const uint64_t interval = svcAcc_ / ratePps_;
    svcAcc_ %= ratePps_;
    return interval;
}

void
HostQueue::noteOccupancy(uint64_t cycle)
{
    // Posted occupancy: slots reserved for the in-flight burst count too,
    // exactly as posted descriptors occupy a real ring.
    const size_t occ =
        std::min<size_t>(ring_.size() + inflightDescs_, cfg_.ringDepth);
    if (cycle > lastOccCycle_)
        occHist_[occ] += cycle - lastOccCycle_;
    lastOccCycle_ = cycle;
}

void
HostQueue::raiseInterrupt(bool by_count)
{
    visible_ = static_cast<uint32_t>(ring_.size());
    pendingCompl_ = 0;
    coalesceDeadline_ = UINT64_MAX;
    counters_.interrupts++;
    if (by_count)
        counters_.countTriggeredIrqs++;
    else
        counters_.timerTriggeredIrqs++;
}

uint64_t
HostQueue::nextEventCycle() const
{
    uint64_t next = UINT64_MAX;
    if (!inflight_.empty())
        next = inflight_.front().landCycle;
    if (pendingCompl_ > 0)
        next = std::min(next, coalesceDeadline_);
    if (visible_ > 0)
        next = std::min(next, std::max(hostFreeCycle_, now_));
    if (!txCompletions_.empty())
        next = std::min(next, txCompletions_.front());
    // A DMA burst issues as soon as the FIFO has descriptors, the ring
    // has a free (unposted) slot, and the RX link direction is free —
    // bursts pipeline over the link, so the serializing resource is the
    // bandwidth occupancy, not the landing latency.
    if (!fifo_.empty() &&
        ring_.size() + inflightDescs_ < cfg_.ringDepth)
        next = std::min(next, std::max(dmaLinkFreeCycle_, now_));
    return next;
}

/**
 * Process events in cycle order up to @p target (inclusive). Ties break
 * in a fixed priority order — TX landings, DMA completion, coalescing
 * timer, host consume, DMA start — so cascades at one cycle resolve
 * deterministically. @return true if any event was processed.
 */
bool
HostQueue::processEventsUpTo(uint64_t target)
{
    bool any = false;
    for (;;) {
        const uint64_t e = nextEventCycle();
        if (e > target)
            break;
        any = true;
        const uint64_t cycle = std::max(e, now_);

        if (!txCompletions_.empty() && txCompletions_.front() <= cycle) {
            // TX descriptor landed in the shell: it re-enters the egress
            // path ahead of the arbiter (host traffic has priority), so
            // it only counts — it never re-traverses the pipeline.
            txCompletions_.pop_front();
            txPending_--;
            counters_.txEmitted++;
            now_ = cycle;
            continue;
        }
        if (!inflight_.empty() && inflight_.front().landCycle <= cycle) {
            // Burst landed: descriptors become ring entries awaiting an
            // IRQ; arm the coalescing timer on the first of a batch.
            DmaBurst burst = std::move(inflight_.front());
            inflight_.pop_front();
            now_ = burst.landCycle;
            for (const uint32_t bytes : burst.descs)
                ring_.push_back(bytes);
            pendingCompl_ += static_cast<uint32_t>(burst.descs.size());
            inflightDescs_ -= static_cast<uint32_t>(burst.descs.size());
            if (coalesceDeadline_ == UINT64_MAX)
                coalesceDeadline_ = now_ + cfg_.coalesceTimeoutCycles;
            if (pendingCompl_ >= cfg_.coalesceCount)
                raiseInterrupt(true);
            continue;
        }
        if (pendingCompl_ > 0 && coalesceDeadline_ <= cycle) {
            now_ = coalesceDeadline_;
            raiseInterrupt(false);
            continue;
        }
        if (visible_ > 0 && std::max(hostFreeCycle_, now_) <= cycle) {
            // Host consumes the head descriptor and frees its ring slot.
            now_ = std::max(hostFreeCycle_, now_);
            noteOccupancy(now_);
            const uint32_t bytes = ring_.front();
            ring_.pop_front();
            visible_--;
            counters_.consumed++;
            counters_.consumedBytes += bytes;
            hostFreeCycle_ = now_ + serviceInterval();
            if (txPerMille_ > 0) {
                txAcc_ += txPerMille_;
                if (txAcc_ >= 1000) {
                    txAcc_ -= 1000;
                    if (txPending_ >= cfg_.ringDepth) {
                        counters_.txRingDrops++;
                    } else {
                        // TX DMA pipelines over the TX link direction:
                        // bandwidth serializes, latency only offsets.
                        txPending_++;
                        counters_.txInjected++;
                        counters_.txBytes += bytes;
                        txDmaFreeCycle_ = std::max(txDmaFreeCycle_, now_) +
                                          bwCycles(bytes);
                        txCompletions_.push_back(txDmaFreeCycle_ +
                                                 cfg_.dmaLatencyCycles);
                    }
                }
            }
            continue;
        }
        // DMA issue: reserve ring slots for up to batchSize descriptors
        // and occupy the link for the burst's bandwidth cost; the burst
        // lands one DMA latency after its link occupancy ends.
        if (!fifo_.empty() &&
            ring_.size() + inflightDescs_ < cfg_.ringDepth &&
            std::max(dmaLinkFreeCycle_, now_) <= cycle) {
            now_ = std::max(dmaLinkFreeCycle_, now_);
            noteOccupancy(now_);
            const size_t free_slots =
                cfg_.ringDepth - ring_.size() - inflightDescs_;
            const size_t count =
                std::min<size_t>({cfg_.batchSize, fifo_.size(), free_slots});
            DmaBurst burst;
            burst.descs.reserve(count);
            uint64_t burst_bytes = 0;
            for (size_t i = 0; i < count; ++i) {
                burst.descs.push_back(fifo_.front());
                burst_bytes += fifo_.front();
                fifo_.pop_front();
            }
            counters_.dmaBursts++;
            counters_.dmaDescriptors += count;
            counters_.dmaBytes += burst_bytes;
            dmaLinkFreeCycle_ = now_ + bwCycles(burst_bytes);
            burst.landCycle = dmaLinkFreeCycle_ + cfg_.dmaLatencyCycles;
            inflightDescs_ += static_cast<uint32_t>(count);
            inflight_.push_back(std::move(burst));
            continue;
        }
        break;
    }
    return any;
}

void
HostQueue::advanceTo(uint64_t cycle)
{
    if (cycle > now_) {
        processEventsUpTo(cycle);
        noteOccupancy(cycle);
        now_ = cycle;
    } else {
        processEventsUpTo(now_);
    }
    counters_.fifoOccupancy = static_cast<uint32_t>(fifo_.size());
    counters_.ringOccupancy =
        static_cast<uint32_t>(ring_.size()) + inflightDescs_;
    counters_.visibleDescriptors = visible_;
}

void
HostQueue::onRetire(uint64_t cycle, const sim::PacketOutcome &out)
{
    if (out.action != ebpf::XdpAction::Pass)
        return;
    advanceTo(cycle);
    counters_.enqueued++;
    if (fifo_.size() >= cfg_.shellFifoDepth) {
        // Host backpressure surfaced as a shell drop: the RX ring (and
        // therefore the FIFO behind it) is full. Distinct reason counter;
        // the pipeline itself never stalls for the host.
        counters_.shellDrops++;
        return;
    }
    fifo_.push_back(static_cast<uint32_t>(out.bytes.size()));
    // The DMA engine may be able to start on this descriptor immediately.
    advanceTo(cycle);
}

uint64_t
HostQueue::finish()
{
    while (!fifo_.empty() || !inflight_.empty() || !ring_.empty() ||
           pendingCompl_ > 0 || !txCompletions_.empty()) {
        const uint64_t e = nextEventCycle();
        if (e == UINT64_MAX)
            panic("host dma queue wedged during finish()");
        if (!processEventsUpTo(std::max(e, now_)))
            panic("host dma queue made no progress during finish()");
    }
    advanceTo(now_);
    return now_;
}

HostQueueCounters
HostQueue::sampleAt(uint64_t cycle)
{
    advanceTo(cycle);
    return counters_;
}

unsigned
HostQueue::occupancyPercentile(double p) const
{
    uint64_t total = 0;
    for (const uint64_t c : occHist_)
        total += c;
    if (total == 0)
        return 0;
    const double want = p * static_cast<double>(total);
    uint64_t seen = 0;
    for (size_t occ = 0; occ < occHist_.size(); ++occ) {
        seen += occHist_[occ];
        if (static_cast<double>(seen) >= want)
            return static_cast<unsigned>(occ);
    }
    return static_cast<unsigned>(occHist_.size() - 1);
}

HostDatapath::HostDatapath(HostDmaConfig config) : config_(config)
{
    if (config_.numQueues == 0)
        fatal("host dma: numQueues must be at least 1");
    queues_.reserve(config_.numQueues);
    for (unsigned q = 0; q < config_.numQueues; ++q)
        queues_.push_back(std::make_unique<HostQueue>(config_, q));
}

void
HostDatapath::attach(sim::PipeSim &sim, unsigned q)
{
    sim.attachRetireSink(&queue(q));
}

void
HostDatapath::attach(sim::MultiPipeSim &multi)
{
    if (multi.numReplicas() > queues_.size())
        fatal("host dma: ", multi.numReplicas(), " replicas but only ",
              queues_.size(), " host queues");
    for (size_t r = 0; r < multi.numReplicas(); ++r)
        multi.replica(r).attachRetireSink(queues_[r].get());
}

uint64_t
HostDatapath::finishAll()
{
    uint64_t last = 0;
    for (const auto &q : queues_)
        last = std::max(last, q->finish());
    return last;
}

HostQueueCounters
HostDatapath::totals() const
{
    HostQueueCounters t;
    for (const auto &q : queues_)
        counters::mergeInto(t, q->counters());
    return t;
}

Json
hostDatapathJson(const HostDatapath &host)
{
    const HostDmaConfig &cfg = host.config();
    Json config;
    config.set("numQueues", Json::integer(cfg.numQueues))
        .set("ringDepth", Json::integer(cfg.ringDepth))
        .set("shellFifoDepth", Json::integer(cfg.shellFifoDepth))
        .set("batchSize", Json::integer(cfg.batchSize))
        .set("coalesceCount", Json::integer(cfg.coalesceCount))
        .set("coalesceTimeoutCycles",
             Json::integer(cfg.coalesceTimeoutCycles))
        .set("pcieGbps", Json::num(cfg.pcieGbps))
        .set("dmaLatencyCycles", Json::integer(cfg.dmaLatencyCycles))
        .set("hostRateMpps", Json::num(cfg.hostRateMpps))
        .set("txReinjectFraction", Json::num(cfg.txReinjectFraction));

    Json queues = Json::array();
    for (unsigned q = 0; q < host.numQueues(); ++q) {
        const HostQueue &hq = host.queue(q);
        Json row = counters::toJson(hq.counters());
        row.set("queue", Json::integer(q))
            .set("occupancyP50",
                 Json::integer(hq.occupancyPercentile(0.50)))
            .set("occupancyP99",
                 Json::integer(hq.occupancyPercentile(0.99)));
        queues.push(std::move(row));
    }

    Json j;
    j.set("config", std::move(config))
        .set("queues", std::move(queues))
        .set("totals", counters::toJson(host.totals()));
    return j;
}

}  // namespace ehdl::host
