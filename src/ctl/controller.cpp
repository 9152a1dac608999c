#include "ctl/controller.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "common/logging.hpp"
#include "ebpf/vm.hpp"
#include "sim/stats_json.hpp"

namespace ehdl::ctl {

namespace {

/** Steps a simulator until its clock reaches @p cycle. */
void
advanceTo(sim::PipeSim &s, uint64_t cycle)
{
    s.setFastForwardLimit(cycle);
    while (s.cycle() < cycle)
        s.step();
}

/** Holds injection and retires every in-flight packet. */
void
quiesce(sim::PipeSim &s)
{
    s.holdInjection(true);
    const uint64_t guard = s.cycle() + 1000000ULL +
                           2000ULL * s.pipeline().numStages();
    while (!s.pipelineEmpty()) {
        s.step();
        if (s.cycle() > guard)
            panic("ctl quiesce did not empty the pipeline (livelock?)");
    }
}

/**
 * Where two byte strings first differ: "len A vs B" plus, when a common
 * offset differs, the offset and both byte values.
 */
std::string
hexPreview(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    std::ostringstream os;
    size_t first = 0;
    const size_t n = std::min(a.size(), b.size());
    while (first < n && a[first] == b[first])
        ++first;
    os << "len " << a.size() << " vs " << b.size();
    if (first < n) {
        os << ", first differing byte at offset " << first << " (0x"
           << std::hex << static_cast<int>(a[first]) << " vs 0x"
           << static_cast<int>(b[first]) << std::dec << ")";
    }
    return os.str();
}

}  // namespace

void
applyHostTxn(ebpf::MapSet &maps, const CtlTxn &txn,
             std::vector<CtlOpResult> &results)
{
    results.clear();
    results.reserve(txn.ops.size());
    std::set<ebpf::Map *> touched;
    for (const CtlMapOp &op : txn.ops) {
        ebpf::Map *map = maps.byName(op.map);
        if (map == nullptr)
            fatal("ctl: unknown map '", op.map, "'");
        CtlOpResult res;
        switch (op.kind) {
          case CtlOpKind::MapLookup: {
              const auto value = map->hostLookup(op.key);
              res.hit = value.has_value();
              if (value)
                  res.value = *value;
              break;
          }
          case CtlOpKind::MapUpdate:
            res.rc = map->hostUpdate(op.key, op.value, op.flags);
            if (res.rc == 0)
                touched.insert(map);
            break;
          case CtlOpKind::MapDelete:
            res.rc = map->hostDelete(op.key);
            if (res.rc == 0)
                touched.insert(map);
            break;
          default:
            fatal("ctl: ", ctlOpKindName(op.kind),
                  " is not a map primitive");
        }
        results.push_back(std::move(res));
    }
    // One host write transaction = one new update epoch per touched map,
    // regardless of how many primitives the batch carried.
    for (ebpf::Map *map : touched)
        map->bumpGeneration();
}

CtlController::CtlController(sim::PipeSim &sim, ebpf::MapSet &maps,
                             CtlChannelConfig config)
    : channel_(config)
{
    sims_.push_back(&sim);
    maps_.push_back(&maps);
}

CtlController::CtlController(sim::MultiPipeSim &multi,
                             CtlChannelConfig config)
    : channel_(config)
{
    sharedMode_ = multi.config().mapMode == sim::MapMode::Shared;
    threaded_ = multi.config().threaded;
    for (size_t r = 0; r < multi.numReplicas(); ++r) {
        sims_.push_back(&multi.replica(r));
        maps_.push_back(&multi.replicaMaps(r));
    }
}

void
CtlController::addProgram(const std::string &label, const hdl::Pipeline &pipe)
{
    programs_[label] = &pipe;
}

void
CtlController::validate(const CtlSchedule &sched) const
{
    uint64_t prev = 0;
    for (const CtlTxn &txn : sched.txns) {
        if (txn.cycle < prev)
            fatal("ctl schedule transactions must be in cycle order");
        prev = txn.cycle;
        switch (txn.kind) {
          case CtlOpKind::MapLookup:
          case CtlOpKind::MapUpdate:
          case CtlOpKind::MapDelete:
            if (txn.ops.size() != 1 || txn.ops[0].kind != txn.kind)
                fatal("ctl: ", ctlOpKindName(txn.kind),
                      " transaction must carry exactly its one op");
            break;
          case CtlOpKind::MapBatch:
            if (txn.ops.empty())
                fatal("ctl: empty map_batch");
            if (txn.ops.size() > channel_.config().maxBatchOps)
                fatal("ctl: map_batch of ", txn.ops.size(),
                      " ops exceeds the channel limit of ",
                      channel_.config().maxBatchOps);
            break;
          case CtlOpKind::SwapProgram:
            if (programs_.find(txn.program) == programs_.end())
                fatal("ctl: swap_program target '", txn.program,
                      "' is not registered");
            break;
          case CtlOpKind::StatsStream:
            if (txn.streamPeriod == 0 || txn.streamCount == 0)
                fatal("ctl: stats_stream needs a nonzero period and count");
            if (txn.streamCount > 65536)
                fatal("ctl: stats_stream of ", txn.streamCount,
                      " samples exceeds the limit of 65536");
            break;
          case CtlOpKind::StatsRead:
          case CtlOpKind::Drain:
            break;
        }
        for (const CtlMapOp &op : txn.ops)
            if (maps_[0]->byName(op.map) == nullptr)
                fatal("ctl: unknown map '", op.map, "'");
    }
}

void
CtlController::applyOnReplica(size_t r, const CtlTxn &txn,
                              uint64_t device_cycle, CtlTxnRecord &rec)
{
    sim::PipeSim &s = *sims_[r];
    advanceTo(s, device_cycle);
    if (txn.kind == CtlOpKind::StatsRead) {
        // Side-band register read: no quiescence, no datapath cost.
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        rec.statsSnapshot[r] = s.stats();
        return;
    }
    if (txn.kind == CtlOpKind::StatsStream) {
        // Device-side autonomous sampling: one mailbox transaction, the
        // device samples every streamPeriod cycles, streamCount times.
        // Side-band like stats_read — the datapath never quiesces — but
        // the mailbox stays busy until the last sample ships.
        std::vector<CtlStreamSample> &series = rec.streamSamples[r];
        series.reserve(txn.streamCount);
        for (uint64_t i = 0; i < txn.streamCount; ++i) {
            const uint64_t at = device_cycle + i * txn.streamPeriod;
            advanceTo(s, at);
            CtlStreamSample sample;
            sample.cycle = s.cycle();
            sample.stats = s.stats();
            if (host_ != nullptr && r < host_->numQueues()) {
                sample.hostValid = true;
                sample.host = host_->queue(static_cast<unsigned>(r))
                                  .sampleAt(sample.cycle);
            }
            series.push_back(std::move(sample));
        }
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        return;
    }
    if (txn.kind == CtlOpKind::Drain) {
        s.setFastForwardLimit(UINT64_MAX);
        s.drain();
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        return;
    }
    quiesce(s);
    rec.applyCycle[r] = s.cycle();
    rec.retiredBefore[r] = s.stats().completed;
    if (txn.kind == CtlOpKind::SwapProgram)
        s.swapPipeline(*programs_.at(txn.program));
    else
        applyHostTxn(*maps_[r], txn, rec.results[r]);
    s.holdInjection(false);
}

void
CtlController::applyShared(const CtlTxn &txn, uint64_t device_cycle,
                           CtlTxnRecord &rec)
{
    // Shared maps: replicas advance in the same round-robin lockstep the
    // drain uses, so cross-replica cycle interleaving stays deterministic.
    const auto lockstep = [this](const auto &busy, const auto &act) {
        for (;;) {
            bool any = false;
            for (size_t r = 0; r < sims_.size(); ++r)
                if (busy(*sims_[r])) {
                    act(*sims_[r]);
                    any = true;
                }
            if (!any)
                return;
        }
    };
    for (sim::PipeSim *s : sims_)
        s->setFastForwardLimit(device_cycle);
    lockstep(
        [device_cycle](sim::PipeSim &s) {
            return s.cycle() < device_cycle;
        },
        [](sim::PipeSim &s) { s.step(); });

    const auto record = [this, &rec](size_t r) {
        rec.applyCycle[r] = sims_[r]->cycle();
        rec.retiredBefore[r] = sims_[r]->stats().completed;
    };
    if (txn.kind == CtlOpKind::StatsRead) {
        for (size_t r = 0; r < sims_.size(); ++r) {
            record(r);
            rec.statsSnapshot[r] = sims_[r]->stats();
        }
        return;
    }
    if (txn.kind == CtlOpKind::StatsStream) {
        for (uint64_t i = 0; i < txn.streamCount; ++i) {
            const uint64_t at = device_cycle + i * txn.streamPeriod;
            for (sim::PipeSim *s : sims_)
                s->setFastForwardLimit(at);
            lockstep([at](sim::PipeSim &s) { return s.cycle() < at; },
                     [](sim::PipeSim &s) { s.step(); });
            for (size_t r = 0; r < sims_.size(); ++r) {
                CtlStreamSample sample;
                sample.cycle = sims_[r]->cycle();
                sample.stats = sims_[r]->stats();
                if (host_ != nullptr && r < host_->numQueues()) {
                    sample.hostValid = true;
                    sample.host =
                        host_->queue(static_cast<unsigned>(r))
                            .sampleAt(sample.cycle);
                }
                rec.streamSamples[r].push_back(std::move(sample));
            }
        }
        for (size_t r = 0; r < sims_.size(); ++r)
            record(r);
        return;
    }
    if (txn.kind == CtlOpKind::Drain) {
        for (sim::PipeSim *s : sims_)
            s->setFastForwardLimit(UINT64_MAX);
        lockstep([](sim::PipeSim &s) { return !s.idle(); },
                 [](sim::PipeSim &s) { s.step(); });
        for (size_t r = 0; r < sims_.size(); ++r)
            record(r);
        return;
    }
    // Global quiescence: hold every replica, retire every in-flight
    // packet, apply once against the shared set.
    for (sim::PipeSim *s : sims_)
        s->holdInjection(true);
    lockstep([](sim::PipeSim &s) { return !s.pipelineEmpty(); },
             [](sim::PipeSim &s) { s.step(); });
    for (size_t r = 0; r < sims_.size(); ++r)
        record(r);
    if (txn.kind == CtlOpKind::SwapProgram) {
        for (sim::PipeSim *s : sims_)
            s->swapPipeline(*programs_.at(txn.program));
    } else {
        applyHostTxn(*maps_[0], txn, rec.results[0]);
    }
    for (sim::PipeSim *s : sims_)
        s->holdInjection(false);
}

CtlRunReport
CtlController::run(const CtlSchedule &sched)
{
    validate(sched);
    const size_t replicas = sims_.size();
    CtlRunReport report;
    report.numReplicas = static_cast<unsigned>(replicas);
    report.txns.reserve(sched.txns.size());

    for (const CtlTxn &txn : sched.txns) {
        CtlTxnRecord rec;
        rec.txn = txn;
        rec.submitCycle = channel_.submit(txn.cycle);
        rec.deviceCycle = rec.submitCycle + channel_.upLatency();
        rec.applyCycle.assign(replicas, 0);
        rec.retiredBefore.assign(replicas, 0);
        rec.results.resize(replicas);
        if (txn.kind == CtlOpKind::StatsRead)
            rec.statsSnapshot.resize(replicas);
        // Preallocated before any worker runs: each threaded worker then
        // writes only its own replica's series.
        if (txn.kind == CtlOpKind::StatsStream)
            rec.streamSamples.resize(replicas);

        if (sharedMode_) {
            applyShared(txn, rec.deviceCycle, rec);
        } else if (threaded_ && replicas > 1) {
            // One worker per replica, one barrier per transaction (the
            // join). Replicas share nothing in sharded mode and every
            // worker writes only its own record slots, so the result is
            // identical to the sequential loop below.
            std::vector<std::exception_ptr> errors(replicas);
            std::vector<std::thread> workers;
            workers.reserve(replicas);
            for (size_t r = 0; r < replicas; ++r)
                workers.emplace_back([&, r] {
                    try {
                        applyOnReplica(r, txn, rec.deviceCycle, rec);
                    } catch (...) {
                        errors[r] = std::current_exception();
                    }
                });
            for (std::thread &w : workers)
                w.join();
            for (const std::exception_ptr &e : errors)
                if (e)
                    std::rethrow_exception(e);
        } else {
            for (size_t r = 0; r < replicas; ++r)
                applyOnReplica(r, txn, rec.deviceCycle, rec);
        }

        const uint64_t apply_max = *std::max_element(rec.applyCycle.begin(),
                                                     rec.applyCycle.end());
        rec.completeCycle = channel_.complete(apply_max);
        report.txns.push_back(std::move(rec));
    }

    // Leave the simulator in a plain runnable state for the caller's
    // final drain.
    for (sim::PipeSim *s : sims_) {
        s->setFastForwardLimit(UINT64_MAX);
        s->holdInjection(false);
    }
    return report;
}

CtlVmReplayResult
replayScheduleOnVm(const ebpf::Program &prog,
                   const std::map<std::string, const ebpf::Program *> &programs,
                   const std::vector<net::Packet> &packets,
                   const CtlRunReport &report, unsigned replica,
                   ebpf::MapSet &maps)
{
    CtlVmReplayResult out;
    out.txnResults.resize(report.txns.size());
    const ebpf::Program *current = &prog;
    auto vm = std::make_unique<ebpf::Vm>(*current, maps);

    size_t next_txn = 0;
    const auto applyDue = [&](uint64_t boundary) {
        while (next_txn < report.txns.size() &&
               report.txns[next_txn].retiredBefore.at(replica) <= boundary) {
            const CtlTxnRecord &rec = report.txns[next_txn];
            switch (rec.txn.kind) {
              case CtlOpKind::StatsRead:
              case CtlOpKind::StatsStream:
              case CtlOpKind::Drain:
                break;  // timing-only: no architectural effect
              case CtlOpKind::SwapProgram: {
                  const auto it = programs.find(rec.txn.program);
                  if (it == programs.end())
                      fatal("ctl replay: swap target '", rec.txn.program,
                            "' has no registered program");
                  current = it->second;
                  vm = std::make_unique<ebpf::Vm>(*current, maps);
                  break;
              }
              default:
                applyHostTxn(maps, rec.txn, out.txnResults[next_txn]);
            }
            ++next_txn;
        }
    };

    for (size_t i = 0; i < packets.size(); ++i) {
        // A transaction recorded with retiredBefore == i applied after
        // packet i-1 retired and before packet i entered the pipeline.
        applyDue(i);
        net::Packet copy = packets[i];
        const ebpf::ExecResult r = vm->run(copy);
        CtlVmOutcome o;
        o.id = packets[i].id;
        o.action = r.action;
        o.trapped = r.trapped;
        o.redirectIfindex = r.redirectIfindex;
        o.insnsExecuted = r.insnsExecuted;
        o.bytes = copy.bytes();
        o.trapReason = r.trapReason;
        out.outcomes.push_back(std::move(o));
    }
    applyDue(UINT64_MAX);  // transactions after the last retirement
    return out;
}

std::string
VmMismatch::describe() const
{
    std::string out = field;
    if (packetId != 0)
        out += " (packet " + std::to_string(packetId) + ")";
    if (!detail.empty())
        out += ": " + detail;
    return out;
}

std::optional<VmMismatch>
checkReplicaAgainstVm(
    const ebpf::Program &prog,
    const std::map<std::string, const ebpf::Program *> &programs,
    const std::vector<net::Packet> &packets, const CtlRunReport &report,
    unsigned replica, ebpf::MapSet &vmMaps,
    const std::vector<sim::PacketOutcome> &outcomes,
    const ebpf::MapSet &devMaps, uint64_t *vmInsns)
{
    const CtlVmReplayResult replay = replayScheduleOnVm(
        prog, programs, packets, report, replica, vmMaps);
    if (vmInsns != nullptr)
        for (const CtlVmOutcome &ref : replay.outcomes)
            *vmInsns += ref.insnsExecuted;
    using detail::formatParts;
    if (outcomes.size() != replay.outcomes.size())
        return VmMismatch{0, "completion",
                          formatParts(outcomes.size(), " of ",
                                      replay.outcomes.size(),
                                      " packets completed")};
    // The pipeline retires in offer order, so outcomes align with the
    // replay positionally.
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const sim::PacketOutcome &dev = outcomes[i];
        const CtlVmOutcome &ref = replay.outcomes[i];
        if (dev.id != ref.id)
            return VmMismatch{0, "completion",
                              formatParts("retirement order: packet ",
                                          dev.id, " where ", ref.id,
                                          " expected")};
        if (dev.action != ref.action)
            return VmMismatch{
                ref.id, "action",
                formatParts("vm=", static_cast<uint32_t>(ref.action),
                            " device=", static_cast<uint32_t>(dev.action))};
        if (dev.trapped != ref.trapped || dev.trapReason != ref.trapReason)
            return VmMismatch{
                ref.id, "trap",
                formatParts("vm ", ref.trapped ? "trapped" : "clean", " '",
                            ref.trapReason, "', device ",
                            dev.trapped ? "trapped" : "clean", " '",
                            dev.trapReason, "'")};
        if (dev.redirectIfindex != ref.redirectIfindex)
            return VmMismatch{ref.id, "redirect",
                              formatParts("vm=", ref.redirectIfindex,
                                          " device=", dev.redirectIfindex)};
        if (dev.bytes != ref.bytes)
            return VmMismatch{ref.id, "bytes",
                              hexPreview(ref.bytes, dev.bytes)};
    }
    for (size_t t = 0; t < report.txns.size(); ++t) {
        const auto &dev_results = report.txns[t].results;
        if (replica < dev_results.size() &&
            dev_results[replica] != replay.txnResults[t])
            return VmMismatch{
                0, "ctl-op",
                formatParts("txn ", t, " (",
                            ctlOpKindName(report.txns[t].txn.kind),
                            ") device and VM host-op results differ")};
    }
    if (!ebpf::MapSet::equal(vmMaps, devMaps))
        return VmMismatch{0, "maps",
                          "final map state differs\nvm:\n" +
                              vmMaps.dump().substr(0, 400) +
                              "\ndevice:\n" + devMaps.dump().substr(0, 400)};
    return std::nullopt;
}

Json
reportJson(const CtlRunReport &report)
{
    const auto hex = [](const std::vector<uint8_t> &bytes) {
        static const char *digits = "0123456789abcdef";
        std::string out;
        for (const uint8_t b : bytes) {
            out += digits[b >> 4];
            out += digits[b & 0xf];
        }
        return out;
    };
    Json txns = Json::array();
    for (const CtlTxnRecord &rec : report.txns) {
        Json t;
        t.set("cycle", Json::integer(rec.txn.cycle))
            .set("kind", Json::str(ctlOpKindName(rec.txn.kind)))
            .set("submitCycle", Json::integer(rec.submitCycle))
            .set("deviceCycle", Json::integer(rec.deviceCycle))
            .set("completeCycle", Json::integer(rec.completeCycle));
        Json applies = Json::array();
        for (const uint64_t c : rec.applyCycle)
            applies.push(Json::integer(c));
        t.set("applyCycle", std::move(applies));
        Json retired = Json::array();
        for (const uint64_t n : rec.retiredBefore)
            retired.push(Json::integer(n));
        t.set("retiredBefore", std::move(retired));
        if (!rec.results.empty()) {
            Json replicas = Json::array();
            for (const auto &ops : rec.results) {
                Json per_op = Json::array();
                for (const CtlOpResult &r : ops) {
                    Json o;
                    o.set("rc", Json::integer(
                               static_cast<uint64_t>(r.rc < 0 ? -r.rc
                                                              : r.rc)));
                    if (r.rc < 0)
                        o.set("negative", Json::boolean(true));
                    if (r.hit || !r.value.empty()) {
                        o.set("hit", Json::boolean(r.hit));
                        o.set("value", Json::str(hex(r.value)));
                    }
                    per_op.push(std::move(o));
                }
                replicas.push(std::move(per_op));
            }
            t.set("results", std::move(replicas));
        }
        if (!rec.statsSnapshot.empty()) {
            Json snaps = Json::array();
            for (const sim::PipeSimStats &s : rec.statsSnapshot)
                snaps.push(sim::statsJson(s, 250'000'000));
            t.set("stats", std::move(snaps));
        }
        if (!rec.streamSamples.empty()) {
            // The nfbmeter-style timestamped series, one array of
            // samples per replica/queue.
            Json replicas = Json::array();
            for (const auto &series : rec.streamSamples) {
                Json samples = Json::array();
                for (const CtlStreamSample &s : series) {
                    Json sample;
                    sample.set("cycle", Json::integer(s.cycle))
                        .set("stats", sim::statsJson(s.stats, 250'000'000));
                    if (s.hostValid)
                        sample.set("host", counters::toJson(s.host));
                    samples.push(std::move(sample));
                }
                replicas.push(std::move(samples));
            }
            t.set("streamSamples", std::move(replicas));
        }
        txns.push(std::move(t));
    }
    Json j;
    j.set("numReplicas", Json::integer(report.numReplicas))
        .set("txns", std::move(txns));
    return j;
}

}  // namespace ehdl::ctl
