/**
 * @file
 * Shared JSON rendering of simulator statistics.
 *
 * Every tool that emits machine-readable stats (`ehdlc sim --stats-out`,
 * `ehdl-fuzz --stats-out`, `ehdl-ctl --stats-out`) and the benchmark
 * writers go through these helpers. Counter names come from the counter
 * registries (common/counters.hpp), so they stay uniform across the
 * toolchain.
 */

#ifndef EHDL_SIM_STATS_JSON_HPP_
#define EHDL_SIM_STATS_JSON_HPP_

#include <cstdint>

#include "common/counters.hpp"
#include "common/json.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::sim {

/** Every registered counter of @p s, then the forwarding rate, as JSON. */
inline Json
statsJson(const PipeSimStats &s, uint64_t clock_hz)
{
    Json j = counters::toJson(s);
    j.set("throughputMpps", Json::num(s.throughputMpps(clock_hz)));
    return j;
}

/** Render the engine actually running (EngineInfo) as JSON. */
inline Json
engineJson(const EngineInfo &info)
{
    Json j;
    j.set("active", Json::str(info.describe()))
        .set("nativeLoaded", Json::boolean(info.nativeLoaded));
    if (!info.fallbackReason.empty())
        j.set("fallbackReason", Json::str(info.fallbackReason));
    return j;
}

}  // namespace ehdl::sim

#endif  // EHDL_SIM_STATS_JSON_HPP_
