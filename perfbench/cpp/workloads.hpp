/**
 * @file
 * The four benchmark workloads. Each runs batches ("rounds") of the same
 * seeded inputs for the requested time, checks the round-0 results
 * against the reference VM outside the timed interval, and fills a Result.
 * Why each workload exists is recorded in BENCHMARK.json and LEDGER.md.
 */

#ifndef EHDL_PERFBENCH_WORKLOADS_HPP_
#define EHDL_PERFBENCH_WORKLOADS_HPP_

#include "common.hpp"

namespace ehdl::perfbench {

/** Five paper apps, one queue, back-to-back 64B frames, 10k flows. */
Result runSqSaturated(const RunSpec &spec);

/** DNAT + Firewall on 4 threaded sharded replicas, Zipf churn, IMIX. */
Result runMq4Churn(const RunSpec &spec);

/** Router at 100 Gbps with host rings and a ctl schedule. */
Result runCtlHostPaced(const RunSpec &spec);

/** Seeded differential-fuzz campaign (makeCase + runCase). */
Result runFuzzDiff(const RunSpec &spec);

}  // namespace ehdl::perfbench

#endif  // EHDL_PERFBENCH_WORKLOADS_HPP_
