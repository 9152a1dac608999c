/**
 * @file
 * Counter registries (common/counters.hpp): each table names every field
 * of its struct once, PipeSimStats contracts exactly the accounting and
 * per-verdict counters, and JSON, merges, sums and the parity check
 * follow each entry's declaration.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "host/host_dma.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl {
namespace {

/** Every entry names a distinct member under a distinct JSON name. */
template <class S>
void
expectEachFieldOnce(size_t fields)
{
    const S s{};
    std::set<std::string> names;
    std::set<const void *> members;
    counters::forEachField<S>([&](const auto &f) {
        names.insert(f.name);
        members.insert(&(s.*f.member));
    });
    EXPECT_EQ(counters::detail::aggregateFieldCount<S>(), fields);
    EXPECT_EQ(names.size(), fields);
    EXPECT_EQ(members.size(), fields);
}

TEST(Counters, EveryFieldRegisteredOnce)
{
    expectEachFieldOnce<sim::PipeSimStats>(23);
    expectEachFieldOnce<sim::PipeSimPhaseProfile>(7);
    expectEachFieldOnce<host::HostQueueCounters>(17);

    std::vector<std::string> contracted;
    counters::forEachField<sim::PipeSimStats>([&](const auto &f) {
        if (f.status == counters::Status::Contracted)
            contracted.emplace_back(f.name);
    });
    const std::vector<std::string> want = {
        "cycles",          "offered",        "accepted",
        "lost",            "completed",      "flushEvents",
        "flushedPackets",  "replayedStages", "stallCycles",
        "passPackets",     "dropPackets",    "txPackets",
        "redirectPackets", "abortedPackets"};
    EXPECT_EQ(contracted, want);
}

TEST(Counters, MergeSumAndDiffFollowTheTable)
{
    sim::PipeSimStats a, b;
    a.cycles = 500;
    a.passPackets = 7;
    b.cycles = 300;
    b.passPackets = 4;
    b.hazardChecks = 9;
    EXPECT_NE(counters::toJson(a).dump().find("\"passPackets\": 7,"),
              std::string::npos);
    sim::PipeSimStats merged = a, total = a;
    counters::mergeInto(merged, b);
    counters::addInto(total, b);
    EXPECT_EQ(merged.cycles, 500u);  // replicas run concurrently
    EXPECT_EQ(total.cycles, 800u);   // a campaign's cases run in turn
    EXPECT_EQ(merged.passPackets, 11u);
    EXPECT_EQ(merged.hazardChecks, 9u);

    total.cycles = 500;
    total.hazardChecks = 0;  // diagnostic: engines may differ
    EXPECT_EQ(counters::firstContractedDiff(merged, total), "");
    total.abortedPackets = 1;
    EXPECT_EQ(counters::firstContractedDiff(merged, total),
              "abortedPackets: 0 vs 1");

    sim::PipeSimPhaseProfile off, on;
    on.enabled = true;
    counters::mergeInto(off, on);
    EXPECT_TRUE(off.enabled);
    host::HostQueueCounters q;
    q.ringOccupancy = 2;
    EXPECT_EQ(counters::firstContractedDiff(q, host::HostQueueCounters{}),
              "ringOccupancy: 2 vs 0");
}

}  // namespace
}  // namespace ehdl
