/**
 * @file
 * AOT engine conformance suite (docs/PERFORMANCE.md, "AOT-specialized
 * engine"): three-way differential checks — reference VM vs interpretive
 * PipeSim vs AOT-specialized PipeSim — over every built-in evaluation
 * application under uniform, Zipf-skewed and flow-churn traffic, in
 * single-queue and 4-replica (sharded / shared / threaded) deployments.
 *
 * The AOT engine's contract is *bit-identical behaviour*: not just the
 * same verdicts, but the same cycle counts, stall counters, flush
 * statistics, retirement order and final map contents as the
 * interpreter, including across quiesced control-plane program hot-swaps
 * under load. The generated native source is additionally pinned as a
 * golden snapshot (deterministic codegen is what makes the on-disk
 * module cache sound).
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ctl/controller.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/helpers.hpp"
#include "ebpf/maps.hpp"
#include "hdl/compiler.hpp"
#include "net/headers.hpp"
#include "sim/aot/native.hpp"
#include "sim/aot/specialize.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"
#include "vm_agreement.hpp"

#ifndef EHDL_GOLDEN_DIR
#error "EHDL_GOLDEN_DIR must point at tests/golden"
#endif

namespace ehdl::sim {
namespace {

using apps::AppSpec;
using ebpf::AluOp;
using ebpf::JmpOp;
using ebpf::MapSet;
using ebpf::MemSize;

// --- workload shapes --------------------------------------------------

struct Shape
{
    const char *name;
    double zipfS;
    uint64_t churnPeriod;
};

constexpr Shape kShapes[] = {
    {"uniform", 0.0, 0},
    {"zipf", 1.1, 0},
    {"churn", 0.0, 200},
};

std::vector<net::Packet>
makeWorkload(const AppSpec &spec, const Shape &shape, int num_packets)
{
    TrafficConfig tc;
    tc.numFlows = 256;
    tc.zipfS = shape.zipfS;
    tc.churnPeriod = shape.churnPeriod;
    tc.reverseFraction = spec.reverseFraction;
    tc.ipProto = spec.ipProto;
    tc.seed = 23;
    TrafficGen gen(tc);
    std::vector<net::Packet> packets;
    packets.reserve(num_packets);
    for (int i = 0; i < num_packets; ++i)
        packets.push_back(gen.next());
    return packets;
}

// --- engine runs ------------------------------------------------------

struct EngineRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    MapSet maps;
    EngineInfo info;
};

EngineRun
runSingle(const AppSpec &spec, const hdl::Pipeline &pipe,
          const std::vector<net::Packet> &packets, SimEngine engine,
          AotBackend backend = AotBackend::DirectThreaded)
{
    EngineRun out;
    out.maps = MapSet(spec.prog.maps);
    spec.seedMaps(out.maps);
    PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    config.engine = engine;
    config.aotBackend = backend;
    PipeSim sim(pipe, out.maps, config);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();
    out.stats = sim.stats();
    out.outcomes = sim.outcomes();
    out.info = sim.engineInfo();
    return out;
}

/** Outcome-by-outcome equality over every PacketOutcome field. */
void
expectSameOutcomes(const std::vector<PacketOutcome> &a,
                   const std::vector<PacketOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i] == b[i]) << "outcome " << i << ", id " << a[i].id;
}

/** VM leg of the three-way check against a sim run's outcomes. */
void
expectVmAgreement(const AppSpec &spec,
                  const std::vector<net::Packet> &packets,
                  const EngineRun &run)
{
    EXPECT_EQ(test::vmMismatch(spec.prog, spec.seedMaps, packets,
                               run.outcomes, run.maps),
              "");
}

// --- three-way conformance, single queue ------------------------------

struct ConformanceCase
{
    std::string name;
    AppSpec (*make)();
    Shape shape;
};

std::vector<ConformanceCase>
conformanceCases()
{
    struct NamedApp
    {
        const char *name;
        AppSpec (*make)();
    };
    const NamedApp named[] = {
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
    };
    std::vector<ConformanceCase> cases;
    for (const NamedApp &app : named)
        for (const Shape &shape : kShapes)
            cases.push_back({std::string(app.name) + "_" + shape.name,
                             app.make, shape});
    return cases;
}

class AotConformanceTest
    : public ::testing::TestWithParam<ConformanceCase>
{
};

TEST_P(AotConformanceTest, ThreeWaySingleQueue)
{
    const ConformanceCase &c = GetParam();
    const AppSpec spec = c.make();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, c.shape, 1500);

    const EngineRun interp =
        runSingle(spec, pipe, packets, SimEngine::Interp);
    const EngineRun aot = runSingle(spec, pipe, packets, SimEngine::Aot);

    ASSERT_EQ(interp.stats.completed, packets.size());
    EXPECT_EQ(counters::firstContractedDiff(interp.stats, aot.stats), "");
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    EXPECT_TRUE(MapSet::equal(interp.maps, aot.maps))
        << "interp:\n"
        << interp.maps.dump().substr(0, 600) << "\naot:\n"
        << aot.maps.dump().substr(0, 600);

    // The VM closes the triangle: interpreter vs VM (per-packet verdicts
    // and final maps), with the AOT run already shown bit-identical to
    // the interpreter above.
    expectVmAgreement(spec, packets, interp);
    expectVmAgreement(spec, packets, aot);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AotConformanceTest, ::testing::ValuesIn(conformanceCases()),
    [](const ::testing::TestParamInfo<ConformanceCase> &info) {
        return info.param.name;
    });

// --- multi-queue conformance ------------------------------------------

struct MultiRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    std::vector<std::map<std::vector<uint8_t>, std::vector<uint8_t>>>
        mapSnapshots;
    EngineInfo info;
};

MultiRun
runMulti(const AppSpec &spec, const hdl::Pipeline &pipe,
         const std::vector<net::Packet> &packets, SimEngine engine,
         MapMode map_mode, bool threaded)
{
    MapSet seed(spec.prog.maps);
    spec.seedMaps(seed);
    MultiPipeSimConfig mc;
    mc.numReplicas = 4;
    mc.mapMode = map_mode;
    mc.threaded = threaded;
    mc.pipe.inputQueueCapacity = 1u << 20;
    mc.pipe.engine = engine;
    MultiPipeSim multi(pipe, seed, mc);
    for (const net::Packet &pkt : packets)
        multi.offer(pkt);
    multi.drain();
    MultiRun out;
    out.stats = multi.stats();
    out.outcomes = multi.outcomes();
    out.info = multi.engineInfo();
    const size_t shards =
        map_mode == MapMode::Sharded ? multi.numReplicas() : 1;
    for (size_t r = 0; r < shards; ++r) {
        const MapSet &maps = multi.replicaMaps(r);
        for (size_t m = 0; m < maps.size(); ++m)
            out.mapSnapshots.push_back(
                maps.at(static_cast<uint32_t>(m)).snapshot());
    }
    return out;
}

struct MultiCase
{
    std::string name;
    AppSpec (*make)();
    MapMode mapMode;
    bool threaded;
};

std::vector<MultiCase>
multiCases()
{
    std::vector<MultiCase> cases;
    const std::pair<const char *, AppSpec (*)()> named[] = {
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
    };
    for (const auto &[name, make] : named) {
        cases.push_back({std::string(name) + "_sharded", make,
                         MapMode::Sharded, false});
        cases.push_back({std::string(name) + "_shared", make,
                         MapMode::Shared, false});
        cases.push_back({std::string(name) + "_threaded", make,
                         MapMode::Sharded, true});
    }
    return cases;
}

class AotMultiQueueTest : public ::testing::TestWithParam<MultiCase>
{
};

TEST_P(AotMultiQueueTest, FourReplicasMatchInterp)
{
    const MultiCase &c = GetParam();
    const AppSpec spec = c.make();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 1200);

    const MultiRun interp = runMulti(spec, pipe, packets,
                                     SimEngine::Interp, c.mapMode,
                                     c.threaded);
    const MultiRun aot = runMulti(spec, pipe, packets, SimEngine::Aot,
                                  c.mapMode, c.threaded);

    ASSERT_EQ(interp.stats.completed, packets.size());
    EXPECT_EQ(aot.info.engine, SimEngine::Aot);
    EXPECT_EQ(counters::firstContractedDiff(interp.stats, aot.stats), "");
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    ASSERT_EQ(interp.mapSnapshots.size(), aot.mapSnapshots.size());
    for (size_t i = 0; i < interp.mapSnapshots.size(); ++i) {
        SCOPED_TRACE("map snapshot " + std::to_string(i));
        EXPECT_EQ(interp.mapSnapshots[i], aot.mapSnapshots[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AotMultiQueueTest, ::testing::ValuesIn(multiCases()),
    [](const ::testing::TestParamInfo<MultiCase> &info) {
        return info.param.name;
    });

// --- native backend ---------------------------------------------------

TEST(AotNative, ConformsOrReportsFallback)
{
    // The native backend may legitimately be unavailable (no host
    // compiler, sanitizer CI); the contract is then a *reported* clean
    // fallback, never silent divergence.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::vector<net::Packet> packets =
            makeWorkload(spec, kShapes[0], 800);
        const EngineRun interp =
            runSingle(spec, pipe, packets, SimEngine::Interp);
        const EngineRun native = runSingle(spec, pipe, packets,
                                           SimEngine::Aot,
                                           AotBackend::Native);
        EXPECT_EQ(native.info.engine, SimEngine::Aot);
        if (!native.info.nativeLoaded) {
            EXPECT_FALSE(native.info.fallbackReason.empty())
                << "silent native fallback";
        }
        EXPECT_EQ(counters::firstContractedDiff(interp.stats, native.stats),
                  "");
        expectSameOutcomes(interp.outcomes, native.outcomes);
        EXPECT_TRUE(MapSet::equal(interp.maps, native.maps));
    }
}

TEST(AotNative, DisabledBackendFallsBackWithReason)
{
    ASSERT_EQ(setenv("EHDL_AOT_DISABLE_NATIVE", "1", 1), 0);
    const AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 200);
    const EngineRun native =
        runSingle(spec, pipe, packets, SimEngine::Aot, AotBackend::Native);
    unsetenv("EHDL_AOT_DISABLE_NATIVE");

    EXPECT_FALSE(native.info.nativeLoaded);
    EXPECT_EQ(native.info.backend, AotBackend::DirectThreaded);
    EXPECT_NE(native.info.fallbackReason.find("EHDL_AOT_DISABLE_NATIVE"),
              std::string::npos)
        << native.info.fallbackReason;

    // And the fallback still conforms.
    const EngineRun interp =
        runSingle(spec, pipe, packets, SimEngine::Interp);
    EXPECT_EQ(counters::firstContractedDiff(interp.stats, native.stats),
              "");
    expectSameOutcomes(interp.outcomes, native.outcomes);
}

// --- generated-source golden snapshots --------------------------------

TEST(AotCodegen, GoldenNativeSource)
{
    // Full generated-source snapshots for two evaluation programs,
    // pinned under tests/golden/. Any intentional change to the
    // specializer or code generator shows up as a readable diff;
    // regenerate with EHDL_UPDATE_GOLDEN=1.
    const bool update = std::getenv("EHDL_UPDATE_GOLDEN") != nullptr;
    const AppSpec specs[] = {apps::makeRouterIpv4(),
                             apps::makeSimpleFirewall()};
    for (const AppSpec &spec : specs) {
        const std::string path = std::string(EHDL_GOLDEN_DIR) + "/aot_" +
                                 spec.prog.name + ".cpp.txt";
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::string text =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        if (update) {
            std::ofstream out(path);
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            out << text;
            continue;
        }
        std::ifstream in(path);
        ASSERT_TRUE(in.good())
            << "missing golden file " << path
            << " (regenerate with EHDL_UPDATE_GOLDEN=1)";
        std::ostringstream want;
        want << in.rdbuf();
        EXPECT_EQ(text, want.str())
            << spec.prog.name << ": generated source diverged from "
            << path << " (EHDL_UPDATE_GOLDEN=1 regenerates after "
            << "intentional changes)";
    }
}

TEST(AotCodegen, GenerationIsDeterministic)
{
    // The on-disk module cache is keyed by the source hash, so two
    // generations of the same pipeline must be byte-identical — no
    // timestamps, paths, pointer values or iteration-order leaks.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::string first =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        const std::string second =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        EXPECT_EQ(first, second);
        EXPECT_EQ(aot::sourceHash(first), aot::sourceHash(second));
    }
}

// --- native cache key -------------------------------------------------

TEST(AotNative, CacheKeyCoversRuntimeHeaders)
{
    // The key (and the cached module's file name) covers the headers a
    // module inlines, not only its generated source: editing one must
    // rebuild every module.
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const aot::AotSpec aspec = aot::buildAotSpec(pipe);
    const std::string source = aot::generateNativeSource(aspec);
    EXPECT_NE(aot::runtimeHash(), 0u);  // supplied by the build
    EXPECT_EQ(aot::moduleKey(source, 1), aot::moduleKey(source, 1));
    EXPECT_NE(aot::moduleKey(source, 1), aot::moduleKey(source, 2));
    EXPECT_NE(aot::moduleKey(source, 1ULL << 63),
              aot::moduleKey(source, 0));

    const aot::NativeLoadResult loaded = aot::loadNativeModule(aspec);
    if (!loaded)
        GTEST_SKIP() << "native backend unavailable: " << loaded.error;
    char name[64];
    std::snprintf(name, sizeof name, "ehdl_aot_%016llx.so",
                  static_cast<unsigned long long>(aot::moduleKey(source)));
    EXPECT_NE(loaded.module->path().find(name), std::string::npos)
        << loaded.module->path();
    EXPECT_EQ(loaded.module->table().sourceHash, aot::moduleKey(source));
}

// --- folded handlers --------------------------------------------------

/** One instruction's worth of state: program, packet, maps, ExecState. */
struct FoldWorld
{
    explicit FoldWorld(const ebpf::Program &prog)
        : maps(prog.maps), mapio(maps),
          pkt(net::PacketFactory::build(net::PacketSpec{})),
          state(prog, &pkt, &mapio)
    {
        using ebpf::PtrTag;
        using ebpf::VmValue;
        auto &r = state.regs;
        // Scalars whose 32-bit halves differ in sign; addresses stay
        // far from INT64 overflow so the generic body is defined too.
        r[0] = VmValue::scalar(0x0000000180000001ULL);
        r[2] = state.load(r[1], ebpf::kXdpMdData, 4);
        r[2].bits = 14;
        r[3] = state.load(r[1], ebpf::kXdpMdDataEnd, 4);
        r[4] = r[10];
        r[4].bits -= 16;
        r[5].tag = PtrTag::MapValue;
        r[5].entry = 1;
        r[6].tag = PtrTag::MapHandle;
        r[7] = VmValue::scalar(5);
        r[8] = VmValue::scalar(0xffffffff80000000ULL);
        // A spilled pointer at fp-8 and scalar bytes at fp-16.
        state.store(r[10], -8, 8, r[2]);
        state.store(r[10], -16, 8, VmValue::scalar(0x1122334455667788ULL));
        state.clearDirty();
    }

    MapSet maps;
    ebpf::DirectMapIo mapio;
    net::Packet pkt;
    ebpf::ExecState state;
};

/** Every observable effect of one instruction on a FoldWorld but maps. */
struct FoldEffect
{
    bool trapped = false;
    std::string trapReason;
    std::vector<uint8_t> enabled;
    ebpf::ExecState::Checkpoint full;
    ebpf::ExecState::Checkpoint dirty;
    bool pktDirty = false;
    std::vector<uint8_t> pktBytes;
    uint32_t redirect = 0;
};

/**
 * Run @p insn on @p w through handler @p fn, or through the generic
 * ExecState body (evalCond when @p branch, else execute) when @p fn is
 * null, and record its effect.
 */
FoldEffect
runOn(FoldWorld &w, const ebpf::Insn &insn, bool branch, aot::UopFn fn)
{
    FoldEffect e;
    e.enabled.assign(3, 0);
    try {
        if (fn != nullptr) {
            aot::AotCtx c;
            c.st = &w.state;
            c.enabled = &e.enabled;
            c.insns = &insn;
            aot::MicroOp op;
            op.fn = fn;
            op.taken = 1;
            op.fall = 2;
            fn(c, op);
        } else if (branch) {
            e.enabled[w.state.evalCond(insn) ? 1 : 2] = 1;
        } else {
            w.state.execute(insn);
        }
    } catch (const ebpf::VmTrap &trap) {
        e.trapped = true;
        e.trapReason = trap.reason;
    }
    e.full = w.state.checkpoint();
    e.pktDirty = w.state.pktDirty();
    std::vector<uint16_t> all_slots(ebpf::kStackSize / 8);
    for (size_t i = 0; i < all_slots.size(); ++i)
        all_slots[i] = static_cast<uint16_t>(i);
    w.state.checkpointDirtyInto(e.dirty, ebpf::ExecState::kAllRegsMask,
                                all_slots);
    e.pktBytes.assign(w.pkt.data(), w.pkt.data() + w.pkt.size());
    e.redirect = w.state.redirectIfindex;
    return e;
}

/** First difference between two checkpoints, "" when equal. */
std::string
checkpointDiff(const ebpf::ExecState::Checkpoint &x,
               const ebpf::ExecState::Checkpoint &y)
{
    if (x.regs != y.regs || x.liveRegs != y.liveRegs)
        return "registers";
    if (x.pktGen != y.pktGen || x.prandomSeq != y.prandomSeq)
        return "packet generation / prandom sequence";
    if (x.stackSlots.size() != y.stackSlots.size())
        return "stack slot count";
    for (size_t i = 0; i < x.stackSlots.size(); ++i) {
        const auto &p = x.stackSlots[i];
        const auto &q = y.stackSlots[i];
        if (p.slot != q.slot || p.bytes != q.bytes ||
            p.shadowValid != q.shadowValid || p.shadow != q.shadow)
            return "stack slot " + std::to_string(p.slot);
    }
    return "";
}

/**
 * Run @p insn through the generic body and through @p fn on two fresh,
 * identical worlds: the first difference in registers, stack (values,
 * spilled-pointer shadows and dirty sets), packet, maps, enable signals
 * or trap reason, "" when there is none.
 */
std::string
foldDiff(const ebpf::Program &prog, const ebpf::Insn &insn, bool branch,
         aot::UopFn fn)
{
    FoldWorld generic(prog);
    FoldWorld folded(prog);
    const FoldEffect a = runOn(generic, insn, branch, nullptr);
    const FoldEffect b = runOn(folded, insn, branch, fn);
    if (a.trapped != b.trapped || a.trapReason != b.trapReason)
        return "trap '" + a.trapReason + "' vs '" + b.trapReason + "'";
    if (a.enabled != b.enabled)
        return "enable signals";
    if (const std::string d = checkpointDiff(a.full, b.full); !d.empty())
        return "state: " + d;
    if (const std::string d = checkpointDiff(a.dirty, b.dirty); !d.empty())
        return "dirty set: " + d;
    if (a.pktDirty != b.pktDirty || a.pktBytes != b.pktBytes)
        return "packet";
    if (a.redirect != b.redirect)
        return "redirect target";
    if (!MapSet::equal(generic.maps, folded.maps))
        return "maps";
    return "";
}

TEST(AotFold, FoldedHandlersEqualGenericSemantics)
{
    ebpf::ProgramBuilder b("fold");
    b.addMap({"vals", ebpf::MapKind::Array, 4, 8, 4});
    b.mov(0, 0);
    b.exit();
    const ebpf::Program prog = b.build();

    // Every register pair against offsets and immediates that hit in-
    // and out-of-bounds accesses, byte-swap widths, shift amounts,
    // helper ids (1: map lookup, 28: csum_diff) and sign extremes.
    const std::pair<int16_t, int64_t> kOffImm[] = {
        {0, 0}, {-8, 1}, {14, -1}, {4, 16}, {8, 32}, {-16, 64},
        {200, 0x7fffffff}, {2, 28}, {-520, 63}, {6, INT32_MIN},
    };
    size_t folded = 0;
    for (unsigned opc = 0; opc < 256; ++opc) {
        ebpf::Insn probe;
        probe.opcode = static_cast<uint8_t>(opc);
        const bool branch = probe.isCondJmp();
        const aot::UopFn fn = branch ? aot::branchHandler(probe.opcode)
                                     : aot::execHandler(probe.opcode);
        if (fn == (branch ? &aot::uopBranch : &aot::uopExec))
            continue;  // not folded: the generic handler itself
        ++folded;
        for (const bool map_load : {false, true}) {
            if (map_load && !probe.isLddw())
                continue;
            for (unsigned dst = 0; dst < ebpf::kNumRegs; ++dst)
                for (unsigned src = 0; src < ebpf::kNumRegs; ++src)
                    for (const auto &[off, imm] : kOffImm) {
                        ebpf::Insn insn = probe;
                        insn.dst = static_cast<uint8_t>(dst);
                        insn.src = static_cast<uint8_t>(src);
                        insn.off = off;
                        insn.imm = imm;
                        insn.isMapLoad = map_load;
                        ASSERT_EQ(foldDiff(prog, insn, branch, fn), "")
                            << "opcode 0x" << std::hex << opc << std::dec
                            << " dst r" << dst << " src r" << src
                            << " off " << off << " imm " << imm
                            << (map_load ? " (map load)" : "");
                    }
        }
    }
    EXPECT_GT(folded, 100u);
}

TEST(AotFold, AppOpcodesAreFolded)
{
    // Every instruction the paper apps execute through a micro-op gets a
    // folded handler, not the generic decode.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        for (const ebpf::Insn &insn : spec.prog.insns) {
            if (insn.isExit() || insn.isUncondJmp())
                continue;
            if (insn.isCondJmp())
                EXPECT_NE(aot::branchHandler(insn.opcode), &aot::uopBranch)
                    << "opcode 0x" << std::hex << +insn.opcode;
            else
                EXPECT_NE(aot::execHandler(insn.opcode), &aot::uopExec)
                    << "opcode 0x" << std::hex << +insn.opcode;
        }
    }
}

// --- trap paths -------------------------------------------------------

/**
 * Traps on three of every four packets, by the low bits of the UDP source
 * port: a packet load past the 64-byte frame, a load past the 8-byte map
 * value, and a 600-byte bpf_csum_diff span over the helper's 512-byte
 * budget. The verifier accepts all three (bounds are enforced at run
 * time), so every engine must abort the packets the VM aborts, and why.
 */
ebpf::Program
makeTrapProgram()
{
    ebpf::ProgramBuilder b("traps");
    const uint32_t map = b.addMap({"vals", ebpf::MapKind::Array, 4, 8, 1});
    b.ldx(MemSize::W, 6, 1, 0);   // data
    b.ldx(MemSize::B, 7, 6, 35);  // low byte of the UDP source port
    b.alu(AluOp::And, 7, 3);
    b.mov(0, 2);  // XDP_PASS
    b.jcond(JmpOp::Jeq, 7, 3, "out");
    b.jcond(JmpOp::Jeq, 7, 2, "span");
    b.jcond(JmpOp::Jeq, 7, 1, "map");
    b.ldx(MemSize::B, 8, 6, 200);
    b.exit();
    b.label("map");
    b.st(MemSize::W, 10, -4, 0);
    b.ldMap(1, map);
    b.movReg(2, 10);
    b.alu(AluOp::Add, 2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, 0, 0, "out");
    b.ldx(MemSize::B, 8, 0, 8);
    b.mov(0, 2);
    b.exit();
    b.label("span");
    b.movReg(1, 6);
    b.mov(2, 600);
    b.movReg(3, 6);
    b.mov(4, 0);
    b.mov(5, 0);
    b.call(ebpf::kHelperCsumDiff);
    b.label("out");
    b.exit();
    return b.build();
}

TEST(AotTraps, ThreeWayTrapParity)
{
    AppSpec spec;
    spec.prog = makeTrapProgram();
    spec.seedMaps = [](MapSet &) {};
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 200);

    const EngineRun interp =
        runSingle(spec, pipe, packets, SimEngine::Interp);
    const EngineRun tables = runSingle(spec, pipe, packets, SimEngine::Aot);
    const EngineRun native = runSingle(spec, pipe, packets, SimEngine::Aot,
                                       AotBackend::Native);

    std::map<std::string, uint64_t> reasons;
    for (const PacketOutcome &out : interp.outcomes)
        ++reasons[out.trapReason];
    EXPECT_GT(reasons["packet load out of bounds"], 0u);
    EXPECT_GT(reasons["map value load out of bounds"], 0u);
    EXPECT_GT(reasons["csum_diff span too large"], 0u);
    EXPECT_EQ(reasons.size(), 4u);  // the three traps and "" (clean)
    EXPECT_EQ(interp.stats.abortedPackets, packets.size() - reasons[""]);

    expectVmAgreement(spec, packets, interp);
    for (const EngineRun *run : {&tables, &native}) {
        SCOPED_TRACE(run->info.describe());
        EXPECT_EQ(counters::firstContractedDiff(interp.stats, run->stats),
                  "");
        expectSameOutcomes(interp.outcomes, run->outcomes);
        expectVmAgreement(spec, packets, *run);
    }
}

// --- control-plane hot swap under load --------------------------------

ebpf::Program
makeConstProgram(const std::string &name, int64_t action)
{
    ebpf::ProgramBuilder b(name);
    b.mov(0, action);
    b.exit();
    return b.build();
}

net::Packet
swapPacket(uint64_t id)
{
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = id;
    pkt.arrivalNs = 0;
    return pkt;
}

struct SwapRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    uint64_t boundary = 0;
    EngineInfo info;
};

SwapRun
runSwapUnderLoad(SimEngine engine)
{
    const ebpf::Program prog_a = makeConstProgram("always_tx", 3);
    const ebpf::Program prog_b = makeConstProgram("always_drop", 1);
    const hdl::Pipeline pipe_a = hdl::compile(prog_a);
    const hdl::Pipeline pipe_b = hdl::compile(prog_b);

    MapSet maps(prog_a.maps);
    PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sc.engine = engine;
    PipeSim sim(pipe_a, maps, sc);
    const uint64_t n = 500;
    for (uint64_t i = 1; i <= n; ++i)
        EXPECT_TRUE(sim.offer(swapPacket(i)));

    ctl::CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    ctl::CtlSchedule sched;
    ctl::CtlTxn swap;
    swap.cycle = 200;
    swap.kind = ctl::CtlOpKind::SwapProgram;
    swap.program = "b";
    sched.txns.push_back(swap);

    ctl::CtlController ctrl(sim, maps, cc);
    ctrl.addProgram("b", pipe_b);
    const ctl::CtlRunReport report = ctrl.run(sched);
    sim.drain();

    SwapRun out;
    out.stats = sim.stats();
    out.outcomes = sim.outcomes();
    out.boundary = report.txns[0].retiredBefore[0];
    out.info = sim.engineInfo();
    return out;
}

TEST(AotCtl, HotSwapUnderLoadMatchesInterp)
{
    const SwapRun interp = runSwapUnderLoad(SimEngine::Interp);
    const SwapRun aot = runSwapUnderLoad(SimEngine::Aot);

    // Zero loss across the swap under both engines, the same quiescence
    // boundary, and the same per-packet action flip at that boundary.
    EXPECT_EQ(interp.stats.lost, 0u);
    EXPECT_EQ(aot.info.engine, SimEngine::Aot);
    EXPECT_EQ(interp.boundary, aot.boundary);
    EXPECT_EQ(counters::firstContractedDiff(interp.stats, aot.stats), "");
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    ASSERT_GT(aot.boundary, 0u);
    ASSERT_LT(aot.boundary, aot.outcomes.size());
    for (size_t i = 0; i < aot.outcomes.size(); ++i)
        EXPECT_EQ(aot.outcomes[i].action, i < aot.boundary
                                              ? ebpf::XdpAction::Tx
                                              : ebpf::XdpAction::Drop);
}

TEST(AotCtl, SeededAppSwapMatchesInterp)
{
    // A real app (seeded maps, flush machinery) hot-swapped to a fresh
    // compilation of itself mid-load: the AOT engine must re-specialize
    // on swap and keep bit-identical behaviour throughout.
    const AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const hdl::Pipeline pipe_again = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 600);

    const auto run = [&](SimEngine engine) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        PipeSimConfig sc;
        sc.inputQueueCapacity = 1u << 20;
        sc.engine = engine;
        PipeSim sim(pipe, maps, sc);
        for (const net::Packet &pkt : packets)
            EXPECT_TRUE(sim.offer(pkt));
        ctl::CtlChannelConfig cc;
        cc.roundTripCycles = 10;
        ctl::CtlSchedule sched;
        ctl::CtlTxn swap;
        swap.cycle = 100;
        swap.kind = ctl::CtlOpKind::SwapProgram;
        swap.program = "same";
        sched.txns.push_back(swap);
        ctl::CtlController ctrl(sim, maps, cc);
        ctrl.addProgram("same", pipe_again);
        ctrl.run(sched);
        sim.drain();
        EngineRun out;
        out.maps = std::move(maps);
        out.stats = sim.stats();
        out.outcomes = sim.outcomes();
        out.info = sim.engineInfo();
        return out;
    };

    const EngineRun interp = run(SimEngine::Interp);
    const EngineRun aot = run(SimEngine::Aot);
    ASSERT_EQ(interp.stats.completed, packets.size());
    EXPECT_EQ(counters::firstContractedDiff(interp.stats, aot.stats), "");
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    EXPECT_TRUE(MapSet::equal(interp.maps, aot.maps));
}

}  // namespace
}  // namespace ehdl::sim
