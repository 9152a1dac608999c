/**
 * @file
 * Tests for the instrumented pass pipeline behind hdl::compile: the
 * Diagnostics sink, compileWithReport()'s CompileReport (per-pass
 * timings, pipeline geometry, structured rejection), the --dump-after
 * observer hook, and the no-fatal guarantee over the fuzzer's program
 * generator.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common/diagnostics.hpp"
#include "common/logging.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/builder.hpp"
#include "fuzz/gen.hpp"
#include "hdl/compiler.hpp"
#include "hdl/passes/pass.hpp"

namespace ehdl::hdl {
namespace {

using apps::AppSpec;
using ebpf::assemble;

// ---------------------------------------------------------------- sink --

TEST(Diagnostics, AccumulatesAndLocates)
{
    Diagnostics d;
    EXPECT_TRUE(d.empty());
    EXPECT_FALSE(d.hasErrors());

    d.error("hazards", "atomic between read and write").atPc(11).atStage(7);
    d.warning("verify", "suspicious bounds");
    d.note("schedule", "fused ", 2, " rows");

    EXPECT_EQ(d.size(), 3u);
    EXPECT_TRUE(d.hasErrors());
    EXPECT_EQ(d.errorCount(), 1u);
    EXPECT_EQ(d.warningCount(), 1u);
    EXPECT_EQ(d.count(Severity::Note), 1u);

    ASSERT_NE(d.firstError(), nullptr);
    EXPECT_EQ(d.firstError()->pass, "hazards");
    EXPECT_EQ(d.firstError()->pc, 11u);
    EXPECT_EQ(d.firstError()->stage, 7u);

    const std::string line = d.firstError()->str();
    EXPECT_NE(line.find("error[hazards]"), std::string::npos);
    EXPECT_NE(line.find("insn 11"), std::string::npos);
    EXPECT_NE(line.find("stage 7"), std::string::npos);

    const std::string text = d.render();
    EXPECT_NE(text.find("warning[verify]"), std::string::npos);
    EXPECT_NE(text.find("note[schedule]: fused 2 rows"), std::string::npos);
}

TEST(Diagnostics, MergeAppends)
{
    Diagnostics a, b;
    a.error("verify", "one");
    b.error("hazards", "two");
    b.note("cfg", "three");
    a.merge(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.errorCount(), 2u);
    EXPECT_EQ(a.all().back().pass, "cfg");
}

// ------------------------------------------------------------- success --

TEST(Passes, ReportRecordsEveryPassInOrder)
{
    const AppSpec toy = apps::makeToyCounter();
    const CompileResult r = compileWithReport(toy.prog);
    ASSERT_TRUE(r.pipeline.has_value());
    EXPECT_TRUE(r.report.ok);
    EXPECT_FALSE(r.report.diags.hasErrors());
    EXPECT_EQ(r.report.program, "toy_counter");

    const std::vector<std::string> names = passNames();
    ASSERT_EQ(r.report.passes.size(), names.size());
    double sum = 0.0;
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(r.report.passes[i].name, names[i]);
        EXPECT_GE(r.report.passes[i].seconds, 0.0);
        sum += r.report.passes[i].seconds;
    }
    EXPECT_GE(r.report.totalSeconds, sum);
}

TEST(Passes, ReportGeometryMatchesPipeline)
{
    for (const AppSpec &spec : apps::paperApps()) {
        const CompileResult r = compileWithReport(spec.prog);
        ASSERT_TRUE(r.pipeline.has_value()) << spec.prog.name;
        const Pipeline &pipe = *r.pipeline;
        const CompileReport &rep = r.report;
        EXPECT_EQ(rep.stages, pipe.numStages()) << spec.prog.name;
        EXPECT_EQ(rep.insns, pipe.prog.size());
        EXPECT_EQ(rep.blocks, pipe.numBlocks());
        EXPECT_EQ(rep.mapPorts, pipe.mapPorts.size());
        EXPECT_EQ(rep.warBuffers, pipe.warBuffers.size());
        EXPECT_EQ(rep.flushBlocks, pipe.flushBlocks.size());
        EXPECT_EQ(rep.elasticBuffers, pipe.elasticBuffers.size());
        EXPECT_EQ(rep.maxFlushDepth, pipe.maxFlushDepth());

        uint64_t live_regs = 0;
        uint64_t live_stack = 0;
        unsigned pads = 0;
        for (const Stage &stage : pipe.stages) {
            live_regs += stage.numLiveRegs();
            live_stack += stage.liveStack.count();
            pads += stage.isPad ? 1 : 0;
        }
        EXPECT_EQ(rep.liveRegsTotal, live_regs);
        EXPECT_EQ(rep.liveStackBytesTotal, live_stack);
        EXPECT_EQ(rep.framingPads + rep.helperPads, pads);
        EXPECT_EQ(rep.fullRegsTotal, 11u * pipe.numStages());
        EXPECT_EQ(rep.fullStackBytesTotal, 512u * pipe.numStages());
        EXPECT_GE(rep.maxIlp, 1u);
        EXPECT_GE(rep.avgIlp, 1.0);

        const Json json = rep.toJson();
        const std::string text = json.dump();
        EXPECT_NE(text.find("\"passes\""), std::string::npos);
        EXPECT_NE(text.find("\"geometry\""), std::string::npos);
    }
}

TEST(Passes, ObserverSeesEveryPass)
{
    std::vector<std::string> seen;
    bool dumps_nonempty = true;
    const CompileResult r = compileWithReport(
        apps::makeSimpleFirewall().prog, {},
        [&](const std::string &pass, const CompileContext &ctx) {
            seen.push_back(pass);
            if (ctx.dump().empty())
                dumps_nonempty = false;
        });
    ASSERT_TRUE(r.pipeline.has_value());
    EXPECT_EQ(seen, passNames());
    EXPECT_TRUE(dumps_nonempty);
}

TEST(Passes, DumpRendersMostRefinedIr)
{
    std::string after_schedule;
    std::string after_hazards;
    (void)compileWithReport(
        apps::makeToyCounter().prog, {},
        [&](const std::string &pass, const CompileContext &ctx) {
            if (pass == "schedule")
                after_schedule = ctx.dump();
            if (pass == "hazards")
                after_hazards = ctx.dump();
        });
    EXPECT_NE(after_schedule.find("block"), std::string::npos);
    EXPECT_NE(after_hazards.find("stage 0"), std::string::npos);
    EXPECT_NE(after_hazards.find("hazard"), std::string::npos);
}

TEST(Passes, RegistryIsConsistent)
{
    const std::vector<std::string> names = passNames();
    EXPECT_EQ(names.size(), compilerPasses().size());
    for (const std::string &name : names) {
        const Pass *p = findPass(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name, name);
        EXPECT_NE(std::string(p->summary), "");
    }
    EXPECT_EQ(findPass("no-such-pass"), nullptr);
}

// ----------------------------------------------------------- rejection --

TEST(Passes, HazardRejectionCarriesStageLocations)
{
    // Same program test_compiler.cpp rejects via compile(): atomic on a
    // map between that map's index read and its value write.
    ebpf::Program prog = assemble(R"(
        .map m hash 4 16 16
        r6 = *(u32 *)(r1 + 0)
        r3 = *(u32 *)(r6 + 26)
        *(u32 *)(r10 - 4) = r3
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r4 = *(u64 *)(r0 + 0)
        r2 = 1
        lock *(u64 *)(r0 + 8) += r2
        r4 += 1
        *(u64 *)(r0 + 0) = r4
        out:
        r0 = 2
        exit
    )");
    const CompileResult r = compileWithReport(prog);
    EXPECT_FALSE(r.pipeline.has_value());
    EXPECT_FALSE(r.report.ok);
    ASSERT_TRUE(r.report.diags.hasErrors());
    const Diagnostic *first = r.report.diags.firstError();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->pass, "hazards");
    EXPECT_NE(first->stage, SIZE_MAX);
    // The pipeline stopped at the failing pass: hazards ran last.
    ASSERT_FALSE(r.report.passes.empty());
    EXPECT_EQ(r.report.passes.back().name, "hazards");
}

TEST(Passes, VerifyRejectionAccumulatesAllErrors)
{
    // Two independent uninitialized-register reads: the old fatal() path
    // stopped at the first; the diagnostics path reports both.
    ebpf::ProgramBuilder b("bad");
    b.movReg(2, 5);  // r5 uninitialized
    b.movReg(3, 7);  // r7 uninitialized
    b.mov(0, 2);
    b.exit();
    const CompileResult r = compileWithReport(b.build());
    EXPECT_FALSE(r.pipeline.has_value());
    EXPECT_GE(r.report.diags.errorCount(), 2u);
    for (const Diagnostic &d : r.report.diags.all())
        EXPECT_EQ(d.pass, "verify");
    ASSERT_FALSE(r.report.passes.empty());
    EXPECT_EQ(r.report.passes.back().name, "verify");
}

TEST(Passes, ZeroSizedOptionsAreRejectedBeforeAnyPass)
{
    // frameBytes == 0 would divide by zero in the primitive-map pass.
    const AppSpec toy = apps::makeToyCounter();
    PipelineOptions options;
    options.frameBytes = 0;
    options.clockMhz = 0;
    const CompileResult r = compileWithReport(toy.prog, options);
    EXPECT_FALSE(r.pipeline.has_value());
    EXPECT_FALSE(r.report.ok);
    EXPECT_TRUE(r.report.passes.empty());
    ASSERT_EQ(r.report.diags.errorCount(), 2u);
    for (const Diagnostic &d : r.report.diags.all())
        EXPECT_EQ(d.pass, "options");
    EXPECT_NE(r.report.diags.render().find("frameBytes"), std::string::npos);
    EXPECT_THROW((void)compile(toy.prog, options), FatalError);
}

TEST(Passes, CompileWrapperRendersDiagnostics)
{
    ebpf::ProgramBuilder b("bad");
    b.movReg(0, 5);
    b.exit();
    try {
        (void)compile(b.build());
        FAIL() << "compile() accepted an unverifiable program";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("failed to compile"), std::string::npos);
        EXPECT_NE(what.find("error[verify]"), std::string::npos);
    }
}

// ------------------------------------------------------- equivalence ----

TEST(Passes, CompileAndCompileWithReportAgree)
{
    for (const AppSpec &spec : apps::paperApps()) {
        const Pipeline direct = compile(spec.prog);
        const CompileResult r = compileWithReport(spec.prog);
        ASSERT_TRUE(r.pipeline.has_value()) << spec.prog.name;
        EXPECT_EQ(direct.describe(), r.pipeline->describe())
            << spec.prog.name;
    }
}

// ------------------------------------------------------- no-fatal sweep --

TEST(Passes, GeneratorSweepNeverEscapesStructuredDiagnostics)
{
    // Acceptance criterion: 1000 generator seeds either compile or come
    // back as structured diagnostics — no fatal()/abort ever escapes
    // compileWithReport().
    unsigned compiled = 0;
    unsigned rejected = 0;
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        const ebpf::Program prog = fuzz::generateProgram(seed);
        CompileResult r;
        ASSERT_NO_THROW(r = compileWithReport(prog)) << "seed " << seed;
        EXPECT_EQ(r.report.ok, r.pipeline.has_value()) << "seed " << seed;
        if (r.pipeline.has_value()) {
            ++compiled;
            EXPECT_FALSE(r.report.diags.hasErrors()) << "seed " << seed;
        } else {
            ++rejected;
            EXPECT_TRUE(r.report.diags.hasErrors()) << "seed " << seed;
            const Diagnostic *first = r.report.diags.firstError();
            ASSERT_NE(first, nullptr) << "seed " << seed;
            const bool known = findPass(first->pass) != nullptr ||
                               first->pass == "invariant";
            EXPECT_TRUE(known) << "seed " << seed << ": unknown pass '"
                               << first->pass << "'";
        }
    }
    // The generator emits verifier-accepted programs; most must compile.
    EXPECT_GT(compiled, rejected);
}

}  // namespace
}  // namespace ehdl::hdl
