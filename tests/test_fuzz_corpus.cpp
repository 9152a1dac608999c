/**
 * @file
 * Corpus regression replay: every checked-in `tests/corpus/*.ehdlcase`
 * runs through the differential executor and must reproduce its recorded
 * expectation — fault-injected cases keep diverging, fixed-bug regression
 * cases keep agreeing — and must do so deterministically across runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/case.hpp"
#include "fuzz/diff.hpp"

#ifndef EHDL_CORPUS_DIR
#error "EHDL_CORPUS_DIR must point at tests/corpus"
#endif

namespace ehdl::fuzz {
namespace {

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(EHDL_CORPUS_DIR))
        if (entry.path().extension() == ".ehdlcase")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

std::string
outcomeKey(const CaseResult &r)
{
    if (r.diverged())
        return "divergence: " + r.divergence->describe();
    return r.compiled ? "agreement" : "rejected: " + r.rejectReason;
}

TEST(FuzzCorpus, HasCases)
{
    // Both contract flavours must be represented: fault-injected cases
    // that diverge and fixed-bug regression cases that agree.
    size_t expect_diverge = 0, expect_agree = 0;
    for (const std::string &path : corpusFiles())
        (loadCase(path).expectDivergence ? expect_diverge : expect_agree)++;
    EXPECT_GE(expect_diverge, 1u);
    EXPECT_GE(expect_agree, 1u);
}

TEST(FuzzCorpus, ReplayMatchesExpectation)
{
    // The interpreter half of the pair; UnderAot below runs the tables.
    RunOptions opts;
    opts.engine = sim::SimEngine::Interp;
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        const FuzzCase c = loadCase(path);
        const CaseResult r = runCase(c, opts);
        EXPECT_EQ(r.diverged(), c.expectDivergence) << outcomeKey(r);
    }
}

TEST(FuzzCorpus, ReplayMatchesExpectationUnderAot)
{
    // The differential contract is engine-independent: replaying the
    // corpus with the pipeline backends on the AOT engine must reproduce
    // every recorded expectation — fault-injected cases still diverge
    // (the specializer faithfully reproduces the injected bug's
    // behaviour), regression cases still agree.
    RunOptions opts;
    opts.engine = sim::SimEngine::Aot;
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        const FuzzCase c = loadCase(path);
        const CaseResult r = runCase(c, opts);
        EXPECT_EQ(r.diverged(), c.expectDivergence) << outcomeKey(r);
    }
}

TEST(FuzzCorpus, RuntimeTrapsAgreeOnEveryEngine)
{
    // A verifier-accepted program that traps at run time on six of its
    // eight packets (packet load past the frame, map value load past the
    // value, an oversized csum_diff span). Every engine must abort the
    // packets the VM aborts, for the same reason: the VM check compares
    // trap flags and reasons.
    const FuzzCase c = loadCase(std::string(EHDL_CORPUS_DIR) +
                                "/regress-runtime-traps.ehdlcase");
    struct Engine
    {
        sim::SimEngine engine;
        sim::AotBackend backend;
    };
    for (const Engine e : {Engine{sim::SimEngine::Interp,
                                  sim::AotBackend::DirectThreaded},
                           Engine{sim::SimEngine::Aot,
                                  sim::AotBackend::DirectThreaded},
                           Engine{sim::SimEngine::Aot,
                                  sim::AotBackend::Native}}) {
        RunOptions opts;
        opts.engine = e.engine;
        opts.aotBackend = e.backend;
        const CaseResult r = runCase(c, opts);
        SCOPED_TRACE(r.engineInfo.describe());
        ASSERT_TRUE(r.compiled) << r.rejectReason;
        EXPECT_FALSE(r.diverged()) << outcomeKey(r);
        EXPECT_EQ(r.pipeStats.abortedPackets, 6u);
    }
}

TEST(FuzzCorpus, ReplayIsDeterministic)
{
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        const FuzzCase c = loadCase(path);
        EXPECT_EQ(outcomeKey(runCase(c)), outcomeKey(runCase(c)));
    }
}

TEST(FuzzCorpus, FilesRoundTripVerbatim)
{
    // Stored corpus files are canonical: re-serializing the parsed case
    // reproduces the file byte-for-byte (stable diffs, stable replays).
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        std::ifstream in(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        EXPECT_EQ(serializeCase(parseCase(text)), text);
    }
}

}  // namespace
}  // namespace ehdl::fuzz
