/**
 * @file
 * The eHDL compiler driver: unmodified eBPF bytecode in, hardware pipeline
 * out. Mirrors the paper's three-step synthesis process —
 * (i) instruction parallelization, (ii) hardware-primitive mapping,
 * (iii) consistency handling and optimization (sections 3 and 4) —
 * implemented as the instrumented pass pipeline in hdl/passes/
 * (see docs/COMPILER.md for the per-pass reference).
 *
 * Two entry points:
 *
 *  - compileWithReport() never throws on bad input: it returns an
 *    optional Pipeline plus a CompileReport with per-pass timings,
 *    accumulated diagnostics, and the pipeline geometry.
 *  - compile() is the historical strict wrapper: same pipeline,
 *    FatalError listing every diagnostic when compilation fails.
 */

#ifndef EHDL_HDL_COMPILER_HPP_
#define EHDL_HDL_COMPILER_HPP_

#include <functional>
#include <optional>

#include "ebpf/program.hpp"
#include "hdl/passes/pass.hpp"
#include "hdl/pipeline.hpp"
#include "hdl/report.hpp"

namespace ehdl::hdl {

/** Outcome of compileWithReport(). */
struct CompileResult
{
    /** Present iff report.ok (no error diagnostics). */
    std::optional<Pipeline> pipeline;
    CompileReport report;
};

/**
 * Called after each executed pass with the pass name and the context as
 * that pass left it (ehdlc --dump-after hooks in here). The observer
 * runs before the inter-pass invariant checker.
 */
using PassObserver =
    std::function<void(const std::string &passName,
                       const CompileContext &ctx)>;

/**
 * Compile @p prog through the pass pipeline.
 *
 * Never throws FatalError: verifier failures, unsupported constructs and
 * internal invariant violations all land in the report's Diagnostics
 * (with pc/stage locations) and yield an empty pipeline. Bounded loops
 * are unrolled automatically.
 */
CompileResult compileWithReport(const ebpf::Program &prog,
                                const PipelineOptions &options = {},
                                const PassObserver &observer = nullptr);

/**
 * Append an error to @p diags (pass "options") for every setting of
 * @p options the passes cannot honor: a zero frame size, parse depth or
 * clock. compileWithReport runs it before the first pass; the .ehdlcase
 * reader runs it on the options a case declares.
 */
void checkOptions(const PipelineOptions &options, Diagnostics &diags);

/**
 * Compile @p prog into a hardware pipeline (strict wrapper around
 * compileWithReport; identical output for identical inputs).
 *
 * @throw FatalError listing every diagnostic when compilation fails.
 */
Pipeline compile(const ebpf::Program &prog, const PipelineOptions &options = {});

}  // namespace ehdl::hdl

#endif  // EHDL_HDL_COMPILER_HPP_
