#include "hdl/compiler.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"

namespace ehdl::hdl {

void
checkOptions(const PipelineOptions &options, Diagnostics &diags)
{
    const std::pair<const char *, unsigned> positive[] = {
        {"frameBytes", options.frameBytes},
        {"assumedParseDepthBytes", options.assumedParseDepthBytes},
        {"clockMhz", options.clockMhz},
    };
    for (const auto &[name, value] : positive)
        if (value == 0)
            diags.error("options", name, " must be at least 1, got 0");
}

CompileResult
compileWithReport(const ebpf::Program &prog, const PipelineOptions &options,
                  const PassObserver &observer)
{
    using Clock = std::chrono::steady_clock;

    CompileResult result;
    result.report.program = prog.name;

    CompileContext ctx;
    ctx.options = options;
    ctx.pipe.prog = prog;
    ctx.pipe.options = options;

    checkOptions(options, result.report.diags);
    if (result.report.diags.hasErrors())
        return result;

    const Clock::time_point start = Clock::now();
    for (const Pass &pass : compilerPasses()) {
        const Clock::time_point t0 = Clock::now();
        bool keep_going;
        try {
            keep_going = pass.run(ctx);
        } catch (const FatalError &e) {
            // Safety net: no fatal() may escape the pass pipeline. A
            // pass that still throws gets its message recorded like any
            // other rejection.
            ctx.diags.error(pass.name, e.what());
            keep_going = false;
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        result.report.passes.push_back({pass.name, seconds});

        if (observer)
            observer(pass.name, ctx);
        if (!checkInvariants(pass, ctx))
            keep_going = false;
        if (!keep_going)
            break;
    }
    result.report.totalSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    result.report.loopsUnrolled = ctx.loopsUnrolled;
    result.report.diags = ctx.diags;
    result.report.ok = !ctx.diags.hasErrors();
    if (result.report.ok) {
        result.report.captureGeometry(ctx.pipe);
        result.pipeline = std::move(ctx.pipe);
    }
    return result;
}

Pipeline
compile(const ebpf::Program &prog, const PipelineOptions &options)
{
    CompileResult result = compileWithReport(prog, options);
    if (!result.pipeline) {
        fatal("program '", prog.name, "' failed to compile (",
              result.report.diags.errorCount(), " errors):\n",
              result.report.diags.render());
    }
    return std::move(*result.pipeline);
}

}  // namespace ehdl::hdl
