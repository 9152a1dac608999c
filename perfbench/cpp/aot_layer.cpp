#include "aot_layer.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "fuzz/fuzzer.hpp"
#include "hdl/compiler.hpp"
#include "sim/aot/native.hpp"
#include "sim/aot/specialize.hpp"

namespace ehdl::perfbench {

namespace {

/** Path of the running benchmark binary (for the warm-load child). */
std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return buf;
}

std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (const char c : s)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return out + "'";
}

/** Time one loadNativeModule call; fills @p error on fallback. */
double
timedNativeLoad(const hdl::Pipeline &pipe, const std::string &cache_dir,
                std::string &error)
{
    const sim::aot::AotSpec spec = sim::aot::buildAotSpec(pipe);
    const double t0 = wallNow();
    const sim::aot::NativeLoadResult r =
        sim::aot::loadNativeModule(spec, cache_dir);
    const double sec = wallNow() - t0;
    error = r ? "" : r.error;
    return sec;
}

}  // namespace

TempDir::TempDir(const std::string &parent, const std::string &prefix)
{
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/" + prefix + "XXXXXX";
    if (mkdtemp(templ.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = templ;
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

ebpf::Program
loadProgramRef(const std::string &ref)
{
    if (ref.rfind("app:", 0) == 0)
        return makeApp(ref.substr(4)).spec.prog;
    if (ref.rfind("fuzz:", 0) == 0) {
        const size_t colon = ref.find(':', 5);
        if (colon == std::string::npos)
            throw std::runtime_error("bad program reference '" + ref + "'");
        fuzz::FuzzOptions opts;
        opts.seed = std::stoull(ref.substr(5, colon - 5));
        return fuzz::makeCase(opts.seed, std::stoull(ref.substr(colon + 1)),
                              opts)
            .prog;
    }
    throw std::runtime_error("bad program reference '" + ref + "'");
}

void
measureAotLayer(const std::vector<const hdl::Pipeline *> &pipes,
                const std::string &first_ref, const std::string &cache_dir,
                Result &res)
{
    // Specialization: several builds per pipeline, mean per build.
    constexpr int kReps = 5;
    double spec_sec = 0;
    uint64_t builds = 0;
    for (const hdl::Pipeline *pipe : pipes) {
        for (int i = 0; i < kReps; ++i) {
            const double t0 = wallNow();
            const sim::aot::AotSpec spec = sim::aot::buildAotSpec(*pipe);
            spec_sec += wallNow() - t0;
            ++builds;
        }
    }
    res.layer["sim.aot.specialize_s"] = {
        builds == 0 ? 0.0 : spec_sec / static_cast<double>(builds), "s"};

    // Cold: the first load of this program in the process, into a cache
    // directory nothing has written to yet, so the host compiler runs.
    const hdl::Pipeline pipe = hdl::compile(loadProgramRef(first_ref));
    std::string error;
    const double cold = timedNativeLoad(pipe, cache_dir, error);
    res.layer["sim.aot.native_build_cold_s"] = {cold, "s"};
    res.layer["sim.aot.native_loaded"] = {error.empty() ? 1.0 : 0.0, "count"};
    if (!error.empty())
        res.notes.push_back("native backend fell back (" + first_ref +
                            "): " + error);

    // Warm: a fresh process loading the module the cold build cached,
    // which is what a second `ehdlc sim --engine aot-native` pays.
    const std::string cmd = shellQuote(selfExe()) +
                            " --native-warm-probe " + shellQuote(cache_dir) +
                            " " + shellQuote(first_ref);
    FILE *child = popen(cmd.c_str(), "r");
    if (child == nullptr)
        throw std::runtime_error("cannot start the warm-load probe");
    char line[128] = {};
    const bool got = std::fgets(line, sizeof line, child) != nullptr;
    const int rc = pclose(child);
    if (!got || rc != 0)
        throw std::runtime_error("warm-load probe failed");
    res.layer["sim.aot.native_load_warm_s"] = {std::strtod(line, nullptr),
                                               "s"};
}

int
nativeWarmProbe(const std::string &cache_dir, const std::string &ref)
{
    const hdl::Pipeline pipe = hdl::compile(loadProgramRef(ref));
    std::string error;
    const double sec = timedNativeLoad(pipe, cache_dir, error);
    std::printf("%.9f\n", sec);
    return 0;
}

}  // namespace ehdl::perfbench
