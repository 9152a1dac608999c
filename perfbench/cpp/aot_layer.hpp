/**
 * @file
 * The sim.aot layer: specialization cost, and the native backend's cold
 * build and warm load. Native modules only ever go to a temporary cache
 * directory the benchmark creates under its scratch directory and
 * removes afterwards.
 */

#ifndef EHDL_PERFBENCH_AOT_LAYER_HPP_
#define EHDL_PERFBENCH_AOT_LAYER_HPP_

#include <string>
#include <vector>

#include "common.hpp"
#include "ebpf/program.hpp"
#include "hdl/pipeline.hpp"

namespace ehdl::perfbench {

/** A directory made with mkdtemp and removed recursively on destruction. */
class TempDir
{
  public:
    /** Create <parent>/<prefix>XXXXXX. @throw std::runtime_error. */
    TempDir(const std::string &parent, const std::string &prefix);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Rebuild a program from a reference a child process can parse:
 * "app:<key>" or "fuzz:<campaign seed>:<iteration>".
 */
ebpf::Program loadProgramRef(const std::string &ref);

/**
 * Measure the sim.aot rows into @p res.layer: buildAotSpec over @p pipes,
 * then a cold native build of @p first_ref's pipeline into @p cache_dir
 * (which must be fresh) and a warm load of it in a child process.
 */
void measureAotLayer(const std::vector<const hdl::Pipeline *> &pipes,
                     const std::string &first_ref,
                     const std::string &cache_dir, Result &res);

/** Child-process entry: time a warm native load and print the seconds. */
int nativeWarmProbe(const std::string &cache_dir, const std::string &ref);

}  // namespace ehdl::perfbench

#endif  // EHDL_PERFBENCH_AOT_LAYER_HPP_
