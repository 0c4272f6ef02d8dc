/// \file main.cpp
/// \brief tbmd_perfbench: one run of one benchmark workload.
///
///   tbmd_perfbench --workload W --seed N --seconds S --trace 0|1
///                  [--work-dir D]
///
/// Prints progress and check results on stderr and, as the last line of
/// stdout, one JSON object {correct, attempted, failed, metrics}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// Exits 1 without a result line on a usage error or an exception.

#include <cstdio>
#include <exception>

#include "common.hpp"
#include "src/io/logger.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    tbmd::io::set_log_level(tbmd::io::LogLevel::kWarn);
    const Outcome out = args.workload == "sweep-tubes-resume"
                            ? run_sweep_workload(args)
                            : run_md_workload(args);
    std::printf("%s\n", out.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbmd_perfbench: %s\n", e.what());
    return 1;
  }
}
