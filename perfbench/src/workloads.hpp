#pragma once

/// \file workloads.hpp
/// \brief Entry points of the benchmark workloads.

#include <cstdint>
#include <functional>
#include <string>

#include "common.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/core/system.hpp"
#include "src/md/md_driver.hpp"
#include "src/tb/tb_model.hpp"

namespace perfbench {

/// One MD input: engine, integrator and a seeded structure recipe, plus
/// the bounds its checks use.
struct MdCase {
  bool order_n = false;
  tbmd::tb::TbModel model = tbmd::tb::xwch_carbon();
  tbmd::CalculatorSpec spec;
  tbmd::md::MdOptions md;
  /// O(N): bound on max |F_on - F_exact| (eV/A).
  double force_bound = 0.0;
  /// Bound on the conserved quantity's deviation from its start (eV/atom).
  double drift_bound = 2e-3;
  std::function<tbmd::System(std::uint64_t)> build;
};

/// onx-c216, onx-c216-mixed and exact-tube-open (untraced or traced).
[[nodiscard]] Outcome run_md_workload(const Args& args);

/// sweep-tubes-resume (untraced or traced).
[[nodiscard]] Outcome run_sweep_workload(const Args& args);

/// Traced MD slice on `c` at `threads` OpenMP threads: rebuilds the
/// engine's step from its layer calls, checks the rebuild and the
/// trajectory, and adds every per-layer metric of the neighbor, tb,
/// linalg, onx, md, run and trace modules to `out` (0 for a layer the
/// engine does not call).  Writes the spans to `trace_path`.
void trace_md_layers(const MdCase& c, std::uint64_t seed, double seconds,
                     int threads, const std::string& trace_path, Outcome& out);

}  // namespace perfbench
