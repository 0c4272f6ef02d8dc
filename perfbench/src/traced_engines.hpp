#pragma once

/// \file traced_engines.hpp
/// \brief Both TB engines' force calls rebuilt from the library's public
/// layer entry points, with a span around each call.
///
/// The traced run swaps these in for the calculators make_calculator()
/// returns; before any timing the benchmark checks that each rebuild
/// reproduces its calculator's energy and forces on the same configuration.

#include <cstddef>
#include <cstdint>

#include "src/core/calculator.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/tb/tb_model.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters shared by both rebuilt engines (cumulative over compute calls).
struct LayerCounters {
  std::size_t force_calls = 0;
  std::size_t neighbor_rebuilds = 0;
  /// Bond-topology stamp changes (each one drops the O(N) engine's
  /// symbolic SpMM patterns).
  std::size_t topology_changes = 0;
  std::size_t eigenpairs = 0;  ///< exact engine: eigenpairs computed
  std::size_t occupied = 0;    ///< exact engine: occupied states requested
  long pm_iterations = 0;      ///< O(N) engine: purification iterations
  long fp32_iterations = 0;
  double fill_sum = 0.0;       ///< O(N) engine: sum of density fills
};

/// O(N) step: NeighborList::ensure -> BondTable::build ->
/// build_block_hamiltonian -> palser_manolopoulos (persistent workspace)
/// -> band_forces_sparse, with repulsive_energy_forces beside it.  Mirrors
/// onx::OrderNCalculator for systems below its 512-atom domain threshold
/// with cached bounds, bond reuse and health checks off.
class TracedOrderN final : public tbmd::Calculator {
 public:
  TracedOrderN(tbmd::tb::TbModel model, const tbmd::onx::OrderNOptions& options,
               Tracer* tracer);

  tbmd::ForceResult compute(const tbmd::System& system) override;
  [[nodiscard]] std::string name() const override { return "traced-on"; }

  [[nodiscard]] const LayerCounters& counters() const { return counters_; }
  [[nodiscard]] const tbmd::onx::PurificationResult& last() const {
    return last_;
  }
  [[nodiscard]] const tbmd::onx::BsrWorkspace::SpmmStats& spmm_stats() const {
    return workspace_.scratch.stats;
  }
  /// Heap bytes reserved by the persistent purification workspace (every
  /// BSR intermediate plus the shared staging scratch).
  [[nodiscard]] std::size_t workspace_bytes() const;

 private:
  tbmd::tb::TbModel model_;
  tbmd::onx::OrderNOptions options_;
  Tracer* tracer_;
  tbmd::NeighborList list_;
  tbmd::tb::BondTable table_;
  tbmd::onx::BlockSparseMatrix hamiltonian_;
  tbmd::onx::PurificationWorkspace workspace_;
  tbmd::onx::PurificationResult last_;
  std::uint64_t topology_ = 0;
  LayerCounters counters_;
};

/// Exact step: NeighborList::ensure -> BondTable::build ->
/// build_hamiltonian -> eigh_range / eigh -> occupy -> density_matrix ->
/// band_forces, with repulsive_energy_forces.  Mirrors
/// tb::TightBindingCalculator, including its partial-spectrum window and
/// the Fermi-tail fallback.
class TracedExact final : public tbmd::Calculator {
 public:
  TracedExact(tbmd::tb::TbModel model, const tbmd::tb::TbOptions& options,
              Tracer* tracer);

  tbmd::ForceResult compute(const tbmd::System& system) override;
  [[nodiscard]] std::string name() const override { return "traced-exact"; }

  [[nodiscard]] const LayerCounters& counters() const { return counters_; }

 private:
  tbmd::tb::TbModel model_;
  tbmd::tb::TbOptions options_;
  Tracer* tracer_;
  tbmd::NeighborList list_;
  tbmd::tb::BondTable table_;
  std::size_t tail_hint_ = 0;
  std::uint64_t topology_ = 0;
  LayerCounters counters_;
};

}  // namespace perfbench
