#include "traced_engines.hpp"

#include <algorithm>
#include <utility>

#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/units.hpp"

namespace perfbench {

using namespace tbmd;
using Span = Tracer::Span;

TracedOrderN::TracedOrderN(tb::TbModel model,
                           const onx::OrderNOptions& options, Tracer* tracer)
    : model_(std::move(model)), options_(options), tracer_(tracer) {}

ForceResult TracedOrderN::compute(const System& system) {
  Span call(tracer_, "md.force_call");
  ++counters_.force_calls;
  ForceResult result;
  const int electrons = system.total_valence_electrons();
  {
    Span s(tracer_, "neighbor.ensure");
    if (list_.ensure(system.positions(), system.cell(),
                     {model_.cutoff(), options_.skin})) {
      ++counters_.neighbor_rebuilds;
    }
  }
  {
    Span s(tracer_, "tb.bondtable");
    table_.build(model_, system, list_,
                 tb::BondTable::Mode::kBlocksAndDerivatives);
  }
  if (table_.topology_version() != topology_) {
    topology_ = table_.topology_version();
    ++counters_.topology_changes;
  }
  workspace_.patterns.set_topology(table_.topology_version());
  if (!options_.reuse_patterns) workspace_.patterns.invalidate();
  {
    Span s(tracer_, "onx.hamiltonian");
    onx::build_block_hamiltonian(model_, system, table_, hamiltonian_,
                                 workspace_.scratch);
  }
  tb::RepulsiveResult rep;
  {
    Span s(tracer_, "tb.repulsive");
    rep = tb::repulsive_energy_forces(model_, table_);
  }
  {
    Span s(tracer_, "onx.purify");
    workspace_.p = std::move(last_.density);
    last_ = onx::palser_manolopoulos(hamiltonian_, electrons / 2,
                                     options_.purification, &workspace_);
  }
  {
    Span s(tracer_, "onx.forces");
    result.forces =
        onx::band_forces_sparse(table_, last_.density, &result.virial);
  }
  for (std::size_t i = 0; i < system.size(); ++i) {
    result.forces[i] += rep.forces[i];
  }
  result.virial += rep.virial;
  result.band_energy = last_.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = last_.band_energy + rep.energy;
  counters_.pm_iterations += last_.iterations;
  counters_.fp32_iterations += last_.numerics.fp32_iterations;
  counters_.fill_sum += last_.fill_fraction;
  return result;
}

namespace {

std::size_t matrix_bytes(const onx::BlockSparseMatrix& m) {
  return m.row_ptr().capacity() * sizeof(std::size_t) +
         m.cols().capacity() * sizeof(std::uint32_t) +
         m.values().capacity() * sizeof(double) +
         m.values_f32().capacity() * sizeof(float);
}

}  // namespace

std::size_t TracedOrderN::workspace_bytes() const {
  return workspace_.scratch.footprint_bytes() + matrix_bytes(workspace_.p) +
         matrix_bytes(workspace_.p2) + matrix_bytes(workspace_.p3) +
         matrix_bytes(workspace_.tmp) + matrix_bytes(workspace_.eye) +
         matrix_bytes(last_.density) + matrix_bytes(hamiltonian_);
}

TracedExact::TracedExact(tb::TbModel model, const tb::TbOptions& options,
                         Tracer* tracer)
    : model_(std::move(model)), options_(options), tracer_(tracer) {}

ForceResult TracedExact::compute(const System& system) {
  Span call(tracer_, "md.force_call");
  ++counters_.force_calls;
  ForceResult result;
  {
    Span s(tracer_, "neighbor.ensure");
    if (list_.ensure(system.positions(), system.cell(),
                     {model_.cutoff(), options_.skin})) {
      ++counters_.neighbor_rebuilds;
    }
  }
  {
    Span s(tracer_, "tb.bondtable");
    table_.build(model_, system, list_,
                 tb::BondTable::Mode::kBlocksAndDerivatives);
  }
  if (table_.topology_version() != topology_) {
    topology_ = table_.topology_version();
    ++counters_.topology_changes;
  }
  linalg::Matrix h;
  {
    Span s(tracer_, "tb.hamiltonian");
    h = tb::build_hamiltonian(model_, system, table_);
  }

  // The calculator's spectrum policy: the occupied states plus the LUMO
  // (and a Fermi-tail buffer at T_el > 0) unless the spectrum is reported.
  const std::size_t norb = h.rows();
  const int ne = system.total_valence_electrons();
  const double etemp = options_.electronic_temperature;
  const auto homo = static_cast<std::size_t>((ne - 1) / 2);
  counters_.occupied += homo + 1;
  const bool want_partial =
      options_.spectrum == tb::SpectrumMode::kPartial ||
      (options_.spectrum == tb::SpectrumMode::kAuto &&
       !options_.report_eigenvalues);
  bool partial = false;
  linalg::SymmetricEigenSolution eig;
  {
    Span s(tracer_, "linalg.eigh");
    if (want_partial && ne > 0 && norb > 0) {
      std::size_t needed = homo + 1;
      if (etemp > 0.0) {
        needed += std::max({std::size_t{16}, norb / 8, tail_hint_});
      }
      const std::size_t iu = std::min(norb - 1, needed);
      partial = iu + 1 < norb;
      if (partial) eig = linalg::eigh_range(h, 0, iu);
    }
    if (!partial) eig = linalg::eigh(h);
  }
  counters_.eigenpairs += eig.values.size();
  tb::Occupations occ;
  {
    Span s(tracer_, "tb.occupations");
    occ = tb::occupy(eig.values, ne, etemp);
  }
  const double top =
      occ.fermi_level + tb::kFermiTailCutoff * units::kBoltzmann * etemp;
  if (partial && etemp > 0.0 && eig.values.back() < top) {
    {
      Span s(tracer_, "linalg.eigh");
      eig = linalg::eigh(h);
    }
    counters_.eigenpairs += eig.values.size();
    {
      Span s(tracer_, "tb.occupations");
      occ = tb::occupy(eig.values, ne, etemp);
    }
    const double new_top =
        occ.fermi_level + tb::kFermiTailCutoff * units::kBoltzmann * etemp;
    std::size_t covered = 0;
    while (covered < eig.values.size() && eig.values[covered] < new_top) {
      ++covered;
    }
    const std::size_t beyond = covered > homo + 1 ? covered - (homo + 1) : 0;
    tail_hint_ = std::max(tail_hint_, beyond + norb / 16 + 8);
  }
  linalg::Matrix rho;
  {
    Span s(tracer_, "linalg.density");
    rho = tb::density_matrix(eig.vectors, occ.weights);
  }
  {
    Span s(tracer_, "tb.band_forces");
    result.forces = tb::band_forces(table_, rho, &result.virial);
  }
  tb::RepulsiveResult rep;
  {
    Span s(tracer_, "tb.repulsive");
    rep = tb::repulsive_energy_forces(model_, table_);
  }
  for (std::size_t i = 0; i < system.size(); ++i) {
    result.forces[i] += rep.forces[i];
  }
  result.virial += rep.virial;
  result.band_energy = occ.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = occ.band_energy + occ.entropy_term + rep.energy;
  result.fermi_level = occ.fermi_level;
  if (options_.report_eigenvalues) result.eigenvalues = std::move(eig.values);
  return result;
}

}  // namespace perfbench
