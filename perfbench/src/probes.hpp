#pragma once

/// \file probes.hpp
/// \brief Kernel probes of the traced run: the dense GEMM roof and the
/// converged-fill P*P SpMM.

#include "src/core/numerics_spec.hpp"
#include "src/onx/block_sparse.hpp"

namespace perfbench {

/// GFLOP/s of linalg::matmul on 512 x 512 operands (median of 5 products)
/// at the current OpenMP team size.
[[nodiscard]] double gemm_roof_gflops();

struct SpmmProbe {
  double ms = 0.0;      ///< median wall time of one warm P*P product
  double gflops = 0.0;  ///< flops counted from tile products / time
};

/// Warm symmetric-half P*P on the converged density `p` (fp32 tiles when
/// `numerics` selects mixed precision, as its early iterations run), at
/// the tight drop tolerance.  Flops: 2 m k n for every tile product
/// A_IK * B_KJ with J >= I, over the mirror-expanded pattern.
[[nodiscard]] SpmmProbe spmm_pp_probe(const tbmd::onx::BlockSparseMatrix& p,
                                      const tbmd::NumericsSpec& numerics);

}  // namespace perfbench
