#include "probes.hpp"

#include <vector>

#include "common.hpp"
#include "src/linalg/blas.hpp"
#include "src/util/random.hpp"

namespace perfbench {

using namespace tbmd;

double gemm_roof_gflops() {
  constexpr std::size_t n = 512;
  Rng rng(2024);
  linalg::Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      b(i, j) = rng.uniform(-1.0, 1.0);
    }
  }
  static_cast<void>(linalg::matmul(a, b));  // warm-up
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    static_cast<void>(linalg::matmul(a, b));
    t.push_back(now_s() - t0);
  }
  return 2.0 * n * n * n / median(t) / 1e9;
}

SpmmProbe spmm_pp_probe(const onx::BlockSparseMatrix& p,
                        const NumericsSpec& numerics) {
  onx::BlockSparseMatrix op = p;
  if (numerics.precision == PrecisionMode::kMixed) {
    op.convert_precision(onx::TilePrecision::kF32);
  }
  const double sub_tile = numerics.sub_tile * numerics.drop_tolerance;

  // Tile products of the half product over the mirror-expanded pattern.
  const onx::BlockSparseMatrix full = p.to_full();
  const auto& ptr = full.row_ptr();
  const auto& col = full.cols();
  double flops = 0.0;
  for (std::size_t i = 0; i < full.block_rows(); ++i) {
    const double di = static_cast<double>(full.row_dim(i));
    for (std::size_t a = ptr[i]; a < ptr[i + 1]; ++a) {
      const std::size_t k = col[a];
      const double dk = static_cast<double>(full.row_dim(k));
      for (std::size_t b = ptr[k]; b < ptr[k + 1]; ++b) {
        const std::size_t j = col[b];
        if (j >= i) flops += 2.0 * di * dk * static_cast<double>(full.row_dim(j));
      }
    }
  }

  onx::BsrWorkspace ws;
  onx::BsrPattern pattern;
  onx::BlockSparseMatrix out;
  op.multiply_sym_into(op, numerics.drop_tolerance, out, ws, &pattern,
                       sub_tile, numerics.simd);  // cold: symbolic phase
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    op.multiply_sym_into(op, numerics.drop_tolerance, out, ws, &pattern,
                         sub_tile, numerics.simd);
    t.push_back(now_s() - t0);
  }
  SpmmProbe probe;
  probe.ms = 1e3 * median(t);
  probe.gflops = flops / median(t) / 1e9;
  return probe;
}

}  // namespace perfbench
