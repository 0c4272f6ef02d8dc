#pragma once

/// \file common.hpp
/// \brief Command line, result record and small statistics shared by the
/// benchmark workloads.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< traced run: per-layer metrics instead
  std::string work_dir = ".";  ///< scratch files (sweep output, trace dump)
};

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--work-dir D]`;
/// throws std::runtime_error on a missing or malformed argument.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// What one run prints as its final JSON line.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a correctness check (printed to stderr either way).
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::string json() const;
};

[[nodiscard]] double median(std::vector<double> v);

/// Share of `--seconds` an untraced run spends on repeated set-ups; the
/// rest times the workload itself.
inline constexpr double kSetupShare = 0.3;

/// Run `set_up` (which returns its own wall time, s) until `seconds` have
/// passed and at least 12 set-ups ran; the median of their times (setup_s).
[[nodiscard]] double median_setup_s(double seconds,
                                    const std::function<double()>& set_up);

/// Peak resident set of this process so far (MiB).
[[nodiscard]] double peak_rss_mib();

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// OpenMP team for the single-process MD workloads: min(4, nproc).
[[nodiscard]] int md_threads();

/// Log a line to stderr (stdout is reserved for the result line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
