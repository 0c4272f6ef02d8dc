#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "src/util/parallel.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::runtime_error(
        "usage: tbmd_perfbench --workload W --seed N --seconds S --trace 0|1"
        " [--work-dir D]");
  }
  return a;
}

void Outcome::check(bool ok, const std::string& what) {
  note("[%s] %s", ok ? "ok" : "FAIL", what.c_str());
  correct = correct && ok;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Outcome::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_setup_s(double seconds, const std::function<double()>& set_up) {
  std::vector<double> times;
  const double t0 = now_s();
  while (times.size() < 12 || now_s() - t0 < seconds) {
    times.push_back(set_up());
  }
  note("set-up: median %.4f s of %zu", median(times), times.size());
  return median(times);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int md_threads() {
  int procs = 1;
#ifdef _OPENMP
  procs = omp_get_num_procs();
#endif
  return std::clamp(procs, 1, 4);
}

void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
