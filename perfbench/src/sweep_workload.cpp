/// \file sweep_workload.cpp
/// \brief sweep-tubes-resume: a svc::JobRunner sweep of small periodic
/// zig-zag and arm-chair tubes on the exact engine, cut short by a step
/// budget and resumed.
///
/// One round = a fresh output directory, a first runner invocation whose
/// step budget covers half the sweep's MD steps (every job not finished
/// by then is checkpointed and preempted) and a second invocation that
/// resumes every job to its end.  Each job writes a lossless trajectory
/// frame every step and a checkpoint every few steps.  The run repeats
/// whole rounds for most of `--seconds` and the jobs' cold starts for the
/// rest (setup_s); after each round the output files are
/// checked by read-back (CRCs, frame steps, checkpoint == last frame) and
/// each final state by a fresh force call.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "common.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/svc/job_runner.hpp"
#include "src/util/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tbmd;
namespace fs = std::filesystem;

namespace {

struct Tube {
  const char* name;
  int n, m, cells;
};
// (n,0) zig-zag against (n,n) arm-chair; cells keep the periodic length
// above twice the neighbor-list radius.
constexpr Tube kTubes[] = {{"z50", 5, 0, 2}, {"z60", 6, 0, 2},
                           {"z80", 8, 0, 2}, {"a33", 3, 3, 3},
                           {"a44", 4, 4, 3}, {"a55", 5, 5, 3}};
constexpr std::size_t kLargest = 2;  // z80, 64 atoms
constexpr long kSteps = 30;
constexpr double kKelvin = 2500.0;

std::vector<svc::JobSpec> sweep_jobs(std::uint64_t seed) {
  std::vector<svc::JobSpec> jobs;
  for (std::size_t k = 0; k < std::size(kTubes); ++k) {
    const Tube& t = kTubes[k];
    svc::JobSpec j;
    j.name = t.name;
    j.structure = "nanotube";
    j.element = Element::C;
    j.indices = {t.n, t.m};
    j.cells = {1, 1, t.cells};
    j.periodic = true;
    j.calc = CalculatorSpec::exact();
    j.calc.electronic_temperature = kKelvin;
    j.dt = 0.5;
    j.steps = kSteps;
    j.temperature = kKelvin;
    j.seed = seed * 1000 + k;
    j.thermostat = md::ThermostatSpec::nose_hoover(kKelvin, 50.0);
    j.sample_every = 1;
    j.checkpoint_every = 5;
    j.traj_lossless = true;
    jobs.push_back(j);
  }
  return jobs;
}

struct Layout {
  int workers = 2;
  int threads = 2;  ///< OpenMP team per worker
};

Layout layout() {
  const int procs = md_threads();
  Layout l;
  l.workers = procs >= 2 ? 2 : 1;
  l.threads = std::max(1, procs / l.workers);
  return l;
}

struct Round {
  std::vector<svc::JobResult> first, second;
  double first_s = 0.0, second_s = 0.0;  ///< runner wall times
};

Round run_round(const std::vector<svc::JobSpec>& jobs, const std::string& dir,
                const Layout& l) {
  fs::remove_all(dir);
  long total = 0;
  for (const svc::JobSpec& j : jobs) total += j.steps;
  svc::SweepOptions opt;
  opt.workers = l.workers;
  opt.threads = l.threads;
  opt.output_dir = dir;
  opt.resume = true;
  opt.verbose = false;
  opt.step_budget = total / 2;
  Round r;
  double t0 = now_s();
  r.first = svc::JobRunner(jobs, opt).run();
  r.first_s = now_s() - t0;
  opt.step_budget = -1;
  t0 = now_s();
  r.second = svc::JobRunner(jobs, opt).run();
  r.second_s = now_s() - t0;
  return r;
}

std::string ckpt_path(const std::string& dir, const svc::JobSpec& j) {
  return (fs::path(dir) / (j.name + ".ckpt")).string();
}
std::string traj_path(const std::string& dir, const svc::JobSpec& j) {
  return (fs::path(dir) / (j.name + ".tbt")).string();
}

/// Read-back checks of one round; adds the round's operations to `out`.
bool check_round(const std::vector<svc::JobSpec>& jobs, const Round& r,
                 const std::string& dir, Outcome& out) {
  bool cut = false, invocations_ok = true, resumed_all = true;
  bool files_ok = true, forces_ok = true;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const svc::JobSpec& j = jobs[k];
    const svc::JobResult& a = r.first[k];
    const svc::JobResult& b = r.second[k];
    out.attempted += j.steps + 1;
    const long ran = a.steps_run + b.steps_run;
    if (ran != j.steps) out.failed += std::max(0L, j.steps - ran);
    if (b.status != svc::JobStatus::kCompleted) ++out.failed;
    cut = cut || a.status == svc::JobStatus::kPreempted;
    invocations_ok = invocations_ok && a.status != svc::JobStatus::kFailed &&
                     ran == j.steps && b.steps_done == j.steps;
    resumed_all = resumed_all && b.resumed;

    std::vector<Vec3> last_frame;
    try {
      io::BinaryTrajectoryReader reader(traj_path(dir, j));
      io::TrajectoryFrame frame;
      long expect = 0;
      while (reader.next(frame)) {  // throws on a CRC mismatch
        if (frame.step != expect) {
          note("job %s: frame step %ld where %ld was expected", j.name.c_str(),
               frame.step, expect);
          files_ok = false;
        }
        ++expect;
        last_frame = frame.positions;
      }
      if (expect != j.steps + 1) files_ok = false;
      const svc::Checkpoint ck = svc::read_checkpoint(ckpt_path(dir, j));
      if (ck.step != j.steps || !ck.complete() ||
          ck.system.positions() != last_frame) {
        note("job %s: final checkpoint differs from the last frame",
             j.name.c_str());
        files_ok = false;
      }
      auto calc = j.make_calculator(ck.system);
      const ForceResult f = calc->compute(ck.system);
      Vec3 sum;
      bool finite = std::isfinite(f.energy);
      for (const Vec3& v : f.forces) {
        sum += v;
        finite = finite && std::isfinite(v.x) && std::isfinite(v.y) &&
                 std::isfinite(v.z);
      }
      forces_ok = forces_ok && finite && norm(sum) <= 1e-6;
    } catch (const std::exception& e) {
      note("job %s: %s", j.name.c_str(), e.what());
      files_ok = false;
    }
  }
  const bool ok = cut && invocations_ok && resumed_all && files_ok && forces_ok;
  if (!ok) {
    note("round: budget cut %d, steps complete %d, all resumed %d, files %d, "
         "final forces %d",
         cut, invocations_ok, resumed_all, files_ok, forces_ok);
  }
  return ok;
}

double atom_steps(const std::vector<svc::JobSpec>& jobs) {
  double s = 0.0;
  for (const svc::JobSpec& j : jobs) {
    s += static_cast<double>(j.build_system().size() * j.steps);
  }
  return s;
}

/// Cold starts of every job in turn: structure, velocities, calculator,
/// first force call -- what the runner pays before each job's first step.
double sweep_setup_s(const std::vector<svc::JobSpec>& jobs) {
  const double t0 = now_s();
  for (const svc::JobSpec& j : jobs) {
    System s = j.build_system();
    md::maxwell_boltzmann_velocities(s, j.temperature, j.seed);
    auto calc = j.make_calculator(s);
    md::MdDriver d(s, *calc, md::MdOptions(j.dt, j.thermostat));
  }
  return now_s() - t0;
}

struct SweepStats {
  std::vector<double> step_ms;   ///< per job invocation: wall / steps run
  std::vector<double> job_s;     ///< per job and round: both invocations
  std::vector<double> idle_s;    ///< per round: workers x wall - job walls
  double runner_s = 0.0;
  long rounds = 0;
  bool checks_ok = true;  ///< every round passed check_round
};

SweepStats run_rounds(const std::vector<svc::JobSpec>& jobs,
                      const std::string& dir, const Layout& l, double seconds,
                      Outcome& out) {
  SweepStats st;
  const double t0 = now_s();
  const int workers =
      std::min(l.workers, static_cast<int>(jobs.size()));
  do {
    const Round r = run_round(jobs, dir, l);
    st.runner_s += r.first_s + r.second_s;
    double job_walls = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      for (const svc::JobResult* res : {&r.first[k], &r.second[k]}) {
        if (res->steps_run > 0) {
          st.step_ms.push_back(1e3 * res->wall_seconds /
                               static_cast<double>(res->steps_run));
        }
        job_walls += res->wall_seconds;
      }
      st.job_s.push_back(r.first[k].wall_seconds + r.second[k].wall_seconds);
    }
    st.idle_s.push_back(workers * (r.first_s + r.second_s) - job_walls);
    ++st.rounds;
    st.checks_ok = check_round(jobs, r, dir, out) && st.checks_ok;
  } while (now_s() - t0 < seconds);
  return st;
}

void check_rounds(const SweepStats& st, Outcome& out) {
  out.check(st.checks_ok,
            std::to_string(st.rounds) +
                " sweep rounds: budget cut the first invocation, every job "
                "resumed and completed, frames 0..N with valid CRCs, final "
                "checkpoints equal the last frames, final forces finite and "
                "summing to 0");
}

/// Checkpoint and trajectory layer probes on the last round's files.
void probe_io(const std::vector<svc::JobSpec>& jobs, const std::string& dir,
              const std::string& trace_path, Outcome& out) {
  Tracer tracer;
  std::vector<double> resume_ms, write_ms, ckpt_bytes, frame_bytes,
      frame_write_ms, frame_read_ms;
  const std::string probe_ckpt = (fs::path(dir) / "probe.ckpt").string();
  const std::string probe_traj = (fs::path(dir) / "probe.tbt").string();
  io::BinaryTrajectoryOptions topt;
  topt.lossless = true;
  for (const svc::JobSpec& j : jobs) {
    const double bytes =
        static_cast<double>(fs::file_size(ckpt_path(dir, j)));
    ckpt_bytes.push_back(bytes);
    fs::copy_file(traj_path(dir, j), probe_traj,
                  fs::copy_options::overwrite_existing);
    double t0 = now_s();
    svc::Checkpoint ck;
    {
      Tracer::Span s(&tracer, "svc.resume");
      {
        Tracer::Span r(&tracer, "svc.checkpoint_read");
        ck = svc::read_checkpoint_with_fallback(ckpt_path(dir, j));
      }
      Tracer::Span t(&tracer, "io.traj_resume");
      auto w = io::BinaryTrajectoryWriter::resume(probe_traj, ck.system,
                                                  j.steps / 2, topt);
    }
    resume_ms.push_back(1e3 * (now_s() - t0));
    for (int r = 0; r < 3; ++r) {
      t0 = now_s();
      {
        Tracer::Span s(&tracer, "svc.checkpoint_write");
        svc::write_checkpoint(probe_ckpt, ck);
      }
      write_ms.push_back(1e3 * (now_s() - t0));
    }

    std::size_t header = 0;
    t0 = now_s();
    {
      Tracer::Span s(&tracer, "io.frame_write");
      io::BinaryTrajectoryWriter w(probe_traj, ck.system, topt);
      w.flush();
      header = fs::file_size(probe_traj);
      for (long f = 0; f <= j.steps; ++f) w.add_frame(ck.system, f);
      w.flush();
    }
    const double frames = static_cast<double>(j.steps + 1);
    frame_write_ms.push_back(1e3 * (now_s() - t0) / frames);
    frame_bytes.push_back(
        static_cast<double>(fs::file_size(probe_traj) - header) / frames);
    t0 = now_s();
    {
      Tracer::Span s(&tracer, "io.frame_read");
      io::BinaryTrajectoryReader reader(traj_path(dir, j));
      io::TrajectoryFrame frame;
      while (reader.next(frame)) {
      }
    }
    frame_read_ms.push_back(1e3 * (now_s() - t0) / frames);
  }
  out.add("svc.resume_ms", median(resume_ms), "ms");
  out.add("svc.checkpoint_write_ms", median(write_ms), "ms");
  out.add("svc.checkpoint_bytes", median(ckpt_bytes), "bytes");
  out.add("io.frame_bytes", median(frame_bytes), "bytes");
  out.add("io.frame_write_ms", median(frame_write_ms), "ms");
  out.add("io.frame_read_ms", median(frame_read_ms), "ms");
  tracer.write_json(trace_path);
}

}  // namespace

Outcome run_sweep_workload(const Args& args) {
  Outcome out;
  const Layout l = layout();
  const std::vector<svc::JobSpec> jobs = sweep_jobs(args.seed);
  const std::string dir =
      (fs::path(args.work_dir) / ("sweep-" + std::to_string(getpid())))
          .string();
  par::set_num_threads(l.threads);

  if (!args.trace) {
    const SweepStats st = run_rounds(jobs, dir, l,
                                     (1.0 - kSetupShare) * args.seconds, out);
    check_rounds(st, out);
    const double rss = peak_rss_mib();
    out.add("setup_s",
            median_setup_s(kSetupShare * args.seconds,
                           [&] { return sweep_setup_s(jobs); }),
            "s");
    out.add("step_ms_p50", median(st.step_ms), "ms");
    out.add("atom_steps_per_s",
            static_cast<double>(st.rounds) * atom_steps(jobs) / st.runner_s,
            "atom-steps/s");
    out.add("peak_rss_mib", rss, "MiB");
    note("%ld rounds of %zu jobs x %ld steps in %.2f s of runner time",
         st.rounds, jobs.size(), kSteps, st.runner_s);
  } else {
    const SweepStats st = run_rounds(jobs, dir, l, 0.4 * args.seconds, out);
    check_rounds(st, out);
    out.add("svc.job_s_p50", median(st.job_s), "s");
    out.add("svc.worker_idle_s", median(st.idle_s), "s");
    probe_io(jobs, dir,
             (fs::path(args.work_dir) / "trace-sweep-tubes-resume-svc.json")
                 .string(),
             out);

    // The MD layers on the sweep's largest tube, at one worker's team.
    const svc::JobSpec& j = jobs[kLargest];
    MdCase c;
    c.spec = j.calc;
    c.md = md::MdOptions(j.dt, j.thermostat);
    c.build = [j](std::uint64_t) {
      System s = j.build_system();
      md::maxwell_boltzmann_velocities(s, j.temperature, j.seed);
      return s;
    };
    trace_md_layers(c, args.seed, 0.4 * args.seconds, l.threads,
                    (fs::path(args.work_dir) / "trace-sweep-tubes-resume.json")
                        .string(),
                    out);
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
