// Benchmark program: runs one workload for one seed and prints one JSON
// result line last on standard output.
//
//   perfbench --workload=philly-sia --seed=1 --seconds=10 --trace=0
//             [--trace-seed=1] [--t0-ns=N] [--serve-bin=PATH] [--work-dir=DIR]
//
// --trace=0 prints the end-to-end metrics, --trace=1 the per-layer ones.
// --t0-ns is the CLOCK_MONOTONIC time at which the launching process
// started this one, so setup_s covers exec and dynamic loading too.
#include <csignal>
#include <iostream>
#include <string>
#include <utility>

#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"
#include "src/common/flags.h"

namespace {

constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"sim.pre_ms", "ms"},
    {"sim.advance_ms", "ms"},
    {"sim.finalize_ms", "ms"},
    {"sim.rounds", "count"},
    {"sim.round_p50_ms", "ms"},
    {"sim.round_p98_ms", "ms"},
    {"schedulers.schedule_ms", "ms"},
    {"schedulers.schedule_p50_us", "us"},
    {"sia.candidate_gen_ms", "ms"},
    {"sia.lp_build_ms", "ms"},
    {"sia.solve_ms", "ms"},
    {"sia.placement_ms", "ms"},
    {"sia.candidate_cache_hit_ratio", "ratio"},
    {"scheduler.ga_genomes_evaluated", "count"},
    {"solver.lp_iterations", "count"},
    {"solver.bb_nodes", "count"},
    {"solver.dual_pivots", "count"},
    {"solver.incremental_fallbacks", "count"},
    {"estimator.refits", "count"},
    {"estimator.fit_iterations", "count"},
    {"cluster.place_ms", "ms"},
    {"service.handle_submit_us", "us"},
    {"service.handle_step_ms", "ms"},
    {"service.handle_read_us", "us"},
    {"service.transport_us", "us"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.recover_ms", "ms"},
    {"service.retries", "count"},
    {"service.state_bytes", "bytes"},
    {"serve.submit_p50_ms", "ms"},
    {"serve.submit_tail_ms", "ms"},
    {"serve.step_p50_ms", "ms"},
    {"serve.step_tail_ms", "ms"},
    {"serve.read_p50_ms", "ms"},
    {"serve.recover_s", "s"},
    {"trace.overhead_s", "s"},
};

constexpr char kUsage[] =
    "usage: perfbench --workload=philly-sia|newtrace-sia|philly-pollux|serve-sia --seed=N "
    "--seconds=S --trace=0|1 [--trace-seed=N] [--t0-ns=N] [--serve-bin=PATH] "
    "[--work-dir=DIR]\n";

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.process_start = perfbench::Clock::now();
  std::signal(SIGPIPE, SIG_IGN);

  sia::FlagParser flags;
  if (!flags.Parse(argc, argv) || !flags.Has("workload")) {
    std::cerr << flags.error() << "\n" << kUsage;
    return 2;
  }
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.trace_seed = static_cast<uint64_t>(flags.GetInt("trace-seed", 1));
  args.seconds = flags.GetDouble("seconds", 10.0);
  args.trace = flags.GetInt("trace", 0) != 0;
  args.serve_binary = flags.GetString("serve-bin", "");
  args.work_dir = flags.GetString("work-dir", ".bench_run");
  if (flags.Has("t0-ns")) {
    args.process_start = perfbench::Clock::time_point(
        std::chrono::nanoseconds(static_cast<int64_t>(flags.GetInt("t0-ns", 0))));
  }
  for (const std::string& unknown : flags.UnknownFlags()) {
    std::cerr << "unknown flag --" << unknown << "\n" << kUsage;
    return 2;
  }

  perfbench::RunReport report;
  if (perfbench::IsSimWorkload(args.workload)) {
    report = perfbench::RunSimWorkload(args);
  } else if (args.workload == "serve-sia") {
    if (args.serve_binary.empty()) {
      std::cerr << "serve-sia needs --serve-bin\n" << kUsage;
      return 2;
    }
    report = perfbench::RunServeWorkload(args);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n" << kUsage;
    return 2;
  }
  if (args.trace) {
    // Layers a workload does not exercise (the service on a simulator
    // workload, Sia's phases under Pollux) read 0.
    for (const auto& [name, unit] : kPerLayer) {
      if (report.metrics.count(name) == 0) {
        report.Set(name, 0.0, unit);
      }
    }
  }
  for (const std::string& failure : report.failures) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << report.ToJson() << std::endl;
  return 0;
}
