// Simulator workloads: a generated trace handed to ClusterSimulator, each
// StepRound() call timed from outside. The traced run times the layers of a
// round through public hooks only: a forwarding Scheduler wrapper around
// Schedule(), a SimObserver timestamp between placement and apply, and the
// registry's own instruments with trace timings on.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/workloads.h"
#include "src/cluster/cluster_spec.h"
#include "src/obs/metrics_registry.h"
#include "src/service/engine.h"
#include "src/sim/simulator.h"
#include "src/testing/invariant_oracle.h"
#include "src/workload/trace_gen.h"

namespace perfbench {

namespace {

struct SimWorkload {
  const char* name;
  sia::TraceKind trace;
  const char* policy;
  // Nominal host seconds of one pass (README). A run of --seconds S makes
  // P = round(S / pass_seconds) passes on the noise seeds 1..P. The cost of
  // a pass swings with its noise seed by up to a factor of two (mostly
  // through estimator refits), so every run simulates the same P seeds and
  // the run's own seed only sets the order in which they run. The work of
  // a run is fixed by S, never by the host's speed or the run's seed.
  double pass_seconds;
};

constexpr SimWorkload kSimWorkloads[] = {
    {"philly-sia", sia::TraceKind::kPhilly, "sia", 4.0},
    {"newtrace-sia", sia::TraceKind::kNewTrace, "sia", 8.0},
    {"philly-pollux", sia::TraceKind::kPhilly, "pollux", 8.0},
};

// The round tail of the traced run's plain pass is its p98: every pass of
// these traces has at least 800 rounds, so at least 16 lie beyond it (p99
// would leave 8).
constexpr double kRoundTailQ = 0.98;

const SimWorkload* FindWorkload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// Times every Schedule() call of the policy it forwards to.
class TimedScheduler : public sia::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<sia::Scheduler> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  double round_duration_seconds() const override { return inner_->round_duration_seconds(); }
  sia::ScheduleOutput Schedule(const sia::ScheduleInput& input) override {
    enter = Clock::now();
    sia::ScheduleOutput out = inner_->Schedule(input);
    exit = Clock::now();
    called = true;
    return out;
  }
  void SaveState(sia::BinaryWriter& w) const override { inner_->SaveState(w); }
  bool RestoreState(sia::BinaryReader& r) override { return inner_->RestoreState(r); }

  Clock::time_point enter, exit;
  bool called = false;

 private:
  std::unique_ptr<sia::Scheduler> inner_;
};

// The output checks that watch a pass as it runs: the repo's invariant
// oracle and the placement audit. It also stamps the moment a placed round
// reaches the observer. The checks' own time is accumulated in `spent` so
// the pass can leave it out of every measurement.
class CheckObservers : public sia::SimObserver {
 public:
  explicit CheckObservers(const SimWorkload& w) : oracle_(OracleOptionsFor(w)) {}

  void OnRoundScheduled(const sia::RoundObservation& observation) override {
    scheduled_at = Clock::now();
    oracle_.OnRoundScheduled(observation);
    audit_.OnRoundScheduled(observation);
    spent += Clock::now() - scheduled_at;
  }
  void OnRunEnd(const sia::SimResult& result) override {
    const Clock::time_point start = Clock::now();
    oracle_.OnRunEnd(result);
    spent += Clock::now() - start;
  }

  // Applies every simulator output check to the pass's result.
  void Verify(const std::vector<sia::JobSpec>& jobs, const sia::SimResult& result,
              const sia::ClusterSpec& cluster, CheckLog* log) const {
    CheckAllJobsFinished(jobs, result, log);
    if (!oracle_.ok() || !oracle_.run_ended()) {
      log->Fail("invariant oracle: " + oracle_.Report());
    }
    CheckCapacity(audit_, log);
    CheckGpuSeconds(audit_.placed_gpu_seconds(), result, cluster, /*bootstrap_profiling=*/true,
                    log);
  }

  Clock::time_point scheduled_at;
  Clock::duration spent{};

 private:
  static sia::testing::OracleOptions OracleOptionsFor(const SimWorkload& w) {
    // Sia's scale-up and configuration-set contracts; Pollux has neither.
    sia::testing::OracleOptions options;
    options.check_scale_up = std::string(w.policy) == "sia";
    options.check_config_set = options.check_scale_up;
    return options;
  }

  sia::testing::InvariantOracle oracle_;
  PlacementAudit audit_;
};

// One simulator ready to run, with the checks attached: the policy (wrapped
// in a TimedScheduler for the traced pass), the registry it records into,
// and the simulator itself.
struct SimStack {
  std::unique_ptr<sia::Scheduler> scheduler;
  TimedScheduler* timed = nullptr;
  sia::MetricsRegistry metrics;
  std::unique_ptr<CheckObservers> checks;
  std::unique_ptr<sia::ClusterSimulator> sim;
};

std::unique_ptr<SimStack> BuildStack(const SimWorkload& w, const sia::ClusterSpec& cluster,
                                     const std::vector<sia::JobSpec>& jobs, uint64_t seed,
                                     bool traced) {
  auto stack = std::make_unique<SimStack>();
  // The policy as the program's own tools build it (Pollux's genetic search
  // keeps its fixed default seed; the run's seed reaches the simulator).
  stack->scheduler = sia::MakeNamedScheduler(w.policy);
  if (traced) {
    auto timed = std::make_unique<TimedScheduler>(std::move(stack->scheduler));
    stack->timed = timed.get();
    stack->scheduler = std::move(timed);
  }
  stack->checks = std::make_unique<CheckObservers>(w);
  sia::SimOptions options;
  options.seed = seed;
  options.metrics = &stack->metrics;
  options.trace_timings = traced;
  options.observer = stack->checks.get();
  stack->sim = std::make_unique<sia::ClusterSimulator>(cluster, jobs, stack->scheduler.get(),
                                                       options);
  return stack;
}

// What one pass measured. The layer split is filled on a traced pass only.
struct PassTimes {
  double run_s = 0.0;
  uint64_t steps = 0;
  std::vector<double> round_ms;
  sia::SimResult result;
  double pre_s = 0.0, schedule_s = 0.0, place_s = 0.0, advance_s = 0.0, finalize_s = 0.0;
  std::vector<double> schedule_us;
};

// Runs a built stack to the end: StepRound() until it stops scheduling,
// then Finalize(), timing each StepRound() call. Time spent in the checks
// is left out of every figure.
PassTimes RunPass(SimStack& stack) {
  PassTimes out;
  const CheckObservers& checks = *stack.checks;
  TimedScheduler* policy = stack.timed;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::duration spent_before = checks.spent;
    if (policy != nullptr) {
      policy->called = false;
    }
    const Clock::time_point enter = Clock::now();
    const auto status = stack.sim->StepRound();
    const Clock::time_point done = Clock::now();
    const Clock::duration excluded = checks.spent - spent_before;
    ++out.steps;
    if (policy != nullptr && policy->called) {
      out.pre_s += Seconds(policy->enter - enter);
      out.schedule_s += Seconds(policy->exit - policy->enter);
      out.schedule_us.push_back(1e6 * Seconds(policy->exit - policy->enter));
      out.place_s += Seconds(checks.scheduled_at - policy->exit);
      out.advance_s += Seconds(done - checks.scheduled_at - excluded);
    }
    if (status != sia::ClusterSimulator::StepStatus::kRoundScheduled) {
      break;
    }
    out.round_ms.push_back(1e3 * Seconds(done - enter - excluded));
  }
  const Clock::duration spent_before = checks.spent;
  const Clock::time_point finalize_start = Clock::now();
  out.result = stack.sim->Finalize();
  const Clock::time_point end = Clock::now();
  out.finalize_s = Seconds(end - finalize_start - (checks.spent - spent_before));
  out.run_s = Seconds(end - start - checks.spent);
  return out;
}

// The noise seed of pass k of a run of `passes` passes: the seeds 1..passes,
// rotated by the run's seed.
uint64_t PassSeed(uint64_t seed, int k, int passes) {
  const uint64_t n = static_cast<uint64_t>(passes);
  return 1 + (seed % n + static_cast<uint64_t>(k)) % n;
}

double CounterMs(const sia::MetricsRegistry& m, const char* ns_counter) {
  return static_cast<double>(m.counter_value(ns_counter)) / 1e6;
}

void ReportLayers(const PassTimes& traced, const PassTimes& plain, const sia::MetricsRegistry& m,
                  double generate_ms, RunReport* report) {
  const double hits = static_cast<double>(m.counter_value("sia.candidate_cache_hits"));
  const double misses = static_cast<double>(m.counter_value("sia.candidate_cache_misses"));
  const sia::Histogram* fit_iterations = m.find_histogram("estimator.fit_iterations");
  report->Set("workload.generate_ms", generate_ms, "ms");
  report->Set("sim.pre_ms", 1e3 * traced.pre_s, "ms");
  report->Set("sim.advance_ms", 1e3 * traced.advance_s, "ms");
  report->Set("sim.finalize_ms", 1e3 * traced.finalize_s, "ms");
  report->Set("sim.rounds", static_cast<double>(m.counter_value("sim.rounds")), "count");
  report->Set("sim.round_p50_ms", Median(plain.round_ms), "ms");
  report->Set("sim.round_p98_ms", Quantile(plain.round_ms, kRoundTailQ), "ms");
  report->Set("schedulers.schedule_ms", 1e3 * traced.schedule_s, "ms");
  report->Set("schedulers.schedule_p50_us", Median(traced.schedule_us), "us");
  report->Set("cluster.place_ms", 1e3 * traced.place_s, "ms");
  report->Set("sia.candidate_gen_ms", CounterMs(m, "sia.candidate_gen_wall_ns"), "ms");
  report->Set("sia.lp_build_ms", CounterMs(m, "sia.lp_build_wall_ns"), "ms");
  report->Set("sia.solve_ms", CounterMs(m, "sia.solve_wall_ns"), "ms");
  report->Set("sia.placement_ms", CounterMs(m, "sia.placement_wall_ns"), "ms");
  report->Set("sia.candidate_cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Set("scheduler.ga_genomes_evaluated",
              static_cast<double>(m.counter_value("scheduler.ga_genomes_evaluated")), "count");
  for (const char* counter : {"solver.lp_iterations", "solver.bb_nodes", "solver.dual_pivots",
                              "solver.incremental_fallbacks", "estimator.refits"}) {
    report->Set(counter, static_cast<double>(m.counter_value(counter)), "count");
  }
  report->Set("estimator.fit_iterations", fit_iterations ? fit_iterations->sum() : 0.0, "count");
  report->Set("trace.overhead_s", traced.run_s - plain.run_s, "s");
}

}  // namespace

bool IsSimWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

RunReport RunSimWorkload(const RunArgs& args) {
  const SimWorkload& w = *FindWorkload(args.workload);
  RunReport report;
  CheckLog log;

  // --- set-up: trace generation, cluster, first simulator ---
  const Clock::time_point generate_start = Clock::now();
  sia::TraceOptions trace_options;
  trace_options.kind = w.trace;
  trace_options.seed = args.trace_seed;
  const std::vector<sia::JobSpec> jobs = sia::GenerateTrace(trace_options);
  const double generate_ms = 1e3 * SecondsSince(generate_start);
  const sia::ClusterSpec cluster = sia::MakeHeterogeneousCluster(1);
  const int passes = std::max(1, static_cast<int>(std::lround(args.seconds / w.pass_seconds)));
  std::unique_ptr<SimStack> first =
      BuildStack(w, cluster, jobs, PassSeed(args.seed, 0, passes), false);
  const double setup_s = SecondsSince(args.process_start);

  if (args.trace) {
    // --- per-layer run on the first noise seed: one plain pass, then the
    // same pass traced; both checked ---
    const PassTimes plain = RunPass(*first);
    first->checks->Verify(jobs, plain.result, cluster, &log);
    first.reset();
    auto stack = BuildStack(w, cluster, jobs, PassSeed(args.seed, 0, passes), true);
    const PassTimes traced = RunPass(*stack);
    stack->checks->Verify(jobs, traced.result, cluster, &log);
    CheckSameResult(plain.result, traced.result, "traced pass", &log);
    ReportLayers(traced, plain, stack->metrics, generate_ms, &report);
    report.attempted = plain.steps + traced.steps;
  } else {
    // --- measured passes, one per noise seed ---
    // Every run makes the same passes, so the figures span all of them:
    // run_s is their mean, and round_mean_ms pools every round of every pass.
    std::vector<double> run_s, round_ms;
    double jct = 0.0, makespan = 0.0, gpu_hours = 0.0;
    for (int k = 0; k < passes; ++k) {
      std::unique_ptr<SimStack> stack =
          k == 0 ? std::move(first)
                 : BuildStack(w, cluster, jobs, PassSeed(args.seed, k, passes), false);
      const PassTimes pass = RunPass(*stack);
      stack->checks->Verify(jobs, pass.result, cluster, &log);
      run_s.push_back(pass.run_s);
      round_ms.insert(round_ms.end(), pass.round_ms.begin(), pass.round_ms.end());
      std::cerr << "pass " << k + 1 << "/" << passes << " seed "
                << PassSeed(args.seed, k, passes)
                << ": run_s " << pass.run_s << " round_mean_ms " << Mean(pass.round_ms)
                << " round_p98_ms " << Quantile(pass.round_ms, kRoundTailQ) << "\n";
      jct += pass.result.AvgJctHours() / passes;
      makespan += pass.result.MakespanHours() / passes;
      gpu_hours += pass.result.AvgGpuHoursPerJob() / passes;
      report.attempted += pass.steps;
    }
    report.Set("setup_s", setup_s, "s");
    report.Set("run_s", Mean(run_s), "s");
    report.Set("round_mean_ms", Mean(round_ms), "ms");
    report.Set("peak_rss_mb", PeakRssMb("self"), "MB");
    report.Set("avg_jct_h", jct, "h");
    report.Set("makespan_h", makespan, "h");
    report.Set("gpu_hours_per_job", gpu_hours, "h");
  }
  report.failures = log.failures();
  report.correct = log.ok();
  return report;
}

}  // namespace perfbench
