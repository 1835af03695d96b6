// Shows that each output check of the benchmark passes on real program
// output and fails on a deliberately broken copy of it: a dropped job, an
// unfinished job, an over-full round, an off-by-one count, a duplicate ack,
// a changed results line. Exits 0 when every expectation holds.
//
//   perfbench_checks_test
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/src/checks.h"
#include "src/metrics/report.h"
#include "src/schedulers/sia/sia_scheduler.h"
#include "src/workload/trace_gen.h"

namespace {

int g_failures = 0;

template <typename Fn>
void Expect(const std::string& what, bool want_ok, Fn&& fill) {
  perfbench::CheckLog log;
  fill(&log);
  if (log.ok() != want_ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << ": expected " << (want_ok ? "pass" : "failure") << "\n";
    for (const std::string& f : log.failures()) {
      std::cerr << "  " << f << "\n";
    }
  } else {
    std::cout << "ok: " << what << "\n";
  }
}

// A small real run with the placement audit attached.
struct SmallRun {
  sia::ClusterSpec cluster = sia::MakeHeterogeneousCluster(1);
  std::vector<sia::JobSpec> jobs;
  perfbench::PlacementAudit audit;
  sia::SimResult result;

  SmallRun() {
    sia::TraceOptions trace;
    trace.duration_hours = 0.5;
    trace.seed = 3;
    jobs = sia::GenerateTrace(trace);
    sia::SiaScheduler scheduler;
    sia::SimOptions options;
    options.observer = &audit;
    sia::ClusterSimulator sim(cluster, jobs, &scheduler, options);
    result = sim.Run();
  }
};

}  // namespace

int main() {
  using perfbench::CheckLog;
  const SmallRun run;

  // --- every generated job finishes ---
  Expect("all jobs finished on real output", true,
         [&](CheckLog* log) { perfbench::CheckAllJobsFinished(run.jobs, run.result, log); });
  Expect("a dropped job is caught", false, [&](CheckLog* log) {
    sia::SimResult broken = run.result;
    broken.jobs.pop_back();
    perfbench::CheckAllJobsFinished(run.jobs, broken, log);
  });
  Expect("an unfinished job is caught", false, [&](CheckLog* log) {
    sia::SimResult broken = run.result;
    broken.jobs.front().finished = false;
    perfbench::CheckAllJobsFinished(run.jobs, broken, log);
  });
  Expect("a job reported twice is caught", false, [&](CheckLog* log) {
    sia::SimResult broken = run.result;
    broken.jobs.back() = broken.jobs.front();
    perfbench::CheckAllJobsFinished(run.jobs, broken, log);
  });

  // --- busy GPUs never exceed capacity ---
  Expect("capacity holds on real output", true,
         [&](CheckLog* log) { perfbench::CheckCapacity(run.audit, log); });
  Expect("an over-full round is caught", false, [&](CheckLog* log) {
    perfbench::PlacementAudit audit;
    sia::PlacerResult placed;
    const int type = 0;
    const int gpus = run.cluster.AvailableGpus(type) + 1;
    sia::Placement p;
    p.config = sia::Config{1, gpus, type};
    p.node_ids = {0};
    p.gpus_per_node = {gpus};
    placed.placements[7] = p;
    sia::RoundObservation observation;
    observation.cluster = &run.cluster;
    observation.placed = &placed;
    observation.round_duration_seconds = 60.0;
    audit.OnRoundScheduled(observation);
    perfbench::CheckCapacity(audit, log);
  });

  // --- GPU-seconds from placements agree with per-job gpu_seconds ---
  Expect("GPU-seconds agree on real output", true, [&](CheckLog* log) {
    perfbench::CheckGpuSeconds(run.audit.placed_gpu_seconds(), run.result, run.cluster, true, log);
  });
  Expect("a round missing from the placements is caught", false, [&](CheckLog* log) {
    auto placed = run.audit.placed_gpu_seconds();
    placed.begin()->second -= 60.0;
    perfbench::CheckGpuSeconds(placed, run.result, run.cluster, true, log);
  });
  Expect("a missing profiling charge is caught", false, [&](CheckLog* log) {
    perfbench::CheckGpuSeconds(run.audit.placed_gpu_seconds(), run.result, run.cluster, false,
                               log);
  });

  // --- timed passes reproduce the checked pass ---
  Expect("identical passes agree", true,
         [&](CheckLog* log) { perfbench::CheckSameResult(run.result, run.result, "pass", log); });
  Expect("a changed finish time is caught", false, [&](CheckLog* log) {
    sia::SimResult broken = run.result;
    broken.jobs[1].finish_time += 60.0;
    perfbench::CheckSameResult(run.result, broken, "pass", log);
  });

  // --- served cluster counters ---
  const perfbench::ServedClusterLog good{"c0", 120, 0, 20, 120, 20};
  Expect("matching served counts pass", true,
         [&](CheckLog* log) { perfbench::CheckServedCounts(good, log); });
  Expect("an off-by-one applied count is caught", false, [&](CheckLog* log) {
    perfbench::ServedClusterLog broken = good;
    broken.server_applied -= 1;
    perfbench::CheckServedCounts(broken, log);
  });
  Expect("a duplicate ack is caught", false, [&](CheckLog* log) {
    perfbench::ServedClusterLog broken = good;
    broken.duplicate_acks = 1;
    perfbench::CheckServedCounts(broken, log);
  });
  Expect("a lost arrival is caught", false, [&](CheckLog* log) {
    perfbench::ServedClusterLog broken = good;
    broken.server_arrivals -= 1;
    perfbench::CheckServedCounts(broken, log);
  });

  // --- served results.csv against the in-process run ---
  std::ostringstream csv;
  sia::WriteJobResultsCsv(csv, run.result);
  Expect("identical results.csv passes", true,
         [&](CheckLog* log) { perfbench::CheckSameCsv(csv.str(), csv.str(), "c0", log); });
  Expect("a dropped results line is caught", false, [&](CheckLog* log) {
    std::string broken = csv.str();
    broken.erase(broken.rfind('\n', broken.size() - 2) + 1);
    perfbench::CheckSameCsv(broken, csv.str(), "c0", log);
  });
  Expect("a changed results line is caught", false, [&](CheckLog* log) {
    std::string broken = csv.str();
    broken[broken.find('\n') + 1] ^= 1;
    perfbench::CheckSameCsv(broken, csv.str(), "c0", log);
  });

  std::cout << (g_failures == 0 ? "all checks behave\n" : "some checks misbehave\n");
  return g_failures == 0 ? 0 : 1;
}
