// Output checks of the end-to-end benchmark. Every check recomputes what it
// verifies from the program's outputs (per-round placements, per-job
// results, server counters) instead of comparing against a stored copy of an
// earlier run, and every check runs outside the timed region.
//
// The checks are plain functions over plain data so that
// tests/checks_test.cc can feed each one a deliberately broken input (a
// dropped job, an off-by-one count, an over-full round) and watch it fail.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster_spec.h"
#include "src/sim/sim_observer.h"
#include "src/sim/simulator.h"
#include "src/workload/job.h"

namespace perfbench {

// GPU-seconds the simulator charges a job for its initial bootstrap
// profiling sweep: one GPU of every type the model runs on (§5.7, ~0.1
// GPU-hours per job on the heterogeneous cluster).
inline constexpr double kBootstrapProfileGpuSecondsPerType = 20.0;

// Collects the failures of one run's checks.
class CheckLog {
 public:
  void Fail(const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Watches every scheduling round: counts rounds whose placed GPUs of some
// type exceed that type's available GPUs, and sums each job's placed
// GPU-seconds (GPUs granted x round length).
class PlacementAudit : public sia::SimObserver {
 public:
  void OnRoundScheduled(const sia::RoundObservation& observation) override;

  int64_t rounds() const { return rounds_; }
  int64_t over_capacity_rounds() const { return over_capacity_rounds_; }
  const std::map<sia::JobId, double>& placed_gpu_seconds() const { return placed_gpu_seconds_; }

 private:
  int64_t rounds_ = 0;
  int64_t over_capacity_rounds_ = 0;
  std::map<sia::JobId, double> placed_gpu_seconds_;
};

// Every generated job appears exactly once in the result, and finished.
void CheckAllJobsFinished(const std::vector<sia::JobSpec>& jobs, const sia::SimResult& result,
                          CheckLog* log);

// No round placed more GPUs of a type than the cluster had available.
void CheckCapacity(const PlacementAudit& audit, CheckLog* log);

// Each job's gpu_seconds equals the GPU-seconds summed from the rounds'
// placements plus, under bootstrap profiling, the profiling charge.
void CheckGpuSeconds(const std::map<sia::JobId, double>& placed_gpu_seconds,
                     const sia::SimResult& result, const sia::ClusterSpec& cluster,
                     bool bootstrap_profiling, CheckLog* log);

// Two passes over the same inputs and seed produced the same per-job
// outcome (the timed passes are compared against the checked pass).
void CheckSameResult(const sia::SimResult& checked, const sia::SimResult& timed,
                     const std::string& what, CheckLog* log);

// What the benchmark's client saw for one served cluster.
struct ServedClusterLog {
  std::string name;
  uint64_t mutations_sent = 0;   // submit_job + step_round requests acked ok.
  uint64_t duplicate_acks = 0;   // Acks carrying "duplicate": true.
  uint64_t jobs_submitted = 0;
  uint64_t server_applied = 0;   // query -> applied_count.
  uint64_t server_arrivals = 0;  // telemetry -> sim.job_arrivals.
};

// Server-side counters agree with the client's own count of what it sent,
// and no mutation was absorbed as a duplicate.
void CheckServedCounts(const ServedClusterLog& cluster, CheckLog* log);

// The served results.csv matches, line for line, the CSV of an in-process
// ClusterSimulator run on the same job list and seed.
void CheckSameCsv(const std::string& served, const std::string& reference,
                  const std::string& what, CheckLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
