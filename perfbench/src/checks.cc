#include "perfbench/src/checks.h"

#include <cmath>
#include <set>
#include <sstream>

#include "src/models/profile_db.h"

namespace perfbench {

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

void CheckLog::Fail(const std::string& what) { failures_.push_back(what); }

void PlacementAudit::OnRoundScheduled(const sia::RoundObservation& observation) {
  ++rounds_;
  const sia::ClusterSpec& cluster = *observation.cluster;
  std::vector<int> busy(static_cast<size_t>(cluster.num_gpu_types()), 0);
  for (const auto& [job_id, placement] : observation.placed->placements) {
    const int gpus = placement.total_gpus();
    busy[static_cast<size_t>(placement.config.gpu_type)] += gpus;
    placed_gpu_seconds_[job_id] += gpus * observation.round_duration_seconds;
  }
  for (int t = 0; t < cluster.num_gpu_types(); ++t) {
    if (busy[static_cast<size_t>(t)] > cluster.AvailableGpus(t)) {
      ++over_capacity_rounds_;
      break;
    }
  }
}

void CheckAllJobsFinished(const std::vector<sia::JobSpec>& jobs, const sia::SimResult& result,
                          CheckLog* log) {
  std::set<sia::JobId> expected;
  for (const sia::JobSpec& job : jobs) {
    expected.insert(job.id);
  }
  std::set<sia::JobId> seen;
  int unfinished = 0;
  for (const sia::JobResult& job : result.jobs) {
    if (!seen.insert(job.spec.id).second) {
      log->Fail("job " + std::to_string(job.spec.id) + " appears twice in the result");
    }
    if (expected.count(job.spec.id) == 0) {
      log->Fail("job " + std::to_string(job.spec.id) + " was never generated");
    }
    unfinished += job.finished ? 0 : 1;
  }
  if (seen.size() != expected.size()) {
    log->Fail("result holds " + std::to_string(seen.size()) + " jobs, " +
              std::to_string(expected.size()) + " were generated");
  }
  if (unfinished > 0) {
    log->Fail(std::to_string(unfinished) + " jobs did not finish");
  }
}

void CheckCapacity(const PlacementAudit& audit, CheckLog* log) {
  if (audit.rounds() == 0) {
    log->Fail("no scheduling round was observed");
  }
  if (audit.over_capacity_rounds() > 0) {
    log->Fail(std::to_string(audit.over_capacity_rounds()) +
              " rounds placed more GPUs than the cluster had available");
  }
}

void CheckGpuSeconds(const std::map<sia::JobId, double>& placed_gpu_seconds,
                     const sia::SimResult& result, const sia::ClusterSpec& cluster,
                     bool bootstrap_profiling, CheckLog* log) {
  int mismatches = 0;
  std::string first;
  for (const sia::JobResult& job : result.jobs) {
    double expected = 0.0;
    if (bootstrap_profiling && !sia::GetModelInfo(job.spec.model).hybrid_parallel) {
      for (int t = 0; t < cluster.num_gpu_types(); ++t) {
        if (sia::GetDeviceProfile(job.spec.model, cluster.gpu_type(t).name).available) {
          expected += kBootstrapProfileGpuSecondsPerType;
        }
      }
    }
    const auto it = placed_gpu_seconds.find(job.spec.id);
    if (it != placed_gpu_seconds.end()) {
      expected += it->second;
    }
    if (!Close(expected, job.gpu_seconds)) {
      if (mismatches++ == 0) {
        std::ostringstream out;
        out << "job " << job.spec.id << " reports " << job.gpu_seconds
            << " GPU-seconds, placements sum to " << expected;
        first = out.str();
      }
    }
  }
  for (const auto& [job_id, seconds] : placed_gpu_seconds) {
    bool known = false;
    for (const sia::JobResult& job : result.jobs) {
      known = known || job.spec.id == job_id;
    }
    if (!known) {
      ++mismatches;
      first = first.empty() ? "placed job " + std::to_string(job_id) + " has no result" : first;
    }
  }
  if (mismatches > 0) {
    log->Fail(std::to_string(mismatches) + " GPU-second mismatches; first: " + first);
  }
}

void CheckSameResult(const sia::SimResult& checked, const sia::SimResult& timed,
                     const std::string& what, CheckLog* log) {
  if (checked.jobs.size() != timed.jobs.size()) {
    log->Fail(what + ": " + std::to_string(timed.jobs.size()) + " job results, checked pass had " +
              std::to_string(checked.jobs.size()));
    return;
  }
  int differing = 0;
  for (size_t i = 0; i < checked.jobs.size(); ++i) {
    const sia::JobResult& a = checked.jobs[i];
    const sia::JobResult& b = timed.jobs[i];
    if (a.spec.id != b.spec.id || a.finished != b.finished || a.finish_time != b.finish_time ||
        a.jct != b.jct || a.gpu_seconds != b.gpu_seconds || a.num_restarts != b.num_restarts) {
      ++differing;
    }
  }
  if (differing > 0 || checked.makespan_seconds != timed.makespan_seconds) {
    log->Fail(what + ": " + std::to_string(differing) +
              " job results differ from the checked pass");
  }
}

void CheckServedCounts(const ServedClusterLog& cluster, CheckLog* log) {
  if (cluster.mutations_sent != cluster.server_applied) {
    log->Fail(cluster.name + ": client sent " + std::to_string(cluster.mutations_sent) +
              " mutations, server applied " + std::to_string(cluster.server_applied));
  }
  if (cluster.duplicate_acks > 0) {
    log->Fail(cluster.name + ": " + std::to_string(cluster.duplicate_acks) +
              " mutations acknowledged as duplicate");
  }
  if (cluster.jobs_submitted != cluster.server_arrivals) {
    log->Fail(cluster.name + ": " + std::to_string(cluster.jobs_submitted) +
              " jobs submitted, sim.job_arrivals is " + std::to_string(cluster.server_arrivals));
  }
}

void CheckSameCsv(const std::string& served, const std::string& reference,
                  const std::string& what, CheckLog* log) {
  const std::vector<std::string> a = SplitLines(served);
  const std::vector<std::string> b = SplitLines(reference);
  if (b.size() < 2) {
    log->Fail(what + ": reference results are empty");
    return;
  }
  size_t differing = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    differing += a[i] == b[i] ? 0 : 1;
  }
  if (differing > 0) {
    log->Fail(what + ": " + std::to_string(differing) + " of " + std::to_string(b.size()) +
              " results.csv lines differ from the in-process run");
  }
}

}  // namespace perfbench
