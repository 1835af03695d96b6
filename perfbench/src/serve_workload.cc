// Served workload: sia_serve hosting a few Sia clusters, driven over its
// newline-delimited JSON protocol on a unix socket by one closed-loop
// client process with one connection per cluster. Live submit_job and
// step_round writes mix with query / telemetry / server_info reads, and one
// SIGKILL + restart lands at a fixed request count mid-run.
//
// The traced run drives the same request sequence through in-process
// HostedCluster objects instead, timing HandleRequest per op class,
// Snapshot, and Recover from outside.
#include <fcntl.h>
#include <signal.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/workloads.h"
#include "src/cluster/cluster_spec.h"
#include "src/metrics/report.h"
#include "src/service/client.h"
#include "src/service/engine.h"
#include "src/service/json.h"
#include "src/service/wire.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_gen.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sia::JsonValue;

constexpr size_t kClusters = 3;
constexpr int kReferenceThreads = 3;
constexpr double kTraceHours = 4.0;  // Philly submission window per cluster.
constexpr int kReadEvery = 2;          // One read after every second step.
constexpr uint64_t kCrashAtRequest = 700;  // SIGKILL + restart after this request.
constexpr int kSnapshotEvery = 8;      // In-process snapshot cadence (mutations).
// Nominal host seconds of one pass (README). A run of --seconds S makes
// round(S / kPassSeconds) passes, each with its own clusters.
constexpr double kPassSeconds = 6.0;
constexpr double kStepTailQ = 0.99;
constexpr double kSubmitTailQ = 0.90;

enum class OpClass { kSubmit, kStep, kRead };

// The request stream of a run, drawn from its seed: how far ahead of its
// cluster's clock each job is submitted, and which read follows a step.
// The served clusters (job traces and noise seeds) are the same in every
// run, so the seed varies the traffic and not the simulation behind it.
struct Traffic {
  double lookahead_s = 600.0;
  uint64_t read_seed = 0;
};

Traffic MakeTraffic(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Traffic traffic;
  traffic.lookahead_s = 300.0 + static_cast<double>(rng() % 601);
  traffic.read_seed = rng();
  return traffic;
}

struct ClusterPlan {
  std::string name;
  std::vector<sia::JobSpec> jobs;
  uint64_t seed = 1;
};

JsonValue JobToJson(const sia::JobSpec& job) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("id", JsonValue::MakeNumber(job.id));
  out.Set("name", JsonValue::MakeString(job.name));
  out.Set("model", JsonValue::MakeString(sia::ToString(job.model)));
  out.Set("submit_time", JsonValue::MakeNumber(job.submit_time));
  out.Set("adaptivity", JsonValue::MakeString(sia::ToString(job.adaptivity)));
  out.Set("fixed_bsz", JsonValue::MakeNumber(job.fixed_bsz));
  out.Set("rigid_num_gpus", JsonValue::MakeNumber(job.rigid_num_gpus));
  out.Set("max_num_gpus", JsonValue::MakeNumber(job.max_num_gpus));
  out.Set("preemptible", JsonValue::MakeBool(job.preemptible));
  return out;
}

JsonValue Request(const std::string& op, const std::string& cluster) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("op", JsonValue::MakeString(op));
  out.Set("cluster", JsonValue::MakeString(cluster));
  return out;
}

JsonValue CreateRequest(const ClusterPlan& plan) {
  JsonValue out = Request("create_cluster", plan.name);
  out.Set("scheduler", JsonValue::MakeString("sia"));
  out.Set("cluster_kind", JsonValue::MakeString("heterogeneous"));
  out.Set("trace", JsonValue::MakeString("none"));
  out.Set("seed", JsonValue::MakeNumber(static_cast<double>(plan.seed)));
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

struct Response {
  bool ok = false;
  int attempts = 1;
  std::string message;
  JsonValue body;
};

// Where the request sequence goes: a live sia_serve or in-process clusters.
class ServeTarget {
 public:
  virtual ~ServeTarget() = default;
  virtual Response Call(int cluster, JsonValue request) = 0;
  // Kills and restarts the service; returns seconds until every cluster is
  // hosted again.
  virtual double Crash() = 0;
  virtual std::string ResultsPath(const std::string& cluster) const = 0;
};

// --- sia_serve as a child process -------------------------------------

class WireTarget : public ServeTarget {
 public:
  WireTarget(std::string binary, std::string socket, std::string state_dir,
             const std::vector<ClusterPlan>& plans)
      : binary_(std::move(binary)),
        socket_(std::move(socket)),
        state_dir_(std::move(state_dir)) {
    for (const ClusterPlan& plan : plans) {
      names_.push_back(plan.name);
      sia::ClientOptions options;
      options.address = "unix:" + socket_;
      options.client_id = "bench-" + plan.name;
      options.seed = plan.seed;
      options.backoff_base_ms = 2;
      options.backoff_max_ms = 50;
      clients_.push_back(std::make_unique<sia::ServiceClient>(options));
    }
  }
  ~WireTarget() override { Kill(); }

  // Starts the server and creates every cluster.
  bool Start(const std::vector<ClusterPlan>& plans, std::string* error) {
    if (!Spawn(0, error)) {
      return false;
    }
    for (size_t c = 0; c < plans.size(); ++c) {
      const sia::ClientResult r = clients_[c]->Call(CreateRequest(plans[c]));
      if (!r.ok) {
        *error = "create_cluster " + plans[c].name + ": " + r.message;
        return false;
      }
    }
    return true;
  }

  Response Call(int cluster, JsonValue request) override {
    const sia::ClientResult r = clients_[static_cast<size_t>(cluster)]->Call(std::move(request));
    return Response{r.ok, r.attempts, r.message, r.response};
  }

  double Crash() override {
    Kill();
    const Clock::time_point start = Clock::now();
    std::string error;
    if (!Spawn(names_.size(), &error)) {
      crash_error_ = error;
    }
    return SecondsSince(start);
  }

  std::string ResultsPath(const std::string& cluster) const override {
    return state_dir_ + "/" + cluster + "/results.csv";
  }
  const std::string& state_dir() const { return state_dir_; }

  // Graceful shutdown request, then reap.
  void Stop() {
    if (pid_ <= 0) {
      return;
    }
    JsonValue request = JsonValue::MakeObject();
    request.Set("op", JsonValue::MakeString("shutdown"));
    std::string response;
    RecordPeakRss();
    RawCall(request.Dump(), &response);
    for (int i = 0; i < 10000 && pid_ > 0; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    Kill();
  }

  const std::string& crash_error() const { return crash_error_; }
  // Largest peak RSS of any sia_serve process this target ran.
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  void RecordPeakRss() {
    if (pid_ > 0) {
      peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb(std::to_string(pid_)));
    }
  }

  // Starts sia_serve and waits until server_info lists `expected` clusters.
  bool Spawn(size_t expected, std::string* error) {
    const std::string listen = "--listen=unix:" + socket_;
    const std::string state = "--state-dir=" + state_dir_;
    const std::string log = state_dir_ + ".log";
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // The server must not outlive the benchmark, even when it dies.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execl(binary_.c_str(), binary_.c_str(), listen.c_str(), state.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    JsonValue info = JsonValue::MakeObject();
    info.Set("op", JsonValue::MakeString("server_info"));
    const std::string frame = info.Dump();
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < 60.0) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "sia_serve exited during start-up (see " + log + ")";
        return false;
      }
      std::string response;
      JsonValue parsed;
      std::string parse_error;
      if (RawCall(frame, &response) && JsonValue::Parse(response, &parsed, &parse_error)) {
        const JsonValue* clusters = parsed.Find("clusters");
        if (clusters != nullptr && clusters->is_array() && clusters->size() == expected) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    *error = "sia_serve did not become ready within 60 s";
    return false;
  }

  // One unsequenced request on a fresh connection.
  bool RawCall(const std::string& frame, std::string* response) {
    std::string error;
    const int fd = sia::ConnectTo("unix:" + socket_, &error);
    if (fd < 0) {
      return false;
    }
    bool ok = sia::WriteFrame(fd, frame);
    if (ok) {
      sia::FrameReader reader(fd, 10000);
      ok = reader.ReadFrame(response) == sia::FrameStatus::kFrame;
    }
    ::close(fd);
    return ok;
  }

  void Kill() {
    RecordPeakRss();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  std::string binary_;
  std::string socket_;
  std::string state_dir_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<sia::ServiceClient>> clients_;
  pid_t pid_ = -1;
  double peak_rss_mb_ = 0.0;
  std::string crash_error_;
};

// --- in-process HostedCluster objects ----------------------------------

class InProcessTarget : public ServeTarget {
 public:
  // A timed target records every HandleRequest / Snapshot / Recover call;
  // an untimed one makes the same calls without reading the clock.
  InProcessTarget(std::string root, bool timed) : root_(std::move(root)), timed_(timed) {}

  bool Start(const std::vector<ClusterPlan>& plans, std::string* error) {
    for (const ClusterPlan& plan : plans) {
      sia::ClusterCreateSpec spec;
      if (!spec.FromJson(CreateRequest(plan), error)) {
        return false;
      }
      auto host = sia::HostedCluster::Create(root_, spec, error);
      if (host == nullptr) {
        return false;
      }
      names_.push_back(plan.name);
      hosts_.push_back(std::move(host));
      next_seq_.push_back(1);
      mutations_.push_back(0);
    }
    return true;
  }

  Response Call(int cluster, JsonValue request) override {
    const size_t c = static_cast<size_t>(cluster);
    std::string op = request.GetString("op", "");
    if (op == "server_info") {
      op = "query";  // A server-level op; the in-process stand-in is query.
      request.Set("op", JsonValue::MakeString(op));
    }
    const bool mutating = op == "submit_job" || op == "step_round";
    if (mutating) {
      request.Set("client", JsonValue::MakeString("bench-" + names_[c]));
      request.Set("seq", JsonValue::MakeNumber(static_cast<double>(next_seq_[c]++)));
    }
    const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
    const std::string frame = hosts_[c]->HandleRequest(request);
    if (timed_) {
      const double seconds = SecondsSince(start);
      (op == "submit_job" ? submit_us : op == "step_round" ? step_ms : read_us)
          .push_back(op == "step_round" ? 1e3 * seconds : 1e6 * seconds);
    }
    if (mutating && ++mutations_[c] % kSnapshotEvery == 0) {
      const Clock::time_point snap = timed_ ? Clock::now() : Clock::time_point{};
      std::string error;
      hosts_[c]->Snapshot(&error);
      if (timed_) {
        snapshot_ms.push_back(1e3 * SecondsSince(snap));
      }
    }
    Response out;
    std::string parse_error;
    out.ok = JsonValue::Parse(frame, &out.body, &parse_error) && out.body.GetBool("ok", false);
    out.message = out.body.GetString("message", parse_error);
    return out;
  }

  double Crash() override {
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < hosts_.size(); ++c) {
      hosts_[c].reset();
      const Clock::time_point one = Clock::now();
      std::string error;
      hosts_[c] = sia::HostedCluster::Recover(root_, names_[c], &error);
      recover_ms.push_back(1e3 * SecondsSince(one));
      if (hosts_[c] == nullptr) {
        crash_error_ = "recover " + names_[c] + ": " + error;
        return SecondsSince(start);
      }
    }
    return SecondsSince(start);
  }

  std::string ResultsPath(const std::string& cluster) const override {
    return root_ + "/" + cluster + "/results.csv";
  }
  const std::string& crash_error() const { return crash_error_; }

  std::vector<double> submit_us, step_ms, read_us, snapshot_ms, recover_ms;

 private:
  std::string root_;
  bool timed_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<sia::HostedCluster>> hosts_;
  std::vector<uint64_t> next_seq_;
  std::vector<uint64_t> mutations_;
  std::string crash_error_;
};

// --- the request sequence ----------------------------------------------

struct PassLog {
  double run_s = 0.0;
  double recover_s = 0.0;
  bool crashed = false;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  std::vector<double> submit_ms, step_ms, read_ms;
  std::vector<ServedClusterLog> clusters;
  std::vector<std::string> results_csv;
};

// Drives every cluster to its end, round robin: submit every job due
// within the lookahead, step one round, and read after every second step.
PassLog Drive(ServeTarget& target, const std::vector<ClusterPlan>& plans, const Traffic& traffic,
              CheckLog* log) {
  PassLog pass;
  struct State {
    size_t next = 0;
    double now = 0.0;
    bool done = false;
    uint64_t steps = 0;
  };
  std::vector<State> states(plans.size());
  for (const ClusterPlan& plan : plans) {
    pass.clusters.push_back(ServedClusterLog{plan.name});
  }

  auto send = [&](int c, JsonValue request, OpClass op) -> Response {
    const Clock::time_point start = Clock::now();
    Response r = target.Call(c, std::move(request));
    const double ms = 1e3 * SecondsSince(start);
    (op == OpClass::kSubmit ? pass.submit_ms : op == OpClass::kStep ? pass.step_ms : pass.read_ms)
        .push_back(ms);
    ++pass.requests;
    pass.retries += static_cast<uint64_t>(r.attempts - 1);
    ServedClusterLog& cl = pass.clusters[static_cast<size_t>(c)];
    if (!r.ok) {
      ++pass.failed;
      log->Fail(cl.name + ": request failed: " + r.message);
    } else if (op != OpClass::kRead) {
      ++cl.mutations_sent;
      cl.duplicate_acks += r.body.GetBool("duplicate", false) ? 1 : 0;
    }
    if (pass.requests == kCrashAtRequest) {
      pass.recover_s = target.Crash();
      pass.crashed = true;
    }
    return r;
  };

  const Clock::time_point start = Clock::now();
  size_t remaining = plans.size();
  std::mt19937_64 reads(traffic.read_seed);
  while (remaining > 0) {
    for (size_t c = 0; c < plans.size(); ++c) {
      State& s = states[c];
      if (s.done) {
        continue;
      }
      const std::vector<sia::JobSpec>& jobs = plans[c].jobs;
      // The next round may idle-skip to the first future arrival, so the
      // lookahead extends past it: no job is submitted after the clock
      // reaches its submit time, and the queue never drains early.
      double horizon = s.now + traffic.lookahead_s;
      for (size_t k = s.next; k < jobs.size(); ++k) {
        if (jobs[k].submit_time > s.now) {
          horizon = std::max(horizon, jobs[k].submit_time + traffic.lookahead_s);
          break;
        }
      }
      while (s.next < jobs.size() && jobs[s.next].submit_time <= horizon) {
        JsonValue request = Request("submit_job", plans[c].name);
        request.Set("job", JobToJson(jobs[s.next]));
        if (send(static_cast<int>(c), std::move(request), OpClass::kSubmit).ok) {
          ++pass.clusters[c].jobs_submitted;
        }
        ++s.next;
      }
      JsonValue step = Request("step_round", plans[c].name);
      step.Set("rounds", JsonValue::MakeNumber(1));
      const Response r = send(static_cast<int>(c), std::move(step), OpClass::kStep);
      s.now = r.body.GetNumber("now_seconds", s.now);
      if (!r.ok || r.body.GetBool("finalized", false)) {
        if (s.next < jobs.size()) {
          log->Fail(plans[c].name + " finalized with " + std::to_string(jobs.size() - s.next) +
                    " jobs not yet submitted");
        }
        s.done = true;
        --remaining;
        continue;
      }
      if (++s.steps % kReadEvery == 0) {
        static const char* kReads[] = {"query", "telemetry", "server_info"};
        send(static_cast<int>(c), Request(kReads[reads() % 3], plans[c].name), OpClass::kRead);
      }
    }
  }
  pass.run_s = SecondsSince(start);
  if (!pass.crashed) {
    log->Fail("the run ended before the mid-run crash at request " +
              std::to_string(kCrashAtRequest));
  }

  // Server-side counters and results, read back outside the timed region.
  for (size_t c = 0; c < plans.size(); ++c) {
    ServedClusterLog& cl = pass.clusters[c];
    const Response query = target.Call(static_cast<int>(c), Request("query", cl.name));
    cl.server_applied = static_cast<uint64_t>(query.body.GetNumber("applied_count", -1));
    const Response telemetry = target.Call(static_cast<int>(c), Request("telemetry", cl.name));
    JsonValue metrics;
    std::string error;
    if (JsonValue::Parse(telemetry.body.GetString("metrics_json", ""), &metrics, &error)) {
      if (const JsonValue* counters = metrics.Find("counters")) {
        cl.server_arrivals = counters->GetUInt64("sim.job_arrivals", 0);
      }
    }
    pass.results_csv.push_back(ReadFile(target.ResultsPath(cl.name)));
  }
  return pass;
}

// The clusters of pass k: fixed job traces, and noise seeds that differ
// from pass to pass but not from run to run.
std::vector<ClusterPlan> MakePlans(const RunArgs& args, int k) {
  std::vector<ClusterPlan> plans;
  for (size_t c = 0; c < kClusters; ++c) {
    sia::TraceOptions trace;
    trace.kind = sia::TraceKind::kPhilly;
    trace.duration_hours = kTraceHours;
    trace.seed = args.trace_seed + static_cast<uint64_t>(c);
    plans.push_back(ClusterPlan{"c" + std::to_string(c), sia::GenerateTrace(trace),
                                1000 + static_cast<uint64_t>(k) * kClusters + c});
  }
  return plans;
}

// In-process ClusterSimulator runs on the same job lists and seeds, one per
// served cluster. They are checks, made after the measured passes, so they
// may share the cores.
std::vector<sia::SimResult> ReferenceRuns(const std::vector<const ClusterPlan*>& plans) {
  std::vector<sia::SimResult> out(plans.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < plans.size(); i = next++) {
      auto scheduler = sia::MakeNamedScheduler("sia");
      sia::SimOptions options;
      options.seed = plans[i]->seed;
      sia::ClusterSimulator sim(sia::MakeHeterogeneousCluster(1), plans[i]->jobs, scheduler.get(),
                                options);
      out[i] = sim.Run();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return out;
}

std::string ResultsCsv(const sia::SimResult& result) {
  std::ostringstream out;
  sia::WriteJobResultsCsv(out, result);
  return out.str();
}

void CheckPass(const PassLog& pass, const std::vector<std::string>& reference_csv,
               const std::string& what, CheckLog* log) {
  for (size_t c = 0; c < pass.clusters.size(); ++c) {
    CheckServedCounts(pass.clusters[c], log);
    CheckSameCsv(pass.results_csv[c], reference_csv[c], what + " " + pass.clusters[c].name, log);
  }
}

}  // namespace

RunReport RunServeWorkload(const RunArgs& args) {
  RunReport report;
  CheckLog log;
  const int passes =
      args.trace ? 1 : std::max(1, static_cast<int>(std::lround(args.seconds / kPassSeconds)));
  const Traffic traffic = MakeTraffic(args.seed);
  std::vector<std::vector<ClusterPlan>> pass_plans;
  for (int k = 0; k < passes; ++k) {
    pass_plans.push_back(MakePlans(args, k));
  }
  fs::create_directories(args.work_dir);
  const std::string socket = args.work_dir + "/s.sock";
  std::string error;
  auto start = [&](int k) -> std::unique_ptr<WireTarget> {
    const std::vector<ClusterPlan>& plans = pass_plans[static_cast<size_t>(k)];
    auto target = std::make_unique<WireTarget>(
        args.serve_binary, socket, args.work_dir + "/state-" + std::to_string(k), plans);
    return target->Start(plans, &error) ? std::move(target) : nullptr;
  };

  // --- set-up: start sia_serve and create the clusters ---
  std::unique_ptr<WireTarget> target = start(0);
  if (target == nullptr) {
    fs::remove_all(args.work_dir);
    report.correct = false;
    report.failures.push_back("set-up: " + error);
    return report;
  }
  const double setup_s = SecondsSince(args.process_start);

  // --- measured passes over the wire: each pass serves fresh clusters
  // with their own noise seeds ---
  std::vector<PassLog> logs;
  double peak_rss_mb = 0.0;
  uint64_t state_bytes = 0;
  for (int k = 0; k < passes && log.ok(); ++k) {
    if (target == nullptr && (target = start(k)) == nullptr) {
      log.Fail("start for pass " + std::to_string(k + 1) + ": " + error);
      break;
    }
    logs.push_back(Drive(*target, pass_plans[static_cast<size_t>(k)], traffic, &log));
    if (!target->crash_error().empty()) {
      log.Fail("restart: " + target->crash_error());
    }
    state_bytes = DirectoryBytes(target->state_dir());
    target->Stop();
    peak_rss_mb = std::max(peak_rss_mb, target->peak_rss_mb());
    fs::remove_all(target->state_dir());
    target.reset();
  }

  // --- checks against in-process reference runs ---
  std::vector<const ClusterPlan*> served;
  for (size_t p = 0; p < logs.size(); ++p) {
    for (const ClusterPlan& plan : pass_plans[p]) {
      served.push_back(&plan);
    }
  }
  const std::vector<sia::SimResult> reference = ReferenceRuns(served);
  // As on the simulator workloads, run_s is the mean pass and
  // round_mean_ms pools every step of every pass.
  std::vector<double> run_s, step_ms;
  for (size_t p = 0; p < logs.size(); ++p) {
    std::vector<std::string> reference_csv;
    for (size_t c = 0; c < kClusters; ++c) {
      reference_csv.push_back(ResultsCsv(reference[p * kClusters + c]));
    }
    CheckPass(logs[p], reference_csv, "pass " + std::to_string(p + 1), &log);
    if (!HasTenBeyond(logs[p].step_ms.size(), kStepTailQ) ||
        !HasTenBeyond(logs[p].submit_ms.size(), kSubmitTailQ)) {
      log.Fail("pass " + std::to_string(p + 1) + " has fewer than ten samples beyond a tail");
    }
    run_s.push_back(logs[p].run_s);
    step_ms.insert(step_ms.end(), logs[p].step_ms.begin(), logs[p].step_ms.end());
    std::cerr << "pass " << p + 1 << "/" << passes << ": run_s " << logs[p].run_s
              << " steps " << logs[p].step_ms.size() << " submits " << logs[p].submit_ms.size()
              << " reads " << logs[p].read_ms.size() << " step_mean_ms " << Mean(logs[p].step_ms)
              << " recover_s " << logs[p].recover_s << "\n";
    report.attempted += logs[p].requests;
    report.failed += logs[p].failed;
  }
  if (logs.size() != static_cast<size_t>(passes)) {
    log.Fail(std::to_string(passes - static_cast<int>(logs.size())) + " passes did not run");
  }

  if (!args.trace) {
    double jct = 0, gpu_hours = 0, makespan = 0;
    size_t jobs = 0;
    for (const sia::SimResult& r : reference) {
      for (const sia::JobResult& job : r.jobs) {
        jct += job.jct / 3600.0;
        gpu_hours += job.gpu_seconds / 3600.0;
      }
      jobs += r.jobs.size();
      makespan += r.MakespanHours();
    }
    report.Set("setup_s", setup_s, "s");
    report.Set("run_s", Mean(run_s), "s");
    report.Set("round_mean_ms", Mean(step_ms), "ms");
    report.Set("peak_rss_mb", peak_rss_mb, "MB");
    report.Set("avg_jct_h", jct / static_cast<double>(std::max<size_t>(jobs, 1)), "h");
    report.Set("makespan_h", makespan / static_cast<double>(std::max<size_t>(reference.size(), 1)),
               "h");
    report.Set("gpu_hours_per_job", gpu_hours / static_cast<double>(std::max<size_t>(jobs, 1)),
               "h");
  } else if (!logs.empty()) {
    // --- per-layer run: the same sequence through in-process clusters,
    // once plain and once with every engine call timed ---
    const std::vector<ClusterPlan>& plans = pass_plans[0];
    std::vector<std::string> reference_csv;
    for (size_t c = 0; c < kClusters; ++c) {
      reference_csv.push_back(ResultsCsv(reference[c]));
    }
    double plain_run_s = 0.0;
    std::unique_ptr<InProcessTarget> timed;
    for (int round = 0; round < 2; ++round) {
      const std::string root = args.work_dir + "/inproc-" + std::to_string(round);
      auto local = std::make_unique<InProcessTarget>(root, /*timed=*/round == 1);
      if (!local->Start(plans, &error)) {
        log.Fail("in-process set-up: " + error);
        break;
      }
      const PassLog pass = Drive(*local, plans, traffic, &log);
      if (!local->crash_error().empty()) {
        log.Fail(local->crash_error());
      }
      CheckPass(pass, reference_csv, "in-process pass", &log);
      fs::remove_all(root);
      if (round == 0) {
        plain_run_s = pass.run_s;
      } else {
        report.Set("trace.overhead_s", pass.run_s - plain_run_s, "s");
        timed = std::move(local);
      }
    }
    const PassLog& wire = logs.front();
    if (timed != nullptr) {
      report.Set("service.handle_submit_us", Median(timed->submit_us), "us");
      report.Set("service.handle_step_ms", Median(timed->step_ms), "ms");
      report.Set("service.handle_read_us", Median(timed->read_us), "us");
      report.Set("service.transport_us",
                 1e3 * Median(wire.submit_ms) - Median(timed->submit_us), "us");
      report.Set("snapshot.write_ms", Median(timed->snapshot_ms), "ms");
      report.Set("snapshot.recover_ms", Median(timed->recover_ms), "ms");
    }
    report.Set("service.retries", static_cast<double>(wire.retries), "count");
    report.Set("service.state_bytes", static_cast<double>(state_bytes), "bytes");
    report.Set("serve.submit_p50_ms", Median(wire.submit_ms), "ms");
    report.Set("serve.submit_tail_ms", Quantile(wire.submit_ms, kSubmitTailQ), "ms");
    report.Set("serve.step_p50_ms", Median(wire.step_ms), "ms");
    report.Set("serve.step_tail_ms", Quantile(wire.step_ms, kStepTailQ), "ms");
    report.Set("serve.read_p50_ms", Median(wire.read_ms), "ms");
    report.Set("serve.recover_s", wire.recover_s, "s");
  }
  fs::remove_all(args.work_dir);
  report.failures = log.failures();
  report.correct = log.ok() && report.failed == 0;
  return report;
}

}  // namespace perfbench
