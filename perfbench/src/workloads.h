// The benchmark's workloads. Each one builds its inputs from the run's
// seed, gets ready (timed from the process start as setup_s), repeats whole
// passes of the same operations until the measuring window is spent, and
// then checks the outputs outside the timed region.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;           // Simulator noise / policy RNG stream.
  uint64_t trace_seed = 1;     // Job-trace sample (the held-out check varies it).
  double seconds = 10.0;       // Measuring window; whole passes only.
  bool trace = false;          // Per-layer run instead of the end-to-end one.
  Clock::time_point process_start;
  std::string serve_binary;    // sia_serve executable (serve-sia only).
  std::string work_dir;        // Working directory for served state and sockets.
};

// philly-sia, newtrace-sia, philly-pollux.
bool IsSimWorkload(const std::string& name);
RunReport RunSimWorkload(const RunArgs& args);

// serve-sia.
RunReport RunServeWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
