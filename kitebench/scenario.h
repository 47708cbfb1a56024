// The three benchmark workloads, each run on a freshly built Kite topology.
//
// A Rep is one complete run of a workload: build the topology (seeded
// schedule shuffle first), connect, warm, run the measured window, then
// quiesce and audit. Everything the benchmark reports about one run lands in
// the Rep, split by how it may be compared:
//   - `exact` holds simulated values and event counts. They depend only on
//     the seed, so two reps with the same seed, traced or not, must agree on
//     every one of them to the last bit.
//     Traced reps add per-site invocation counts ("site:<label>") and CPU
//     ledger categories ("cpu:<vcpu>:<category>").
//   - everything else is a host wall-clock measurement.
#ifndef KITEBENCH_SCENARIO_H_
#define KITEBENCH_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kitebench {

enum class Workload { kUdpStream, kKvTcp, kBlkRand };

struct Rep {
  // Host set-up spans (seconds): system construction through domain
  // creation and device attach; xenbus connect; workload warm-up.
  double create_s = 0;
  double connect_s = 0;
  double warm_s = 0;
  // Host wall time of the measured window, and host ns per op over each
  // full block of consecutive ops in it.
  double window_s = 0;
  std::vector<double> block_ns_per_op;

  uint64_t ops = 0;     // Operations attempted in the window.
  uint64_t failed = 0;  // Of those, lost / incomplete / errored.
  std::vector<std::string> errors;  // Correctness-check failures.

  // Deterministic per seed (see file comment). Keys are metric names.
  std::map<std::string, double> exact;
  // Traced reps only: host wall ns per dispatch site over the window, by
  // label (profiler at sample shift 0, so every dispatch is timed).
  std::map<std::string, uint64_t> site_wall_ns;

  double setup_s() const { return create_s + connect_s + warm_s; }
};

// Host wall clock (steady), in seconds.
double HostNow();

// One run of `workload`. `traced` turns on the dispatch profiler (sample
// shift 0) and CPU attribution for the measured window.
Rep RunRep(Workload workload, uint64_t seed, bool traced);

// Capacity search over UDP datagram rates (udp_stream only): the highest
// offered rate whose 100 ms probe loses at most 1% of datagrams, bracketed
// by a probe that loses more. Every probe runs on a fresh topology.
struct CapacityResult {
  double capacity_gbps = 0;
  int probes = 0;
  // The lowest failing probe: its offered rate and how many guest RX frames
  // belonged to datagrams that were delivered whole.
  double first_fail_gbps = 0;
  double useful_frame_ratio = 0;
  std::vector<std::string> errors;
};
CapacityResult SearchUdpCapacity(uint64_t seed, size_t datagram_bytes, double lo_gbps,
                                 double hi_gbps);

}  // namespace kitebench

#endif  // KITEBENCH_SCENARIO_H_
