// kitebench: the repository benchmark.
//
//   kitebench --workload udp_stream|kv_tcp|blk_rand --seed N --seconds S --trace 0|1
//
// Runs one workload against the Kite personality, repeating it on fresh
// topologies for about S host seconds, and prints a human report followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, measured with all telemetry off; with
// --trace 1 they are the per-layer set, from reps that alternate untraced and
// traced (dispatch profiler at sample shift 0, CPU attribution on). See
// README.md beside this file for what each metric means and which layer it
// belongs to.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kitebench/scenario.h"

namespace kitebench {
namespace {

// Every run makes at least this many reps per mode, so the same-seed and
// traced-vs-untraced determinism checks always have pairs to compare.
constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 2000;

// The host minimums (setup_s, host_ns_per_op) are taken over a run's first
// HostSampleReps() untraced reps, and every run makes at least that many. A fixed sample
// keeps the minimum independent of host speed and of how long the capacity
// searches took; later reps only add to the correctness checks. Each count
// is below the reps a 30-second run made on the reference host in its
// slowest stretch, so there a run's length is set by --seconds.
size_t HostSampleReps(Workload workload) {
  switch (workload) {
    case Workload::kUdpStream:
      return 20;
    case Workload::kKvTcp:
      return 20;
    case Workload::kBlkRand:
      return 300;
  }
  return kMinReps;
}

// udp_stream capacity searches: datagram sizes and starting brackets (Gbps);
// the search widens a bracket when a later change moves capacity outside.
constexpr size_t kCapLargeBytes = 8192, kCapSmallBytes = 64;
constexpr double kCapLargeLo = 8.0, kCapLargeHi = 8.8;
constexpr double kCapSmallLo = 0.40, kCapSmallHi = 0.50;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host times in the end-to-end set are minimums over a fixed sample:
// setup_s over reps, host_ns_per_op over blocks of consecutive ops. On a
// shared host the same work ran up to 1.8x slower for stretches of seconds to
// minutes; any median or quartile follows those stretches, the fastest block
// much less. See README.md for the measured spreads.
double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Exact(const Rep& rep, const std::string& key) {
  const auto it = rep.exact.find(key);
  return it == rep.exact.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

// Dispatch sites map onto the repository's modules by label prefix. Sites do
// not nest, so the layers' wall times plus executor overhead add up to the
// window's wall time.
const char* LayerOf(const std::string& site) {
  static const std::pair<const char*, const char*> kMap[] = {
      {"hv/", "hv"},           {"xenstore/", "hv"},      {"bmk/", "bmk"},
      {"nic/", "net"},         {"net/", "net"},          {"stack/", "net"},
      {"tcp/", "net"},         {"netback/", "netdrv"},   {"netfront/", "netdrv"},
      {"blkback/", "blkdrv"},  {"blkfront/", "blkdrv"},  {"disk/", "blk"},
      {"netbench/", "app"},    {"memcached/", "app"},    {"kitebench/", "app"},
      {"health/", "obs"},      {"obs/", "obs"},
  };
  for (const auto& [prefix, layer] : kMap) {
    if (StartsWith(site, prefix)) {
      return layer;
    }
  }
  return "other";
}

// Host ns per op spent in sites whose label passes `keep`, in one traced rep.
double SiteNsPerOp(const Rep& rep, const std::function<bool(const std::string&)>& keep) {
  double ns = 0;
  for (const auto& [label, wall_ns] : rep.site_wall_ns) {
    if (keep(label)) {
      ns += static_cast<double>(wall_ns);
    }
  }
  return Ratio(ns, static_cast<double>(rep.ops));
}

double WindowNsPerOp(const Rep& rep) {
  return Ratio(rep.window_s * 1e9, static_cast<double>(rep.ops));
}

// Simulated busy ns on one vCPU's ledger in categories starting with
// `prefix` ("" = all), from a traced rep.
double LedgerNs(const Rep& rep, const std::string& who, const std::string& prefix) {
  const std::string key = "cpu:" + who + ":" + prefix;
  double ns = 0;
  for (auto it = rep.exact.lower_bound(key);
       it != rep.exact.end() && StartsWith(it->first, key.c_str()); ++it) {
    ns += it->second;
  }
  return ns;
}

// Same-seed reps must agree on every exact value. `ref` must be a subset of
// `other` (traced reps add site counts and ledgers); with `same_mode` the key
// sets must also be equal.
void CompareExact(const Rep& ref, const Rep& other, bool same_mode, const std::string& what,
                  std::vector<std::string>* errors) {
  int reported = 0;
  for (const auto& [key, value] : ref.exact) {
    const auto it = other.exact.find(key);
    if (it == other.exact.end() || it->second != value) {
      if (reported++ < 5) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "determinism (%s): %s = %.17g vs %s", what.c_str(),
                      key.c_str(), value,
                      it == other.exact.end() ? "missing"
                                              : std::to_string(it->second).c_str());
        errors->push_back(buf);
      }
    }
  }
  if (same_mode && ref.exact.size() != other.exact.size()) {
    errors->push_back("determinism (" + what + "): different sets of exact values");
  }
}

// FNV-1a over every exact value of a rep, printed so that two processes run
// with the same seed can be compared as well.
uint64_t ExactDigest(const Rep& rep) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [key, value] : rep.exact) {
    char buf[320];
    const int n = std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key.c_str(), value);
    for (int i = 0; i < n && i < static_cast<int>(sizeof(buf)); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ULL;
    }
  }
  return h;
}

// The process's resident-set high-water mark (VmHWM). getrusage's ru_maxrss
// is not used: Linux folds the pre-exec image of the parent that spawned us
// into it, so it read 4.6 MiB higher when started from Python.
double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  std::string workload_name;
  Workload workload = Workload::kUdpStream;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opts) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload_name = value;
      have_workload = true;
      if (value == "udp_stream") {
        opts->workload = Workload::kUdpStream;
      } else if (value == "kv_tcp") {
        opts->workload = Workload::kKvTcp;
      } else if (value == "blk_rand") {
        opts->workload = Workload::kBlkRand;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opts->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opts->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: kitebench --workload udp_stream|kv_tcp|blk_rand --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const bool udp = opts.workload == Workload::kUdpStream;
  const double deadline = HostNow() + opts.seconds;
  std::printf("kitebench: workload %s, seed %llu, %.0f s, trace %d\n",
              opts.workload_name.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);

  // --- Reps: untraced only, or alternating untraced/traced. ---
  std::vector<Rep> plain, traced;
  double last_rep_s = 0;
  auto run = [&](bool tr) {
    const double t0 = HostNow();
    (tr ? traced : plain).push_back(RunRep(opts.workload, opts.seed, tr));
    last_rep_s = HostNow() - t0;
  };
  run(false);
  // Peak RSS of one rep. Later reps reuse the heap, but its high-water mark
  // still creeps with their number, which depends on host speed; the
  // capacity probes' heap use varies with the seed.
  const double peak_rss_mb = PeakRssMiB();
  CapacityResult cap8k, cap64;
  if (udp) {
    cap8k = SearchUdpCapacity(opts.seed, kCapLargeBytes, kCapLargeLo, kCapLargeHi);
    cap64 = SearchUdpCapacity(opts.seed, kCapSmallBytes, kCapSmallLo, kCapSmallHi);
  }
  const double cap64_kpps = cap64.capacity_gbps * 1e9 / (kCapSmallBytes * 8) / 1e3;
  const size_t host_sample_reps = HostSampleReps(opts.workload);
  for (;;) {
    const bool enough = plain.size() >= std::max(kMinReps, host_sample_reps) &&
                        (!opts.trace || traced.size() >= kMinReps);
    if ((enough && HostNow() + last_rep_s > deadline) ||
        plain.size() + traced.size() >= kMaxReps) {
      break;
    }
    run(opts.trace && traced.size() < plain.size());
  }

  // --- Correctness: per-rep checks, capacity probes, determinism. ---
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& rep : *reps) {
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      attempted += rep.ops;
      failed += rep.failed;
    }
  }
  errors.insert(errors.end(), cap8k.errors.begin(), cap8k.errors.end());
  errors.insert(errors.end(), cap64.errors.begin(), cap64.errors.end());
  const Rep& ref = plain.front();
  for (size_t i = 1; i < plain.size(); ++i) {
    CompareExact(ref, plain[i], true, "untraced reps", &errors);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    CompareExact(ref, traced[i], false, "untraced vs traced", &errors);
    if (i > 0) {
      CompareExact(traced.front(), traced[i], true, "traced reps", &errors);
    }
  }
  const double latency_samples = Exact(ref, "sim.latency_samples");
  if (latency_samples < 10000) {
    errors.push_back("fewer than 10000 latency samples in the window");
  }

  // --- End-to-end metrics (untraced reps). ---
  std::vector<double> setup, create, connect, warm, blocks, traced_blocks;
  for (size_t i = 0; i < plain.size() && i < host_sample_reps; ++i) {
    const Rep& rep = plain[i];
    setup.push_back(rep.setup_s());
    create.push_back(rep.create_s);
    connect.push_back(rep.connect_s);
    warm.push_back(rep.warm_s);
    blocks.insert(blocks.end(), rep.block_ns_per_op.begin(), rep.block_ns_per_op.end());
  }
  for (const Rep& rep : traced) {
    traced_blocks.insert(traced_blocks.end(), rep.block_ns_per_op.begin(),
                         rep.block_ns_per_op.end());
  }
  if (blocks.empty()) {
    errors.push_back("no complete block of ops in any window");
  }
  const double host_ns_per_op = Min(blocks);
  const double ops = static_cast<double>(ref.ops);
  const double fail_pct =
      Ratio(100.0 * static_cast<double>(failed), static_cast<double>(attempted));
  const std::vector<Metric> end_to_end = {
      {"setup_s", Min(setup), "s"},
      {"host_ns_per_op", host_ns_per_op, "ns"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"driver_cpu_ns_per_byte", Exact(ref, "driver_cpu_ns_per_byte"), "ns/B"},
      {"sim_capacity_gbps", udp ? cap8k.capacity_gbps : Exact(ref, "sim_capacity_gbps"),
       "Gbps"},
      {"sim_capacity_kpps", udp ? cap64_kpps : Exact(ref, "sim_capacity_kpps"), "kop/s"},
      {"sim_p50_us", Exact(ref, "sim_p50_us"), "us"},
      {"sim_p999_us", Exact(ref, "sim_p999_us"), "us"},
  };

  std::printf("\nreps: %zu untraced, %zu traced; %llu ops attempted, %llu failed "
              "(fail_pct %.4f%%); %llu latency samples per window\n",
              plain.size(), traced.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), fail_pct,
              static_cast<unsigned long long>(latency_samples));
  std::printf("exact-value digest: untraced %016llx",
              static_cast<unsigned long long>(ExactDigest(ref)));
  if (!traced.empty()) {
    std::printf(", traced %016llx",
                static_cast<unsigned long long>(ExactDigest(traced.front())));
  }
  std::printf(" (%zu values)\n", ref.exact.size());
  if (udp) {
    std::printf("capacity %zu B: %.4f Gbps (%d probes; lowest failing probe %.4f Gbps)\n",
                kCapLargeBytes, cap8k.capacity_gbps, cap8k.probes, cap8k.first_fail_gbps);
    std::printf("capacity %zu B: %.4f Gbps = %.1f kpps (%d probes; lowest failing %.4f Gbps)\n",
                kCapSmallBytes, cap64.capacity_gbps, cap64_kpps, cap64.probes,
                cap64.first_fail_gbps);
  }
  if (!blocks.empty()) {
    std::vector<double> sorted = blocks;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    std::printf(
        "host ns/op over %zu blocks of ops in the first %zu untraced reps: min %.0f, "
        "quartiles %.0f / %.0f / %.0f, max %.0f\n",
        n, setup.size(), sorted.front(), sorted[n / 4], Median(sorted), sorted[(3 * n) / 4],
        sorted.back());
  }
  std::printf("\n%-34s %16s  %s\n", "end-to-end metric", "value", "unit");
  for (const Metric& m : end_to_end) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> per_layer;
  if (opts.trace) {
    // Host numbers are medians over the traced reps; exact ones come from
    // the first traced rep (every traced rep agrees on them, checked above).
    const Rep& t = traced.front();
    auto traced_median = [&](const std::function<double(const Rep&)>& f) {
      std::vector<double> v;
      for (const Rep& rep : traced) {
        v.push_back(f(rep));
      }
      return Median(v);
    };
    auto layer_ns = [&](const char* layer) {
      return traced_median([layer](const Rep& rep) {
        return SiteNsPerOp(
            rep, [layer](const std::string& s) { return std::strcmp(LayerOf(s), layer) == 0; });
      });
    };
    auto prefix_ns = [&](const char* prefix) {
      return traced_median([prefix](const Rep& rep) {
        return SiteNsPerOp(rep, [prefix](const std::string& s) { return StartsWith(s, prefix); });
      });
    };
    auto per_op = [&](const std::string& key) { return Ratio(Exact(t, key), ops); };
    const double driver_ns = LedgerNs(t, "driver", "");
    const double untraced_ns = Median(blocks);
    per_layer = {
        {"fail_pct", fail_pct, "%"},
        {"sim.events_per_op", per_op("sim.events"), "count"},
        {"sim.latency_samples", Exact(t, "sim.latency_samples"), "count"},
        {"sim.host_ns_per_event", Ratio(host_ns_per_op, Exact(t, "sim.events") / ops), "ns"},
        {"sim.executor_overhead_ns_per_op",
         traced_median([](const Rep& rep) {
           return WindowNsPerOp(rep) - SiteNsPerOp(rep, [](const std::string&) { return true; });
         }),
         "ns"},
        {"cpu.driver_util", Exact(t, "cpu.driver_util"), "ratio"},
        {"cpu.guest_util", Exact(t, "cpu.guest_util"), "ratio"},
        {"cpu.driver_runq_wait_p99_ns", Exact(t, "cpu.driver_runq_wait_p99_ns"), "ns"},
        {"hv.hypercalls_per_op", per_op("count:hv/hypercall/issued"), "count"},
        {"hv.grant_copies_per_op", per_op("count:hv/grant/copies"), "count"},
        {"hv.grant_copy_bytes_per_op", per_op("count:hv/grant/copy_bytes"), "B"},
        {"hv.grant_maps_per_op", per_op("count:hv/grant/maps"), "count"},
        {"hv.evtchn_sent_per_op", per_op("count:hv/evtchn/sent"), "count"},
        {"hv.grant_copy_share", Ratio(LedgerNs(t, "driver", "hv/grant_copy"), driver_ns), "ratio"},
        {"hv.share", Ratio(LedgerNs(t, "driver", "hv/"), driver_ns), "ratio"},
        {"hv.evtchn_host_ns_per_op", prefix_ns("hv/evtchn-notify"), "ns"},
        {"hv.host_ns_per_op", layer_ns("hv"), "ns"},
        {"bmk.wakeups_per_op", per_op("site:bmk/timer-wake"), "count"},
        {"bmk.host_ns_per_op", layer_ns("bmk"), "ns"},
        {"net.wire_frames_per_op", per_op("site:nic/wire-arrival"), "count"},
        {"net.rx_irqs_per_op", per_op("site:nic/rx-irq"), "count"},
        {"net.tcp_timer_events_per_op",
         Ratio(Exact(t, "site:tcp/rto") + Exact(t, "site:tcp/delayed-ack"), ops), "count"},
        {"net.tcp_retransmits_per_kop", 1000 * per_op("count:tcp/retransmits"), "count"},
        {"net.host_ns_per_op", layer_ns("net"), "ns"},
        {"net.tcp_host_ns_per_op", prefix_ns("tcp/"), "ns"},
        {"netdrv.guest_rx_frames_per_op", per_op("count:guest_rx_frames"), "count"},
        {"netdrv.guest_tx_frames_per_op", per_op("count:guest_tx_frames"), "count"},
        {"netdrv.rx_queue_drops_per_kop", 1000 * per_op("count:rx_queue_drops"), "count"},
        {"netdrv.rx_queue_ns_p50", Exact(t, "stage:rx_queue_ns:p50"), "ns"},
        {"netdrv.rx_queue_ns_p99", Exact(t, "stage:rx_queue_ns:p99"), "ns"},
        {"netdrv.tx_queue_ns_p99", Exact(t, "stage:tx_queue_ns:p99"), "ns"},
        {"netdrv.tx_complete_ns_p99", Exact(t, "stage:tx_complete_ns:p99"), "ns"},
        {"netdrv.rx_service_ns_p50", Exact(t, "stage:rx_service_ns:p50"), "ns"},
        {"netdrv.tx_service_ns_p50", Exact(t, "stage:tx_service_ns:p50"), "ns"},
        {"netdrv.netback_share", Ratio(LedgerNs(t, "driver", "netback/"), driver_ns), "ratio"},
        {"netdrv.useful_frame_ratio", cap8k.useful_frame_ratio, "ratio"},
        {"netdrv.host_ns_per_op", layer_ns("netdrv"), "ns"},
        {"blkdrv.requests_per_op", per_op("count:requests_handled"), "count"},
        {"blkdrv.segments_per_op", per_op("count:segments_handled"), "count"},
        {"blkdrv.persistent_hit_ratio",
         Ratio(Exact(t, "count:persistent_hits"), Exact(t, "count:segments_handled")), "ratio"},
        {"blkdrv.blkback_cpu_ns_per_op", Ratio(LedgerNs(t, "driver", "blkback/"), ops), "ns"},
        {"blkdrv.blkfront_cpu_ns_per_op", Ratio(LedgerNs(t, "guest", "blkfront/"), ops), "ns"},
        {"blkdrv.req_queue_ns_p50", Exact(t, "stage:req_queue_ns:p50"), "ns"},
        {"blkdrv.req_queue_ns_p99", Exact(t, "stage:req_queue_ns:p99"), "ns"},
        {"blkdrv.req_service_ns_p50", Exact(t, "stage:req_service_ns:p50"), "ns"},
        {"blkdrv.op_complete_ns_p99", Exact(t, "stage:op_complete_ns:p99"), "ns"},
        {"blk.device_ns_p50", Exact(t, "stage:device_ns:p50"), "ns"},
        {"blk.device_ns_p99", Exact(t, "stage:device_ns:p99"), "ns"},
        {"blk.device_ops_per_op", per_op("count:device_ops"), "count"},
        {"blk.host_ns_per_op", layer_ns("blk"), "ns"},
        {"app.get_hit_ratio", Exact(t, "app.get_hit_ratio"), "ratio"},
        {"app.host_ns_per_op", layer_ns("app"), "ns"},
        {"obs.host_ns_per_op", layer_ns("obs"), "ns"},
        {"other.host_ns_per_op", layer_ns("other"), "ns"},
        {"setup.create_domains_s", Median(create), "s"},
        {"setup.connect_s", Median(connect), "s"},
        {"setup.warm_s", Median(warm), "s"},
        {"obs.trace_overhead_pct",
         Ratio(100.0 * (Median(traced_blocks) - untraced_ns), untraced_ns), "%"},
    };

    std::printf("\nhost time by dispatch site (first traced rep, %.0f ops):\n", ops);
    std::printf("  %-28s %-7s %12s %14s\n", "site", "layer", "calls/op", "host ns/op");
    std::vector<std::pair<std::string, uint64_t>> sites(t.site_wall_ns.begin(),
                                                        t.site_wall_ns.end());
    std::sort(sites.begin(), sites.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [label, wall_ns] : sites) {
      std::printf("  %-28s %-7s %12.4f %14.1f\n", label.c_str(), LayerOf(label),
                  per_op("site:" + label), Ratio(static_cast<double>(wall_ns), ops));
    }
    std::printf("\n%-34s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : per_layer) {
      std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  const bool correct = errors.empty();
  if (!correct) {
    std::printf("\nCORRECTNESS FAILURES (%zu):\n", errors.size());
    for (size_t i = 0; i < errors.size() && i < 40; ++i) {
      std::printf("  %s\n", errors[i].c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& reported = opts.trace ? per_layer : end_to_end;
  for (size_t i = 0; i < reported.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", reported[i].name.c_str(), reported[i].value,
                  reported[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kitebench

int main(int argc, char** argv) { return kitebench::Main(argc, argv); }
