#include "kitebench/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "src/base/strings.h"
#include "src/core/invariants.h"
#include "src/core/kite.h"
#include "src/workloads/fs.h"
#include "src/workloads/memcached.h"

namespace kitebench {
namespace {

using namespace kite;

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);
constexpr uint16_t kUdpPort = 5001;
constexpr uint16_t kKvPort = 11211;

// udp_stream fixed phase: the paper's Fig 6 point. 150 ms at 7.4 Gbps is
// 16 938 datagrams, so the window keeps the 10 000 latency samples a p99.9
// needs (ten beyond it) even if delivery fell by 40%.
constexpr double kUdpFixedGbps = 7.4;
constexpr size_t kUdpFixedBytes = 8192;
constexpr SimDuration kUdpFixedWindow = Millis(150);
constexpr uint64_t kUdpBlockOps = 1000;
// Capacity probes: loss above this share of a probe's datagrams fails it.
constexpr SimDuration kUdpProbeWindow = Millis(100);
constexpr double kUdpLossLimitPct = 1.0;
// Bisection stops when the bracket is within this share of its low end.
constexpr double kUdpCapacityResolution = 0.005;
constexpr int kUdpMaxProbes = 40;
// In-flight datagrams still drain after the sender stops (as nuttcp does).
constexpr SimDuration kUdpDrain = Millis(20);

// kv_tcp: memtier's defaults (1:10 SET:GET, 8 KB values, 10k keys) with 4
// closed-loop connections; every key is SET once before the window.
constexpr int kKvConnections = 4;
constexpr int kKvKeySpace = 10000;
constexpr size_t kKvValueBytes = 8192;
constexpr uint64_t kKvWindowOps = 20000;
constexpr uint64_t kKvBlockOps = 1000;

// blk_rand: sysbench fileio's rndrw mix over fig12's file set (192 files,
// 3 GB), 4 KB blocks, 3:2 read:write, 4 closed-loop threads. One simulated
// second is about 31k I/Os.
constexpr int kBlkFiles = 192;
constexpr int64_t kBlkFileBytes = (3LL << 30) / kBlkFiles;
constexpr size_t kBlkBlockBytes = 4096;
constexpr double kBlkReadFraction = 0.6;
constexpr int kBlkThreads = 4;
constexpr SimDuration kBlkWindow = Seconds(1);
constexpr uint64_t kBlkBlockOps = 4000;

std::string Label(const MetricKey& key) {
  return key.domain + "/" + key.device + "/" + key.name;
}

// A driver domain, one guest attached to it, and (storage) the guest's file
// system. Built in the same order as bench/common.h's topologies, but with
// the schedule shuffle seeded before the first domain exists.
struct Topology {
  std::unique_ptr<KiteSystem> sys;
  Domain* driver = nullptr;
  GuestVm* guest = nullptr;
  std::unique_ptr<SimpleFs> fs;
};

// Builds and connects the topology, timing the create and connect spans.
// Returns false (with the reason in rep->errors) when the guest never
// connects.
bool Build(Workload workload, uint64_t seed, Topology* topo, Rep* rep) {
  const double t0 = HostNow();
  KiteSystem::Params params;
  params.tcp_metrics = true;
  const bool storage = workload == Workload::kBlkRand;
  if (storage) {
    params.disk.capacity_bytes = 8LL << 30;
    params.disk_store_data = false;  // Timing, not content.
  }
  topo->sys = std::make_unique<KiteSystem>(params);
  KiteSystem* sys = topo->sys.get();
  sys->EnableScheduleShuffle(seed);
  DriverDomainConfig config;  // Kite personality.
  if (storage) {
    StorageDomain* stordom = sys->CreateStorageDomain(config);
    topo->guest = sys->CreateGuest("db-guest");
    sys->AttachVbd(topo->guest, stordom);
    topo->driver = stordom->domain();
  } else {
    NetworkDomain* netdom = sys->CreateNetworkDomain(config);
    topo->guest = sys->CreateGuest("server-guest");
    sys->AttachVif(topo->guest, netdom, kGuestIp);
    topo->driver = netdom->domain();
  }
  const double t1 = HostNow();
  const bool connected = sys->WaitConnected(topo->guest);
  const double t2 = HostNow();
  rep->create_s = t1 - t0;
  rep->connect_s = t2 - t1;
  if (!connected) {
    rep->errors.push_back("guest frontend failed to connect");
  }
  return connected;
}

// Resolves ARP both ways so the window excludes it.
bool WarmArp(Topology* topo) {
  bool warm = false;
  topo->sys->client()->stack()->Ping(kGuestIp, 8, [&](bool, SimDuration) { warm = true; });
  return topo->sys->WaitUntil([&] { return warm; }, Seconds(5));
}

// Quiesces the system and runs the whole-system invariant audit.
void Audit(Topology* topo, Rep* rep) {
  topo->sys->RunUntilIdle();
  for (const Violation& v : InvariantChecker(topo->sys.get()).Check()) {
    rep->errors.push_back("invariant " + v.invariant + ": " + v.detail);
  }
}

// Quantile q of a sample, as a Harrell-Davis estimate: a weighted mean of
// the order statistics, each weighted by the probability that it is the
// q-quantile (the Beta((n+1)q, (n+1)(1-q)) distribution, in its normal
// approximation, which is close for the >= 10 000 samples every window
// holds). Simulated latencies cluster on a few exact values, so a single
// order statistic often reads the same under a different seed although the
// distribution moved; this estimate moves with it.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  const double sigma = std::sqrt(q * (1 - q) / (n + 2));
  auto cdf = [&](double x) { return 0.5 * std::erfc((q - x) / (sigma * std::sqrt(2.0))); };
  const double lo_rank = std::max(0.0, std::floor((q - 12 * sigma) * n));
  const double hi_rank = std::min(n, std::ceil((q + 12 * sigma) * n));
  double sum = 0, weight = 0;
  for (double i = lo_rank; i < hi_rank; ++i) {
    const double w = cdf((i + 1) / n) - cdf(i / n);
    sum += w * (*v)[static_cast<size_t>(i)];
    weight += w;
  }
  return weight > 0 ? sum / weight : (*v)[static_cast<size_t>(q * (n - 1))];
}

// Records a workload's latency distribution (microseconds) into the rep.
void RecordLatency(std::vector<double> us, Rep* rep) {
  rep->exact["sim.latency_samples"] = static_cast<double>(us.size());
  rep->exact["sim_p50_us"] = Quantile(&us, 0.5);
  rep->exact["sim_p999_us"] = Quantile(&us, 0.999);
}

// Host time per op over consecutive blocks of a window's ops. Op() reads
// the host clock once per block, so counting costs the simulation nothing.
class OpBlocks {
 public:
  explicit OpBlocks(uint64_t ops_per_block) : per_block_(ops_per_block), last_(HostNow()) {}

  void Op() {
    if (++count_ % per_block_ == 0) {
      const double now = HostNow();
      ns_per_op_.push_back((now - last_) * 1e9 / static_cast<double>(per_block_));
      last_ = now;
    }
  }

  std::vector<double>& ns_per_op() { return ns_per_op_; }

 private:
  uint64_t per_block_;
  uint64_t count_ = 0;
  double last_;
  std::vector<double> ns_per_op_;
};

// The measured window. Construction marks its start: it clears every stage
// latency histogram, snapshots every registry counter, the executor step
// count and both vCPUs' busy time, and (traced) switches on the dispatch
// profiler and CPU attribution, so everything Collect reports covers the
// window alone.
class Window {
 public:
  Window(Topology* topo, bool traced, uint64_t ops_per_block)
      : sys_(topo->sys.get()),
        traced_(traced),
        driver_(topo->driver->vcpu(0)),
        guest_(topo->guest->domain()->vcpu(0)),
        driver_usage_(driver_),
        guest_usage_(guest_) {
    MetricRegistry& reg = sys_->metric_registry();
    for (const MetricRegistry::Sample& s : reg.Snapshot()) {
      if (s.kind == MetricRegistry::Kind::kLatency) {
        reg.latency(s.key.domain, s.key.device, s.key.name)->Reset();
      } else if (s.kind == MetricRegistry::Kind::kCounter) {
        counters_at_start_[Label(s.key)] = static_cast<uint64_t>(s.value);
      }
    }
    steps_at_start_ = sys_->executor().steps_executed();
    if (traced_) {
      sys_->executor().EnableDispatchProfiler();
      sys_->executor().set_profile_sample_shift(0);
      sys_->EnableCpuAttribution();
    }
    blocks_.emplace(ops_per_block);
    host_start_ = HostNow();
  }

  // Marks the end of the window (host clock).
  void Stop(Rep* rep) {
    rep->window_s = HostNow() - host_start_;
    rep->block_ns_per_op = std::move(blocks_->ns_per_op());
  }

  // The workload calls Op() on this once per completed (or, for UDP, sent)
  // operation.
  OpBlocks* blocks() { return &*blocks_; }

  SimDuration driver_busy() const { return driver_usage_.busy(); }

  // Window deltas into rep->exact (and rep->site_wall_ns when traced).
  void Collect(Rep* rep) {
    Executor& ex = sys_->executor();
    rep->exact["sim.events"] = static_cast<double>(ex.steps_executed() - steps_at_start_);
    rep->exact["cpu.driver_busy_ns"] = static_cast<double>(driver_usage_.busy().ns());
    rep->exact["cpu.driver_util"] = driver_usage_.utilization();
    rep->exact["cpu.guest_util"] = guest_usage_.utilization();
    // Counters are summed by metric name across devices (one vif or vbd
    // here); stage histograms keep their own percentiles.
    for (const MetricRegistry::Sample& s : sys_->metric_registry().Snapshot()) {
      if (s.kind == MetricRegistry::Kind::kCounter) {
        const std::string label = Label(s.key);
        const auto it = counters_at_start_.find(label);
        const uint64_t before = it == counters_at_start_.end() ? 0 : it->second;
        const uint64_t delta = static_cast<uint64_t>(s.value) - before;
        const std::string name = s.key.device == "tcp" ? "tcp/" + s.key.name
                                 : s.key.domain == "hv"
                                     ? "hv/" + s.key.device + "/" + s.key.name
                                     : s.key.name;
        rep->exact["count:" + name] += static_cast<double>(delta);
      } else if (s.kind == MetricRegistry::Kind::kLatency && s.count > 0) {
        rep->exact["stage:" + s.key.name + ":n"] = static_cast<double>(s.count);
        rep->exact["stage:" + s.key.name + ":p50"] = static_cast<double>(s.p50);
        rep->exact["stage:" + s.key.name + ":p99"] = static_cast<double>(s.p99);
      }
    }
    if (!traced_) {
      return;
    }
    for (const DispatchProfileEntry& e : ex.DispatchProfile()) {
      if (e.invocations == 0) {
        continue;
      }
      rep->site_wall_ns[e.label] = e.est_wall_ns;
      rep->exact[std::string("site:") + e.label] = static_cast<double>(e.invocations);
    }
    RecordLedger("driver", driver_, rep);
    RecordLedger("guest", guest_, rep);
    rep->exact["cpu.driver_runq_wait_p99_ns"] =
        static_cast<double>(driver_->ledger()->wait_hist.Percentile(99));
  }

 private:
  // Simulated busy ns per CPU category over the window (attribution was
  // switched on at the window's start, so the ledger holds the window only).
  static void RecordLedger(const std::string& who, const Vcpu* vcpu, Rep* rep) {
    const CpuLedger* ledger = vcpu->ledger();
    for (uint32_t i = 0; i < ledger->busy_ns.size(); ++i) {
      if (ledger->busy_ns[i] != 0) {
        rep->exact["cpu:" + who + ":" + CpuCategoryLabel(i)] =
            static_cast<double>(ledger->busy_ns[i]);
      }
    }
  }

  KiteSystem* sys_;
  bool traced_;
  const Vcpu* driver_;
  const Vcpu* guest_;
  CpuUsageSample driver_usage_;
  CpuUsageSample guest_usage_;
  std::map<std::string, uint64_t> counters_at_start_;
  uint64_t steps_at_start_ = 0;
  std::optional<OpBlocks> blocks_;  // Started last, just before the window.
  double host_start_ = 0;
};

// Seeds the benchmark's own input generators; distinct from the schedule
// shuffle stream, which is seeded with the same value.
Rng InputRng(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
}

// nuttcp-style paced UDP stream, client → guest, at a constant interval
// computed as NuttcpUdp computes it. Each datagram carries its sequence
// number, so the receiver can reject duplicates and compute the one-way
// latency from its send time.
class UdpStream {
 public:
  UdpStream(Topology* topo, double gbps, size_t datagram_bytes, SimDuration duration)
      : executor_(&topo->sys->executor()),
        bytes_(datagram_bytes),
        interval_(Nanos(static_cast<int64_t>(static_cast<double>(datagram_bytes) * 8.0 / gbps))),
        duration_(duration),
        tx_(topo->sys->client()->stack()->OpenUdp()),
        rx_(topo->guest->stack()->OpenUdp()) {
    if (!rx_->Bind(kUdpPort)) {
      errors_.push_back("cannot bind the UDP receiver");
    }
    rx_->SetRecvCallback([this](Ipv4Addr, uint16_t, const Buffer& payload) { Receive(payload); });
  }

  // `blocks` (may be null) counts every datagram sent.
  void Start(OpBlocks* blocks) {
    blocks_ = blocks;
    end_ = executor_->Now() + duration_;
    Tick();
  }

  uint64_t sent() const { return sent_at_.size(); }
  uint64_t received() const { return received_; }
  std::vector<double>& latency_us() { return latency_us_; }
  // Datagrams the receiver could not account for: wrong size, a sequence
  // number never sent, or a second copy.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Tick() {
    if (executor_->Now() >= end_) {
      return;
    }
    Buffer payload(bytes_, 0x6e);
    const uint64_t seq = sent_at_.size();
    std::memcpy(payload.data(), &seq, sizeof(seq));
    sent_at_.push_back(executor_->Now());
    seen_.push_back(false);
    tx_->SendTo(kGuestIp, kUdpPort, std::move(payload));
    if (blocks_ != nullptr) {
      blocks_->Op();
    }
    executor_->PostAfter(interval_, KITE_POST_SITE("kitebench/udp-tick"), [this] { Tick(); });
  }

  void Receive(const Buffer& payload) {
    uint64_t seq = 0;
    if (payload.size() != bytes_) {
      errors_.push_back(StrFormat("datagram of %zu bytes, sent %zu", payload.size(), bytes_));
      return;
    }
    std::memcpy(&seq, payload.data(), sizeof(seq));
    if (seq >= sent_at_.size() || seen_[seq]) {
      errors_.push_back(StrFormat("unexpected datagram seq %llu",
                                  static_cast<unsigned long long>(seq)));
      return;
    }
    seen_[seq] = true;
    ++received_;
    latency_us_.push_back(static_cast<double>((executor_->Now() - sent_at_[seq]).ns()) / 1e3);
  }

  Executor* executor_;
  size_t bytes_;
  SimDuration interval_;
  SimDuration duration_;
  std::unique_ptr<UdpSocket> tx_;
  std::unique_ptr<UdpSocket> rx_;
  OpBlocks* blocks_ = nullptr;
  SimTime end_;
  std::vector<SimTime> sent_at_;  // By sequence number.
  std::vector<bool> seen_;
  uint64_t received_ = 0;
  std::vector<double> latency_us_;
  std::vector<std::string> errors_;
};

// memtier-style memcached client: closed loop, one request outstanding per
// TCP connection, speaking the text protocol. Connection c owns the keys
// k ≡ c (mod connections), so each key's SETs and GETs are ordered on one
// connection and every GET has exactly one right answer: the value of the
// key's last SET, which the client checks byte for byte.
class KvClient {
 public:
  KvClient(EtherStack* client, uint64_t seed)
      : executor_(client->executor()), rng_(InputRng(seed, 2)) {
    versions_.assign(kKvKeySpace, -1);
    for (int i = 0; i < kKvConnections; ++i) {
      auto conn = std::make_unique<Conn>();
      Conn* c = conn.get();
      c->index = i;
      conns_.push_back(std::move(conn));
      c->tcp = client->ConnectTcp(kGuestIp, kKvPort, [this, c](TcpConn*) {
        c->connected = true;
        Issue(c);
      });
      c->tcp->SetDataCallback([this, c](std::span<const uint8_t> data) {
        c->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
        OnData(c);
      });
    }
  }

  // SETs every key once (warm-up), then idles.
  void Fill() { Begin(/*fill=*/true, kKvKeySpace, nullptr); }
  // `ops` requests, 1:10 SET:GET over uniformly chosen keys; `blocks`
  // counts every completion.
  void Measure(uint64_t ops, OpBlocks* blocks) { Begin(/*fill=*/false, ops, blocks); }

  bool idle() const { return completed_ == target_; }
  uint64_t completed() const { return completed_ - completed_at_begin_; }
  uint64_t failed() const { return failed_; }
  uint64_t sets() const { return sets_; }
  uint64_t gets() const { return gets_; }
  uint64_t hits() const { return hits_; }
  SimTime began() const { return began_; }
  SimTime last_completion() const { return last_completion_; }
  std::vector<double>& latency_us() { return latency_us_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Conn {
    int index = 0;
    TcpConn* tcp = nullptr;
    bool connected = false;
    bool busy = false;
    int next_fill_key = 0;  // Fill: next owned key, stepping by kKvConnections.
    int key = 0;
    bool is_set = false;
    SimTime started;
    std::string inbuf;
  };

  void Begin(bool fill, uint64_t ops, OpBlocks* blocks) {
    fill_ = fill;
    blocks_ = blocks;
    began_ = executor_->Now();
    completed_at_begin_ = completed_;
    target_ = completed_ + ops;
    issued_ = completed_;
    sets_ = gets_ = hits_ = failed_ = 0;
    latency_us_.clear();
    for (auto& c : conns_) {
      c->next_fill_key = c->index;
      if (c->connected && !c->busy) {
        Issue(c.get());
      }
    }
  }

  static std::string Key(int key) { return StrFormat("memtier-%08d", key); }

  // A value that names its key and version, so a GET answered with another
  // key's or an older value is caught.
  static std::string Value(int key, int version) {
    std::string v(kKvValueBytes, static_cast<char>('a' + (key + version) % 26));
    const std::string tag = StrFormat("%s v%d;", Key(key).c_str(), version);
    v.replace(0, tag.size(), tag);
    return v;
  }

  void Issue(Conn* c) {
    if (issued_ >= target_) {
      return;
    }
    if (fill_) {
      if (c->next_fill_key >= kKvKeySpace) {
        return;
      }
      c->key = c->next_fill_key;
      c->next_fill_key += kKvConnections;
      c->is_set = true;
    } else {
      c->key = c->index +
               kKvConnections * static_cast<int>(rng_.NextBelow(kKvKeySpace / kKvConnections));
      c->is_set = rng_.NextBool(1.0 / 11.0);  // 1:10 SET:GET.
    }
    ++issued_;
    c->busy = true;
    c->started = executor_->Now();
    std::string req;
    if (c->is_set) {
      const std::string value = Value(c->key, versions_[c->key] + 1);
      req = StrFormat("set %s 0 0 %zu\r\n", Key(c->key).c_str(), value.size()) + value + "\r\n";
    } else {
      req = "get " + Key(c->key) + "\r\n";
    }
    c->tcp->Send(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(req.data()), req.size()));
  }

  // Consumes one complete response, if one has arrived.
  void OnData(Conn* c) {
    if (!c->busy) {
      errors_.push_back("response with no request outstanding");
      c->inbuf.clear();
      return;
    }
    const size_t eol = c->inbuf.find("\r\n");
    if (eol == std::string::npos) {
      return;
    }
    bool ok = false;
    if (c->is_set) {
      ok = c->inbuf.compare(0, eol, "STORED") == 0;
      c->inbuf.erase(0, eol + 2);
      ++sets_;
      if (ok) {
        ++versions_[c->key];
      }
    } else if (c->inbuf.compare(0, eol, "END") == 0) {
      c->inbuf.erase(0, eol + 2);
      ++gets_;
      ok = versions_[c->key] < 0;  // A miss is right only for a never-set key.
    } else {
      const std::string header = "VALUE " + Key(c->key) + " 0 ";
      const size_t bytes = kKvValueBytes;
      const size_t total = eol + 2 + bytes + 7;  // data, "\r\nEND\r\n".
      if (c->inbuf.size() < total) {
        return;
      }
      ++gets_;
      ok = c->inbuf.compare(0, eol, header + std::to_string(bytes)) == 0 &&
           versions_[c->key] >= 0 &&
           c->inbuf.compare(eol + 2, bytes, Value(c->key, versions_[c->key])) == 0 &&
           c->inbuf.compare(eol + 2 + bytes, 7, "\r\nEND\r\n") == 0;
      hits_ += ok ? 1 : 0;
      c->inbuf.erase(0, total);
    }
    if (!ok) {
      ++failed_;
      if (errors_.size() < 10) {
        errors_.push_back(StrFormat("kv: wrong %s response for %s", c->is_set ? "SET" : "GET",
                                    Key(c->key).c_str()));
      }
    }
    c->busy = false;
    ++completed_;
    if (blocks_ != nullptr) {
      blocks_->Op();
    }
    last_completion_ = executor_->Now();
    latency_us_.push_back(static_cast<double>((executor_->Now() - c->started).ns()) / 1e3);
    Issue(c);
  }

  Executor* executor_;
  Rng rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<int> versions_;  // Last acknowledged SET per key; -1 = never set.
  bool fill_ = false;
  OpBlocks* blocks_ = nullptr;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t completed_at_begin_ = 0;
  uint64_t target_ = 0;
  uint64_t sets_ = 0;
  uint64_t gets_ = 0;
  uint64_t hits_ = 0;
  uint64_t failed_ = 0;
  SimTime began_;
  SimTime last_completion_;
  std::vector<double> latency_us_;
  std::vector<std::string> errors_;
};

// sysbench-fileio-style random I/O (rndrw): closed-loop threads, each with
// one block-aligned read or write outstanding over a random file of the set,
// until the deadline.
class BlkClient {
 public:
  BlkClient(SimpleFs* fs, uint64_t seed)
      : fs_(fs),
        executor_(fs->device()->guest()->hypervisor()->executor()),
        rng_(InputRng(seed, 3)) {}

  // Populates the file set (metadata only; part of set-up).
  bool Populate() { return fs_->CreateMany("test_file.", kBlkFiles, kBlkFileBytes); }

  // `blocks` counts every completed I/O.
  void Run(SimDuration duration, OpBlocks* blocks) {
    blocks_ = blocks;
    deadline_ = executor_->Now() + duration;
    running_ = kBlkThreads;
    for (int i = 0; i < kBlkThreads; ++i) {
      IssueOp();
    }
  }

  bool done() const { return running_ == 0; }
  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  std::vector<double>& latency_us() { return latency_us_; }

 private:
  void IssueOp() {
    const SimTime now = executor_->Now();
    if (now >= deadline_) {
      --running_;
      return;
    }
    const std::string file =
        StrFormat("test_file.%06d", static_cast<int>(rng_.NextBelow(kBlkFiles)));
    const int64_t offset = static_cast<int64_t>(rng_.NextBelow(kBlkFileBytes / kBlkBlockBytes)) *
                           static_cast<int64_t>(kBlkBlockBytes);
    auto done = [this, now](bool ok) {
      ++ops_;
      blocks_->Op();
      failed_ += ok ? 0 : 1;
      latency_us_.push_back(static_cast<double>((executor_->Now() - now).ns()) / 1e3);
      IssueOp();
    };
    if (rng_.NextBool(kBlkReadFraction)) {
      fs_->Read(file, offset, kBlkBlockBytes, done);
    } else {
      fs_->Write(file, offset, kBlkBlockBytes, done);
    }
  }

  SimpleFs* fs_;
  Executor* executor_;
  Rng rng_;
  OpBlocks* blocks_ = nullptr;
  SimTime deadline_;
  int running_ = 0;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> latency_us_;
};

// A window count by metric name (0 when the counter never moved).
double Count(const Rep& rep, const std::string& name) {
  const auto it = rep.exact.find("count:" + name);
  return it == rep.exact.end() ? 0 : it->second;
}

// Simulated driver CPU per payload byte, and the payload rate.
void RecordPayload(const Window& window, uint64_t payload_bytes, SimDuration elapsed,
                   Rep* rep) {
  rep->exact["sim.payload_bytes"] = static_cast<double>(payload_bytes);
  rep->exact["driver_cpu_ns_per_byte"] =
      payload_bytes == 0 ? 0
                         : static_cast<double>(window.driver_busy().ns()) /
                               static_cast<double>(payload_bytes);
  rep->exact["sim.payload_gbps"] =
      elapsed.ns() <= 0 ? 0
                        : static_cast<double>(payload_bytes) * 8.0 /
                              static_cast<double>(elapsed.ns());
}

Rep RunUdp(uint64_t seed, bool traced) {
  Rep rep;
  Topology topo;
  if (!Build(Workload::kUdpStream, seed, &topo, &rep)) {
    return rep;
  }
  const double warm_start = HostNow();
  if (!WarmArp(&topo)) {
    rep.errors.push_back("ARP warm-up ping got no reply");
  }
  rep.warm_s = HostNow() - warm_start;

  UdpStream stream(&topo, kUdpFixedGbps, kUdpFixedBytes, kUdpFixedWindow);
  Window window(&topo, traced, kUdpBlockOps);
  stream.Start(window.blocks());
  topo.sys->RunFor(kUdpFixedWindow + kUdpDrain);
  window.Stop(&rep);

  rep.ops = stream.sent();
  rep.failed = stream.sent() - stream.received();
  for (const std::string& e : stream.errors()) {
    rep.errors.push_back("udp: " + e);
  }
  RecordLatency(std::move(stream.latency_us()), &rep);
  RecordPayload(window, stream.received() * kUdpFixedBytes, kUdpFixedWindow, &rep);
  window.Collect(&rep);
  Audit(&topo, &rep);
  return rep;
}

Rep RunKv(uint64_t seed, bool traced) {
  Rep rep;
  Topology topo;
  if (!Build(Workload::kKvTcp, seed, &topo, &rep)) {
    return rep;
  }
  const double warm_start = HostNow();
  if (!WarmArp(&topo)) {
    rep.errors.push_back("ARP warm-up ping got no reply");
  }
  MemcachedServer server(topo.guest->stack(), kKvPort);
  KvClient client(topo.sys->client()->stack(), seed);
  client.Fill();
  if (!topo.sys->WaitUntil([&] { return client.idle(); }, Seconds(30)) || client.failed() != 0 ||
      server.sets() != static_cast<uint64_t>(kKvKeySpace)) {
    rep.errors.push_back(StrFormat("kv warm-up stored %llu of %d keys",
                                   static_cast<unsigned long long>(server.sets()), kKvKeySpace));
  }
  rep.warm_s = HostNow() - warm_start;

  const uint64_t server_ops0 = server.sets() + server.gets();
  Window window(&topo, traced, kKvBlockOps);
  client.Measure(kKvWindowOps, window.blocks());
  topo.sys->WaitUntil([&] { return client.idle(); }, Seconds(60));
  window.Stop(&rep);

  const uint64_t server_ops = server.sets() + server.gets() - server_ops0;
  rep.ops = kKvWindowOps;
  rep.failed = kKvWindowOps - client.completed() + client.failed();
  for (const std::string& e : client.errors()) {
    rep.errors.push_back(e);
  }
  if (client.completed() != kKvWindowOps || server_ops != kKvWindowOps) {
    rep.errors.push_back(StrFormat("kv: %llu requests, %llu completed, server saw %llu",
                                   static_cast<unsigned long long>(kKvWindowOps),
                                   static_cast<unsigned long long>(client.completed()),
                                   static_cast<unsigned long long>(server_ops)));
  }
  const SimDuration elapsed = client.last_completion() - client.began();
  RecordLatency(std::move(client.latency_us()), &rep);
  RecordPayload(window, (client.sets() + client.hits()) * kKvValueBytes, elapsed, &rep);
  rep.exact["sim_capacity_gbps"] = rep.exact["sim.payload_gbps"];
  rep.exact["sim_capacity_kpps"] =
      static_cast<double>(client.completed()) / elapsed.seconds() / 1e3;
  rep.exact["app.get_hit_ratio"] =
      client.gets() == 0 ? 0 : static_cast<double>(client.hits()) / client.gets();
  window.Collect(&rep);
  Audit(&topo, &rep);
  return rep;
}

Rep RunBlk(uint64_t seed, bool traced) {
  Rep rep;
  Topology topo;
  if (!Build(Workload::kBlkRand, seed, &topo, &rep)) {
    return rep;
  }
  const double warm_start = HostNow();
  topo.fs = std::make_unique<SimpleFs>(topo.guest->blkfront());
  BlkClient client(topo.fs.get(), seed);
  if (!client.Populate()) {
    rep.errors.push_back("blk: file-set population failed");
    return rep;
  }
  rep.warm_s = HostNow() - warm_start;

  Window window(&topo, traced, kBlkBlockOps);
  client.Run(kBlkWindow, window.blocks());
  const bool done = topo.sys->WaitUntil([&] { return client.done(); }, Seconds(60));
  window.Stop(&rep);
  window.Collect(&rep);

  rep.ops = client.ops();
  rep.failed = client.failed();
  if (!done || client.failed() != 0 || client.ops() == 0) {
    rep.errors.push_back(StrFormat("blk: %llu I/Os, %llu failed%s",
                                   static_cast<unsigned long long>(client.ops()),
                                   static_cast<unsigned long long>(client.failed()),
                                   done ? "" : ", threads still running"));
  }
  RecordLatency(std::move(client.latency_us()), &rep);
  RecordPayload(window, client.ops() * kBlkBlockBytes, kBlkWindow, &rep);
  rep.exact["sim_capacity_gbps"] = rep.exact["sim.payload_gbps"];
  rep.exact["sim_capacity_kpps"] = static_cast<double>(client.ops()) / kBlkWindow.seconds() / 1e3;
  Audit(&topo, &rep);
  return rep;
}

struct Probe {
  double gbps = 0;
  bool ok = false;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t guest_rx_frames = 0;
};

Probe RunProbe(uint64_t seed, double gbps, size_t datagram_bytes,
               std::vector<std::string>* errors) {
  Probe probe;
  probe.gbps = gbps;
  Rep rep;
  Topology topo;
  if (!Build(Workload::kUdpStream, seed, &topo, &rep) || !WarmArp(&topo)) {
    errors->push_back(StrFormat("probe at %.4f Gbps: set-up failed", gbps));
    return probe;
  }
  UdpStream stream(&topo, gbps, datagram_bytes, kUdpProbeWindow);
  Window window(&topo, /*traced=*/false, kUdpBlockOps);
  stream.Start(nullptr);
  topo.sys->RunFor(kUdpProbeWindow + kUdpDrain);
  window.Collect(&rep);
  probe.sent = stream.sent();
  probe.received = stream.received();
  probe.guest_rx_frames = static_cast<uint64_t>(Count(rep, "guest_rx_frames"));
  probe.ok = probe.sent > 0 && 100.0 * static_cast<double>(probe.sent - probe.received) /
                                   static_cast<double>(probe.sent) <=
                                   kUdpLossLimitPct;
  for (const std::string& e : stream.errors()) {
    errors->push_back(StrFormat("probe at %.4f Gbps: %s", gbps, e.c_str()));
  }
  Audit(&topo, &rep);
  for (const std::string& e : rep.errors) {
    errors->push_back(StrFormat("probe at %.4f Gbps: %s", gbps, e.c_str()));
  }
  return probe;
}

// IPv4 fragments a UDP datagram carries on a 1500-byte MTU.
uint64_t FramesPerDatagram(size_t datagram_bytes) {
  constexpr size_t kFragmentPayload = 1480;
  return (datagram_bytes + 8 + kFragmentPayload - 1) / kFragmentPayload;
}

}  // namespace

double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Rep RunRep(Workload workload, uint64_t seed, bool traced) {
  switch (workload) {
    case Workload::kUdpStream:
      return RunUdp(seed, traced);
    case Workload::kKvTcp:
      return RunKv(seed, traced);
    case Workload::kBlkRand:
      return RunBlk(seed, traced);
  }
  return Rep{};
}

CapacityResult SearchUdpCapacity(uint64_t seed, size_t datagram_bytes, double lo_gbps,
                                 double hi_gbps) {
  CapacityResult out;
  auto probe = [&](double gbps) {
    ++out.probes;
    return RunProbe(seed, gbps, datagram_bytes, &out.errors);
  };
  // Establish a bracket: `lo` passes, `hi` fails. The starting bracket is
  // only a guess; it widens by 25% steps in whichever direction it missed.
  Probe at_hi;
  Probe at_lo = probe(lo_gbps);
  double lo = lo_gbps;
  double hi = hi_gbps;
  if (!at_lo.ok) {
    at_hi = at_lo;
    hi = lo;
    while (!at_lo.ok && out.probes < kUdpMaxProbes) {
      lo /= 1.25;
      at_lo = probe(lo);
      if (!at_lo.ok) {
        at_hi = at_lo;
        hi = lo;
      }
    }
  } else {
    at_hi = probe(hi);
    while (at_hi.ok && out.probes < kUdpMaxProbes) {
      lo = hi;
      hi *= 1.25;
      at_hi = probe(hi);
    }
  }
  while ((hi - lo) / lo > kUdpCapacityResolution && out.probes < kUdpMaxProbes) {
    const double mid = (lo + hi) / 2;
    const Probe at_mid = probe(mid);
    if (at_mid.ok) {
      lo = mid;
    } else {
      hi = mid;
      at_hi = at_mid;
    }
  }
  if (out.probes >= kUdpMaxProbes) {
    out.errors.push_back("capacity search did not converge");
  }
  out.capacity_gbps = lo;
  out.first_fail_gbps = at_hi.gbps;
  out.useful_frame_ratio =
      at_hi.guest_rx_frames == 0
          ? 0
          : static_cast<double>(at_hi.received * FramesPerDatagram(datagram_bytes)) /
                static_cast<double>(at_hi.guest_rx_frames);
  return out;
}

}  // namespace kitebench
