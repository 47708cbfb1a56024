// Blkback: the block backend driver in a storage driver domain (paper
// §3.3/§4.4).
//
// A dedicated request thread (woken by the event channel, never doing work
// in the handler) consumes ring requests, resolves segments (direct or
// indirect), maps guest pages — through a *persistent grant cache* when
// negotiated, avoiding the map/unmap hypercalls — and submits device
// operations, *batching consecutive segments* of one or more requests into
// single larger device ops. Completions are asynchronous: responses are sent
// from the device callback, so subsequent requests are never blocked by an
// in-flight one.
#ifndef SRC_BLKDRV_BLKBACK_H_
#define SRC_BLKDRV_BLKBACK_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/blk/blkif.h"
#include "src/blk/disk.h"
#include "src/bmk/sched.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"
#include "src/os/profile.h"
#include "src/sim/wait.h"

namespace kite {

struct BlkbackParams {
  bool persistent_grants = true;   // Ablation: per-request map/unmap when off.
  bool indirect_segments = true;   // Ablation: 11-segment (44 KB) cap when off.
  bool batching = true;            // Ablation: one device op per segment run off.
  int max_indirect = kBlkMaxIndirectSegments;
  size_t max_batch_bytes = 1024 * 1024;  // Cap for a coalesced device op.
  int ring_batch_limit = 32;             // Requests per CPU quantum.
};

class BlkbackInstance {
 public:
  BlkbackInstance(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                  BlkbackParams params, BlockDevice* disk, DomId frontend_dom, int devid);
  ~BlkbackInstance();

  // Phase 1 (paper §4.4): advertise device properties and features in
  // xenstore, then wait in InitWait for the frontend.
  void Advertise();
  // Phase 2: after the frontend publishes, map the ring and connect.
  bool Connect();

  // Frontend death: stop the request thread (it exits at its next
  // resumption), close the port, and refuse further work. The instance must
  // stay allocated until drained().
  void BeginShutdown();
  bool drained() const { return threads_running_ == 0; }
  void set_on_drained(std::function<void()> fn) { on_drained_ = std::move(fn); }

  // Graceful drain (toolstack-initiated migration): stop consuming new ring
  // requests but let every in-flight device op complete and answer.
  // Unconsumed requests stay on the ring — unacknowledged, the frontend
  // requeues and resubmits them after relink, so no acked write is lost.
  void RequestDrain();
  bool draining() const { return draining_; }
  // True once every consumed request has a pushed response (all disk
  // completions landed and were answered).
  bool ReadyToRetire() const;
  // BeginShutdown plus synchronous release of the ring mapping and the
  // persistent-grant cache. Must run *before* the backend's xenstore subtree
  // is removed: the live frontend's EndAccess on its grants only succeeds
  // once this side holds no active maps.
  void RetireGracefully();

  bool connected() const { return connected_; }
  DomId frontend_dom() const { return frontend_dom_; }
  int devid() const { return devid_; }

  uint64_t requests_handled() const { return requests_handled_->value(); }
  uint64_t device_ops() const { return device_ops_->value(); }
  uint64_t segments_handled() const { return segments_handled_->value(); }
  uint64_t persistent_hits() const { return persistent_hits_->value(); }
  uint64_t indirect_requests() const { return indirect_requests_->value(); }
  // Ring requests rejected before touching the disk or guest pages:
  // impossible segment counts, inverted or out-of-page sector ranges,
  // out-of-capacity offsets (malformed or malicious ring input).
  uint64_t bad_requests() const { return bad_requests_->value(); }
  // Indirect requests whose descriptor gref failed to map (bogus or revoked
  // gref, or an injected grant fault) — rejected with kError.
  uint64_t indirect_map_fails() const { return indirect_map_fails_->value(); }
  size_t persistent_cache_size() const { return persistent_.size(); }

  // True when the ring is quiet: every published request consumed, exactly
  // one response per consumed request (disk completions all landed), and
  // everything pushed back to the frontend. On false, `detail` (if non-null)
  // says which leg failed.
  bool RingQuiescent(std::string* detail) const;

 private:
  // Per-ring-request completion state, in the reqs_ slot table.
  struct ReqState {
    uint64_t id = 0;
    BlkOp op = BlkOp::kRead;
    int parts_outstanding = 0;
    bool ok = true;
    uint32_t ring_index = 0;  // Free-running consumer index (flow id).
    int64_t popped_ns = 0;    // When the request left the ring (observability).
  };
  // One segment resolved to a guest page mapping.
  struct ResolvedSeg {
    uint32_t req = 0;               // Slot in reqs_.
    int64_t disk_offset = 0;
    size_t length = 0;
    Page* page = nullptr;           // Valid for persistent-cached mappings.
    MappedGrant transient;          // Holds the mapping when not persistent.
    size_t page_offset = 0;
  };
  // One coalesced device op in flight, in the runs_ slot table. segs keeps
  // its capacity across reuse.
  struct Run {
    std::vector<ResolvedSeg> segs;
    BlkOp op = BlkOp::kRead;
    int64_t submit_ns = 0;
  };

  Task RequestThread();
  void ThreadExited();
  // Validates guest-controlled geometry before any page or disk access.
  bool ValidateRequest(const BlkRequest& req, const std::vector<BlkSegment>& segments);
  void ProcessRequest(const BlkRequest& req, std::vector<ResolvedSeg>* run,
                      BlkOp* run_op, uint32_t ring_index, int64_t popped_ns);
  // Parks `run` in a free runs_ slot (handing that slot's empty storage back
  // in `run`) and submits it as one device op.
  void FlushRun(std::vector<ResolvedSeg>* run, BlkOp op);
  Page* ResolvePage(GrantRef gref, bool write_access, MappedGrant* transient_out);
  uint32_t AllocReq();
  // Answers the request and frees its reqs_ slot.
  void SendResponse(uint32_t req);
  void CompleteRun(uint32_t slot, bool ok, const Buffer& data);

  Domain* backend_;
  Hypervisor* hv_;
  BmkSched* sched_;
  const OsCostProfile* costs_;
  BlkbackParams params_;
  BlockDevice* disk_;
  DomId frontend_dom_;
  int devid_;
  bool connected_ = false;
  // Drain protocol: the request thread stops consuming new requests.
  bool draining_ = false;
  // Shutdown protocol: checked by the request thread after every co_await.
  bool stopping_ = false;
  int threads_running_ = 0;
  std::function<void()> on_drained_;

  std::string backend_path_;
  std::string frontend_path_;

  MappedGrant ring_map_;
  std::unique_ptr<BlkBackRing> ring_;
  EvtPort port_ = kInvalidPort;
  // Watchdog registration (0 = never registered / already unregistered).
  int64_t health_id_ = 0;
  WakeFlag wake_;
  SimTime last_active_;
  bool frontend_persistent_ = false;

  // Guard for disk-completion callbacks (device ops can outlive the instance
  // across a driver-domain restart).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::map<GrantRef, MappedGrant> persistent_;

  // Reusable request-processing scratch (RequestThread is the only writer;
  // ProcessRequest never suspends while it holds live data).
  std::vector<BlkSegment> seg_scratch_;
  // Slot tables for requests awaiting their response and for device ops in
  // flight; freed slots are reused LIFO, so steady state allocates nothing.
  // A disk completion captures its run's slot index.
  std::vector<ReqState> reqs_;
  std::vector<uint32_t> free_reqs_;
  std::vector<Run> runs_;
  std::vector<uint32_t> free_runs_;

  // Registry-backed under (backend domain, vbdX.Y, <name>).
  Counter* requests_handled_;
  Counter* device_ops_;
  Counter* segments_handled_;
  Counter* persistent_hits_;
  Counter* indirect_requests_;
  Counter* bad_requests_;
  Counter* indirect_map_fails_;
  // Stage latencies (ns): queue = frontend submit → ring pop, service = ring
  // pop → response produced, device = device op submit → completion.
  LatencyHistogram* req_queue_ns_;
  LatencyHistogram* req_service_ns_;
  LatencyHistogram* device_ns_;
};

class StorageBackendDriver {
 public:
  StorageBackendDriver(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                       BlockDevice* disk, BlkbackParams params = BlkbackParams{});
  ~StorageBackendDriver();

  int instance_count() const { return static_cast<int>(instances_.size()); }
  // Reaped instances still draining their request thread.
  int dying_instance_count() const { return static_cast<int>(dying_.size()); }
  BlkbackInstance* instance(DomId frontend_dom, int devid);
  // Live instances in deterministic (frontend, devid) order (checker).
  std::vector<BlkbackInstance*> live_instances() const {
    std::vector<BlkbackInstance*> out;
    out.reserve(instances_.size());
    for (const auto& [key, inst] : instances_) {
      out.push_back(inst.get());
    }
    return out;
  }
  void SetOnNewVbd(std::function<void(BlkbackInstance*)> fn) { on_new_vbd_ = std::move(fn); }
  // Called when a vbd's frontend died and the instance is being reaped.
  void SetOnVbdGone(std::function<void(BlkbackInstance*)> fn) { on_vbd_gone_ = std::move(fn); }

  uint64_t connect_retries() const { return connect_retries_->value(); }
  uint64_t instances_reaped() const { return instances_reaped_->value(); }
  // Instances retired via the graceful drain handshake (be/online = 0).
  uint64_t instances_retired() const { return instances_retired_->value(); }
  int pending_fe_watch_count() const { return static_cast<int>(fe_watches_.size()); }
  // Frontend-death watches held for paired instances (one per connected vbd).
  int paired_fe_watch_count() const { return static_cast<int>(paired_watches_.size()); }

 private:
  Task WatchThread();
  void Scan();
  // Tears down instances whose frontend closed or whose frontend domain was
  // destroyed.
  void ReapDeadInstances();
  // Drives the graceful drain handshake for instances whose backend node
  // carries online = 0 (set by the toolstack before a migration).
  void ProcessDrains();
  // Root-watch helper: records nodes whose online key changed so the next
  // scan reads only those (keeps the no-migration path free of xenstore ops).
  void NoteOnlineTouched(const std::string& root, const std::string& path);
  void SweepDying();

  Domain* backend_;
  Hypervisor* hv_;
  BmkSched* sched_;
  const OsCostProfile* costs_;
  BlockDevice* disk_;
  BlkbackParams params_;
  std::function<void(BlkbackInstance*)> on_new_vbd_;
  std::function<void(BlkbackInstance*)> on_vbd_gone_;

  WatchId watch_ = 0;
  WakeFlag watch_wake_;
  std::map<std::pair<DomId, int>, std::unique_ptr<BlkbackInstance>> instances_;
  // Frontend state paths watched until their instance connects; removed on
  // connect so the watch table stays bounded (mirrors netback).
  std::map<std::string, WatchId> fe_watches_;
  // Post-pairing frontend-death watches, one per connected instance (kept
  // apart from fe_watches_, whose emptiness tests assert after pairing).
  std::map<std::pair<DomId, int>, WatchId> paired_watches_;
  // Nodes whose online key the toolstack touched since the last scan
  // (paths carried by the root watch); read — and charged — only for these.
  std::set<std::pair<DomId, int>> online_dirty_;
  // Nodes currently marked online = 0: mid-drain/retire.
  std::set<std::pair<DomId, int>> offline_;
  // Reaped but not yet drained; swept on scan wakeups.
  std::vector<std::unique_ptr<BlkbackInstance>> dying_;
  Counter* connect_retries_;
  Counter* instances_reaped_;
  Counter* instances_retired_;
  // Outlives `this` so posted retries can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kite

#endif  // SRC_BLKDRV_BLKBACK_H_
