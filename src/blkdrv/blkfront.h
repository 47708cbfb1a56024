// Blkfront: the paravirtualized block frontend driver in a guest DomU.
//
// Exposes an async byte-level block API (sector-aligned) to the guest file
// system. Splits operations into ring requests (≤11 direct segments, or up
// to 32 via indirect descriptors when the backend advertises them), keeps a
// persistent pool of granted data pages, and aggregates completion across
// the requests of one logical operation.
#ifndef SRC_BLKDRV_BLKFRONT_H_
#define SRC_BLKDRV_BLKFRONT_H_

#include <array>
#include <bit>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/blk/blkif.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"

namespace kite {

class Blkfront {
 public:
  using IoCallback = std::function<void(bool ok)>;

  Blkfront(Domain* guest, DomId backend_dom, int devid,
           std::function<void()> on_connected = nullptr);
  ~Blkfront();

  Blkfront(const Blkfront&) = delete;
  Blkfront& operator=(const Blkfront&) = delete;

  // offset/length must be sector-aligned. `out` may be null when the caller
  // does not need the bytes (cost accounting still applies); when non-null
  // it is resized and filled on completion.
  void Read(int64_t offset, size_t length, Buffer* out, IoCallback cb);
  void Write(int64_t offset, Buffer data, IoCallback cb);
  void Flush(IoCallback cb);

  bool connected() const { return connected_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  int devid() const { return devid_; }
  Domain* guest() const { return guest_; }
  DomId backend_dom() const { return backend_dom_; }
  bool indirect_supported() const { return max_indirect_ > 0; }
  bool persistent_supported() const { return persistent_; }

  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t indirect_requests() const { return indirect_requests_; }
  uint64_t ops_completed() const { return ops_completed_; }
  size_t queued_chunks() const { return queue_.size(); }
  // Granted data pages not held by an in-flight request (the whole pool
  // when idle; 0 before the first connect).
  size_t free_pool_pages() const { return free_pages_.size(); }
  // Completed reconnects to a fresh backend after the old one died.
  uint64_t recoveries() const { return recoveries_; }
  // Unacknowledged ring requests requeued across a backend death. Unlike
  // netfront, blkfront never drops: a write that was never acknowledged must
  // eventually execute, or the caller would see success-after-timeout races.
  uint64_t requests_requeued() const { return requests_requeued_; }

 private:
  // One logical Read/Write/Flush. Recycled through free_ops_; it is live
  // while it has chunks queued (chunks_pending) or requests on the ring
  // (outstanding), and returns to the free list as its callback fires.
  struct PendingOp {
    int outstanding = 0;     // Ring requests awaiting a response.
    int chunks_pending = 0;  // Chunks not yet submitted to the ring.
    bool ok = true;
    IoCallback cb;
    Buffer* out = nullptr;   // Read destination.
    Buffer data;             // Write source.
    int64_t base_offset = 0;
    size_t length = 0;
    bool is_read = false;
    int64_t start_ns = 0;    // When the op was enqueued (observability).
  };
  struct Chunk {
    PendingOp* op = nullptr;
    int64_t disk_offset = 0;
    size_t op_offset = 0;  // Byte offset within the op's buffer.
    size_t length = 0;
    bool is_flush = false;
  };
  // One ring request in flight (Linux blkfront's shadow[] entry). The slot
  // is free while op is null; page_ids keeps its capacity across reuse.
  struct Shadow {
    uint64_t id = 0;  // The request id the backend must echo.
    PendingOp* op = nullptr;
    std::vector<uint16_t> page_ids;
    size_t op_offset = 0;
    size_t length = 0;
    bool is_read = false;
    bool is_flush = false;
    uint16_t indirect_page_id = 0;
    bool used_indirect = false;
    int64_t submit_ns = 0;     // When the ring request was produced.
    uint32_t ring_index = 0;   // Free-running producer index (flow id).
  };
  // A request id is (sequence << kShadowBits) | slot: the slot gives O(1)
  // lookup, and the monotonic sequence makes a stale or repeated id differ
  // from the id the slot holds now.
  static constexpr int kShadowBits = std::countr_zero(kBlkRingSize);
  static_assert(std::has_single_bit(kBlkRingSize), "shadow ids need a power-of-two ring");

  void OnBackendStateChange();
  void HandleBackendDeath();
  void OnToolstackRelink();
  void WatchBackendState();
  void PublishAndInitialise();
  void OnIrq();
  PendingOp* AllocOp();
  void EnqueueOp(PendingOp* op, bool is_flush);
  void PumpQueue();
  bool SubmitChunk(const Chunk& chunk);
  void CompleteRequest(uint64_t id, bool ok);
  void FinishOpPart(PendingOp* op, bool ok);
  // Marks every shadow slot free, in the order SubmitChunk takes them.
  void ResetShadow();

  Domain* guest_;
  Hypervisor* hv_;
  DomId backend_dom_;
  int devid_;
  std::function<void()> on_connected_;
  bool connected_ = false;
  bool published_ = false;

  std::string frontend_path_;
  std::string backend_path_;
  WatchId backend_watch_ = 0;
  WatchId relink_watch_ = 0;
  bool backend_was_live_ = false;
  // Outlives `this` so posted retries can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Negotiated backend features.
  int64_t capacity_bytes_ = 0;
  bool persistent_ = false;
  bool flush_supported_ = false;
  int max_indirect_ = 0;

  PageRef ring_page_;
  std::shared_ptr<BlkSharedRing> shared_;
  std::unique_ptr<BlkFrontRing> ring_;
  GrantRef ring_gref_ = kInvalidGrantRef;
  EvtPort port_ = kInvalidPort;

  // Persistent data-page pool.
  struct PoolPage {
    PageRef page;
    GrantRef gref = kInvalidGrantRef;
  };
  std::vector<PoolPage> pool_;
  std::vector<uint16_t> free_pages_;
  std::vector<PoolPage> indirect_pool_;
  std::vector<uint16_t> free_indirect_;

  std::array<Shadow, kBlkRingSize> shadow_;
  std::vector<uint32_t> free_shadow_;  // LIFO.
  uint64_t next_seq_ = 1;              // Never 0, so no issued id is 0.
  std::deque<Chunk> queue_;
  // Owns every PendingOp ever allocated; free_ops_ holds the idle ones.
  std::vector<std::unique_ptr<PendingOp>> ops_;
  std::vector<PendingOp*> free_ops_;

  SimDuration per_request_cost_ = Nanos(1500);
  double copy_ns_per_byte_ = 0.05;  // ~20 GB/s guest memcpy.

  uint64_t requests_sent_ = 0;
  uint64_t indirect_requests_ = 0;
  uint64_t ops_completed_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t requests_requeued_ = 0;

  // Registry-backed under (guest domain, xvdN, <name>), ns values:
  // ring request submit → response consumed, and op enqueue → op callback.
  LatencyHistogram* req_ring_ns_;
  LatencyHistogram* op_complete_ns_;
};

}  // namespace kite

#endif  // SRC_BLKDRV_BLKFRONT_H_
