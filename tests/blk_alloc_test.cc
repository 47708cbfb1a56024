// Heap-allocation budget for the guest block I/O path: SimpleFs → blkfront →
// blkback → NVMe model. This binary replaces the global operator new with a
// counting one, so it must stay its own executable.
//
// The steady-state path keeps its per-I/O state in reused slots (blkfront's
// shadow array and op free list, blkback's request and run slot tables, the
// disk's started-request slots), so what remains per 4 KB I/O is the write
// payload Buffer SimpleFs hands to Blkfront::Write, the disk completion's
// boxed std::function (its `alive` capture is a shared_ptr), and the odd
// deque node. Measured with this mix (3:2 read:write, 4 closed-loop
// threads): 1.96 allocations per I/O; the map- and shared_ptr-based path
// this replaced measured 13.1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/kite.h"
#include "src/workloads/fs.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form is defined, so no allocation pairs a library new
// with this file's delete (or the reverse).
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace kite {
namespace {

constexpr int kFiles = 64;
constexpr int64_t kFileBytes = 4LL << 20;
constexpr size_t kBlockBytes = 4096;
constexpr int kThreads = 4;
constexpr uint64_t kWarmupOps = 2000;
constexpr uint64_t kMeasuredOps = 10000;
constexpr double kMaxAllocationsPerIo = 3.0;

// Closed loop of random 4 KB reads and writes (3:2) over a file set; each
// completion issues the thread's next I/O, as sysbench fileio does. Counts
// process-wide allocations between the end of warm-up and the last measured
// completion.
class ClosedLoop {
 public:
  ClosedLoop(SimpleFs* fs, const std::vector<std::string>* names)
      : fs_(fs), names_(names) {}

  void Start() {
    for (int i = 0; i < kThreads; ++i) {
      Issue();
    }
  }

  bool finished() const { return running_ == 0; }
  uint64_t failed() const { return failed_; }
  uint64_t measured_allocations() const { return end_allocs_ - start_allocs_; }

 private:
  void Issue() {
    if (completed_ + in_flight_ >= kWarmupOps + kMeasuredOps) {
      --running_;
      return;
    }
    ++in_flight_;
    const std::string& name = (*names_)[rng_.NextBelow(names_->size())];
    const int64_t offset =
        static_cast<int64_t>(rng_.NextBelow(kFileBytes / kBlockBytes) * kBlockBytes);
    auto done = [this](bool ok) { OnDone(ok); };
    if (rng_.NextBool(0.6)) {
      fs_->Read(name, offset, kBlockBytes, done);
    } else {
      fs_->Write(name, offset, kBlockBytes, done);
    }
  }

  void OnDone(bool ok) {
    --in_flight_;
    failed_ += ok ? 0 : 1;
    ++completed_;
    if (completed_ == kWarmupOps) {
      start_allocs_ = g_allocations.load(std::memory_order_relaxed);
    }
    if (completed_ == kWarmupOps + kMeasuredOps) {
      end_allocs_ = g_allocations.load(std::memory_order_relaxed);
    }
    Issue();
  }

  SimpleFs* fs_;
  const std::vector<std::string>* names_;
  Rng rng_{42};
  int running_ = kThreads;
  uint64_t in_flight_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t start_allocs_ = 0;
  uint64_t end_allocs_ = 0;
};

TEST(BlkAllocTest, SteadyStateFileIoStaysWithinAllocationBudget) {
  KiteSystem::Params params;
  params.disk.capacity_bytes = 2LL << 30;
  params.disk_store_data = false;
  KiteSystem sys(params);
  StorageDomain* stordom = sys.CreateStorageDomain(DriverDomainConfig{});
  GuestVm* guest = sys.CreateGuest("fileio-vm");
  sys.AttachVbd(guest, stordom);
  ASSERT_TRUE(sys.WaitConnected(guest));

  SimpleFs fs(guest->blkfront());
  ASSERT_TRUE(fs.CreateMany("f.", kFiles, kFileBytes));
  std::vector<std::string> names;
  for (int i = 0; i < kFiles; ++i) {
    names.push_back(StrFormat("f.%06d", i));
  }

  ClosedLoop loop(&fs, &names);
  loop.Start();
  ASSERT_TRUE(sys.WaitUntil([&] { return loop.finished(); }, Seconds(60)));
  EXPECT_EQ(loop.failed(), 0u);

  const double per_io =
      static_cast<double>(loop.measured_allocations()) / static_cast<double>(kMeasuredOps);
  RecordProperty("allocations_per_io", std::to_string(per_io));
  EXPECT_LE(per_io, kMaxAllocationsPerIo)
      << loop.measured_allocations() << " allocations over " << kMeasuredOps << " I/Os";
}

}  // namespace
}  // namespace kite
