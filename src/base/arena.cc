#include "src/base/arena.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#define MSMOE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSMOE_ASAN 1
#endif
#endif
#if defined(MSMOE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

#include "src/base/logging.h"

namespace msmoe {
namespace {

// Under AddressSanitizer the bytes no caller asked for are poisoned: the
// slack of a pooled block past its requested size, whole blocks while they
// sit on a free list, and a Workspace slot past its current request. So an
// overrun inside the rounded size class, or a use of a released block, is
// reported. In other builds both are empty.
#if defined(MSMOE_ASAN)
void Poison(void* p, int64_t bytes) {
  __asan_poison_memory_region(p, static_cast<size_t>(bytes));
}
void Unpoison(void* p, int64_t bytes) {
  __asan_unpoison_memory_region(p, static_cast<size_t>(bytes));
}
#else
void Poison(void*, int64_t) {}
void Unpoison(void*, int64_t) {}
#endif

// Makes [p, p + bytes) usable and poisons the rest of the block's capacity.
void ExposeOnly(void* p, int64_t bytes, int64_t capacity) {
  Unpoison(p, bytes);
  Poison(static_cast<char*>(p) + bytes, capacity - bytes);
}

constexpr int kMinClassLog2 = 6;   // 64-byte minimum class, matches alignment
constexpr int kMaxClassLog2 = 44;  // 16 TiB ceiling — a size guard, not a target
constexpr int kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
constexpr int kMaxPhases = 32;  // last slot reserved for "other"

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

int64_t ClassBytes(int c) { return int64_t{1} << (c + kMinClassLog2); }

int ClassIndex(int64_t bytes) {
  if (bytes <= ClassBytes(0)) return 0;
  const int log2 = 64 - std::countl_zero(static_cast<uint64_t>(bytes) - 1);
  MSMOE_CHECK_LE(log2, kMaxClassLog2) << "arena acquire too large: " << bytes << " bytes";
  return log2 - kMinClassLog2;
}

struct PhaseStats {
  const char* name = nullptr;
  std::atomic<uint64_t> acquires{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> heap_allocs{0};
  std::atomic<uint64_t> acquired_bytes{0};
};

struct ArenaState {
  struct Bucket {
    std::mutex mu;
    std::vector<void*> free_list;
  };
  Bucket buckets[kNumClasses];

  std::atomic<bool> pooling{true};
  std::atomic<uint64_t> acquires{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> heap_allocs{0};
  std::atomic<uint64_t> releases{0};
  std::atomic<uint64_t> acquired_bytes{0};
  std::atomic<uint64_t> heap_bytes{0};
  std::atomic<int64_t> live_bytes{0};
  std::atomic<int64_t> high_water_bytes{0};

  std::mutex phase_mu;                // serializes registration only
  std::atomic<int> num_phases{0};     // readers scan [0, num_phases) lock-free
  PhaseStats phases[kMaxPhases];
};

// Intentionally leaked: pooled rank/comm threads can release buffers during
// process teardown, after static destructors would have run.
ArenaState& Global() {
  static ArenaState* arena = new ArenaState();
  return *arena;
}

thread_local PhaseStats* tls_phase = nullptr;

PhaseStats* ResolvePhase(const char* name) {
  ArenaState& a = Global();
  const int n = a.num_phases.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    if (a.phases[i].name == name || std::strcmp(a.phases[i].name, name) == 0) {
      return &a.phases[i];
    }
  }
  std::lock_guard<std::mutex> lock(a.phase_mu);
  const int now = a.num_phases.load(kRelaxed);
  for (int i = n; i < now; ++i) {  // re-check slots registered while racing
    if (std::strcmp(a.phases[i].name, name) == 0) return &a.phases[i];
  }
  if (now >= kMaxPhases - 1) {  // fold overflow into the reserved last slot
    PhaseStats* other = &a.phases[kMaxPhases - 1];
    if (other->name == nullptr) {
      other->name = "other";
      a.num_phases.store(kMaxPhases, std::memory_order_release);
    }
    return other;
  }
  a.phases[now].name = name;
  a.num_phases.store(now + 1, std::memory_order_release);
  return &a.phases[now];
}

}  // namespace

void* ArenaAcquire(int64_t bytes) {
  if (bytes <= 0) return nullptr;
  ArenaState& a = Global();
  const int c = ClassIndex(bytes);
  const int64_t class_bytes = ClassBytes(c);

  a.acquires.fetch_add(1, kRelaxed);
  a.acquired_bytes.fetch_add(static_cast<uint64_t>(bytes), kRelaxed);
  PhaseStats* phase = tls_phase;
  if (phase != nullptr) {
    phase->acquires.fetch_add(1, kRelaxed);
    phase->acquired_bytes.fetch_add(static_cast<uint64_t>(bytes), kRelaxed);
  }

  void* p = nullptr;
  if (a.pooling.load(kRelaxed)) {
    ArenaState::Bucket& bucket = a.buckets[c];
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (!bucket.free_list.empty()) {
      p = bucket.free_list.back();
      bucket.free_list.pop_back();
    }
  }
  if (p != nullptr) {
    a.pool_hits.fetch_add(1, kRelaxed);
    if (phase != nullptr) phase->pool_hits.fetch_add(1, kRelaxed);
  } else {
    p = std::aligned_alloc(64, static_cast<size_t>(class_bytes));
    MSMOE_CHECK(p != nullptr) << "arena: out of memory acquiring " << class_bytes << " bytes";
    a.heap_allocs.fetch_add(1, kRelaxed);
    a.heap_bytes.fetch_add(static_cast<uint64_t>(class_bytes), kRelaxed);
    if (phase != nullptr) phase->heap_allocs.fetch_add(1, kRelaxed);
  }
  ExposeOnly(p, bytes, class_bytes);

  const int64_t live = a.live_bytes.fetch_add(class_bytes, kRelaxed) + class_bytes;
  int64_t hw = a.high_water_bytes.load(kRelaxed);
  while (live > hw && !a.high_water_bytes.compare_exchange_weak(hw, live, kRelaxed)) {
  }
  return p;
}

void ArenaRelease(void* p, int64_t bytes) {
  if (p == nullptr) return;
  MSMOE_CHECK_GT(bytes, 0);
  ArenaState& a = Global();
  const int c = ClassIndex(bytes);
  a.releases.fetch_add(1, kRelaxed);
  a.live_bytes.fetch_sub(ClassBytes(c), kRelaxed);
  if (a.pooling.load(kRelaxed)) {
    Poison(p, ClassBytes(c));
    ArenaState::Bucket& bucket = a.buckets[c];
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.free_list.push_back(p);
    return;
  }
  Unpoison(p, ClassBytes(c));
  std::free(p);
}

void SetArenaPoolingEnabled(bool enabled) { Global().pooling.store(enabled, kRelaxed); }

bool ArenaPoolingEnabled() { return Global().pooling.load(kRelaxed); }

void ArenaTrim() {
  ArenaState& a = Global();
  for (int c = 0; c < kNumClasses; ++c) {
    ArenaState::Bucket& bucket = a.buckets[c];
    std::lock_guard<std::mutex> lock(bucket.mu);
    for (void* p : bucket.free_list) {
      Unpoison(p, ClassBytes(c));
      std::free(p);
    }
    bucket.free_list.clear();
  }
}

MemStatsSnapshot GetMemStats() {
  ArenaState& a = Global();
  MemStatsSnapshot out;
  out.acquires = a.acquires.load(kRelaxed);
  out.pool_hits = a.pool_hits.load(kRelaxed);
  out.heap_allocs = a.heap_allocs.load(kRelaxed);
  out.releases = a.releases.load(kRelaxed);
  out.acquired_bytes = a.acquired_bytes.load(kRelaxed);
  out.heap_bytes = a.heap_bytes.load(kRelaxed);
  out.live_bytes = a.live_bytes.load(kRelaxed);
  out.high_water_bytes = a.high_water_bytes.load(kRelaxed);
  const int n = a.num_phases.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const PhaseStats& p = a.phases[i];
    if (p.name == nullptr) continue;
    MemPhaseSnapshot snap;
    snap.name = p.name;
    snap.acquires = p.acquires.load(kRelaxed);
    snap.pool_hits = p.pool_hits.load(kRelaxed);
    snap.heap_allocs = p.heap_allocs.load(kRelaxed);
    snap.acquired_bytes = p.acquired_bytes.load(kRelaxed);
    out.phases.push_back(std::move(snap));
  }
  return out;
}

void ResetMemStats() {
  ArenaState& a = Global();
  a.acquires.store(0, kRelaxed);
  a.pool_hits.store(0, kRelaxed);
  a.heap_allocs.store(0, kRelaxed);
  a.releases.store(0, kRelaxed);
  a.acquired_bytes.store(0, kRelaxed);
  a.heap_bytes.store(0, kRelaxed);
  a.high_water_bytes.store(a.live_bytes.load(kRelaxed), kRelaxed);
  const int n = a.num_phases.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    a.phases[i].acquires.store(0, kRelaxed);
    a.phases[i].pool_hits.store(0, kRelaxed);
    a.phases[i].heap_allocs.store(0, kRelaxed);
    a.phases[i].acquired_bytes.store(0, kRelaxed);
  }
}

MemStatsSnapshot MemStatsDelta(const MemStatsSnapshot& before,
                               const MemStatsSnapshot& after) {
  MemStatsSnapshot out;
  out.acquires = after.acquires - before.acquires;
  out.pool_hits = after.pool_hits - before.pool_hits;
  out.heap_allocs = after.heap_allocs - before.heap_allocs;
  out.releases = after.releases - before.releases;
  out.acquired_bytes = after.acquired_bytes - before.acquired_bytes;
  out.heap_bytes = after.heap_bytes - before.heap_bytes;
  out.live_bytes = after.live_bytes;
  out.high_water_bytes = after.high_water_bytes;
  for (const MemPhaseSnapshot& phase : after.phases) {
    const MemPhaseSnapshot* base = nullptr;
    for (const MemPhaseSnapshot& candidate : before.phases) {
      if (candidate.name == phase.name) {
        base = &candidate;
        break;
      }
    }
    MemPhaseSnapshot delta;
    delta.name = phase.name;
    delta.acquires = phase.acquires - (base != nullptr ? base->acquires : 0);
    delta.pool_hits = phase.pool_hits - (base != nullptr ? base->pool_hits : 0);
    delta.heap_allocs =
        phase.heap_allocs - (base != nullptr ? base->heap_allocs : 0);
    delta.acquired_bytes =
        phase.acquired_bytes - (base != nullptr ? base->acquired_bytes : 0);
    out.phases.push_back(std::move(delta));
  }
  return out;
}

MemoryScope::MemoryScope(const char* phase) {
  previous_ = tls_phase;
  tls_phase = ResolvePhase(phase);
}

MemoryScope::~MemoryScope() { tls_phase = static_cast<PhaseStats*>(previous_); }

PooledBuffer::~PooledBuffer() { ArenaReleaseFloats(data_, capacity_); }

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.capacity_ = 0;
}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    ArenaReleaseFloats(data_, capacity_);
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  return *this;
}

void PooledBuffer::Resize(int64_t count) {
  MSMOE_CHECK_GE(count, 0);
  if (count > capacity_) {
    ArenaReleaseFloats(data_, capacity_);
    data_ = ArenaAcquireFloats(count);
    capacity_ = count;
  }
  size_ = count;
}

Workspace::~Workspace() {
  for (auto& [tag, entry] : slots_) {
    ArenaRelease(entry.data, entry.capacity);
  }
}

void* Workspace::Slot(const char* tag, int64_t bytes) {
  Entry& entry = slots_[std::string(tag)];
  if (bytes > entry.capacity) {
    ArenaRelease(entry.data, entry.capacity);
    entry.data = ArenaAcquire(bytes);
    entry.capacity = bytes;
  } else if (entry.data != nullptr) {
    ExposeOnly(entry.data, bytes, entry.capacity);
  }
  return entry.data;
}

float* Workspace::Floats(const char* tag, int64_t count) {
  return static_cast<float*>(Slot(tag, count * static_cast<int64_t>(sizeof(float))));
}

double* Workspace::Doubles(const char* tag, int64_t count) {
  return static_cast<double*>(Slot(tag, count * static_cast<int64_t>(sizeof(double))));
}

uint8_t* Workspace::Bytes(const char* tag, int64_t count) {
  return static_cast<uint8_t*>(Slot(tag, count));
}

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace msmoe
