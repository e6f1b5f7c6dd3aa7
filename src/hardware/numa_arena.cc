#include "hardware/numa_arena.h"

#include <algorithm>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace brisk::hw {

namespace {

/// Smallest size class: one cache line pair, so neighboring small
/// allocations from different threads do not share a line.
constexpr size_t kMinClassBytes = 128;

size_t SizeClass(size_t bytes) {
  size_t cls = kMinClassBytes;
  while (cls < bytes) cls <<= 1;
  return cls;
}

/// Best-effort MPOL_PREFERRED bind; raw syscall so the fallback build
/// needs no numaif.h. Failure is ignored — first-touch still lands
/// pages on the worker's node in the common case.
void PreferNode(void* base, size_t len, int node) {
#if defined(__linux__) && defined(__NR_mbind)
  constexpr int kMpolPreferred = 1;
  const int bits = static_cast<int>(8 * sizeof(unsigned long));
  if (node < 0 || node >= bits) return;
  unsigned long mask = 1UL << node;
  syscall(__NR_mbind, base, len, kMpolPreferred, &mask,
          static_cast<unsigned long>(bits), 0UL);
#else
  (void)base;
  (void)len;
  (void)node;
#endif
}

}  // namespace

NumaArena::NumaArena(int socket, int numa_node, size_t chunk_bytes)
    : socket_(socket),
      node_(numa_node),
      chunk_bytes_(std::max<size_t>(chunk_bytes, 64 * 1024)) {}

NumaArena::~NumaArena() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Chunk& c : chunks_) {
#if defined(__unix__) || defined(__APPLE__)
    if (c.mmapped) {
      munmap(c.base, c.len);
      continue;
    }
#endif
    ::operator delete(c.base, std::align_val_t{kMinClassBytes});
  }
  chunks_.clear();
}

bool NumaArena::hugepage_backed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hugepages_;
}

size_t NumaArena::bytes_reserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

size_t NumaArena::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

bool NumaArena::MapChunk(size_t min_bytes) {
  size_t len = chunk_bytes_;
  while (len < min_bytes) len <<= 1;
  void* base = nullptr;
  bool mmapped = false;
#if defined(__unix__) || defined(__APPLE__)
#if defined(MAP_HUGETLB)
  base = mmap(nullptr, len, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
  if (base != MAP_FAILED) {
    hugepages_ = true;
    mmapped = true;
  } else {
    base = nullptr;
  }
#endif
  if (base == nullptr) {
    base = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base != MAP_FAILED) {
      mmapped = true;
#if defined(MADV_HUGEPAGE)
      madvise(base, len, MADV_HUGEPAGE);  // THP as the fallback backing
#endif
    } else {
      base = nullptr;
    }
  }
#endif
  if (base == nullptr) {
    // mmap unavailable/exhausted: plain heap chunk, still arena-pooled.
    base = ::operator new(len, std::align_val_t{kMinClassBytes},
                          std::nothrow);
    if (base == nullptr) return false;
  }
  if (mmapped) PreferNode(base, len, node_);
  chunks_.push_back(Chunk{base, len, mmapped});
  bump_ = static_cast<char*>(base);
  bump_left_ = len;
  reserved_ += len;
  return true;
}

void* NumaArena::do_allocate(size_t bytes, size_t alignment) {
  if (alignment > alignof(std::max_align_t)) {
    // Over-aligned rings are not a case the engine produces; defer to
    // the global allocator rather than complicating the size classes.
    return ::operator new(bytes, std::align_val_t{alignment});
  }
  const size_t cls = SizeClass(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = free_.find(cls);
  if (it != free_.end() && !it->second.empty()) {
    void* p = it->second.back();
    it->second.pop_back();
    in_use_ += cls;
    return p;
  }
  if (bump_left_ < cls && !MapChunk(cls)) throw std::bad_alloc();
  void* p = bump_;
  bump_ += cls;
  bump_left_ -= cls;
  in_use_ += cls;
  return p;
}

void NumaArena::do_deallocate(void* p, size_t bytes, size_t alignment) {
  if (alignment > alignof(std::max_align_t)) {
    ::operator delete(p, std::align_val_t{alignment});
    return;
  }
  if (p == nullptr) return;
  const size_t cls = SizeClass(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  free_[cls].push_back(p);
  in_use_ -= std::min(in_use_, cls);
}

ArenaSet::ArenaSet(HostTopology topology, size_t chunk_bytes)
    : topo_(std::move(topology)), chunk_bytes_(chunk_bytes) {}

NumaArena* ArenaSet::ForSocket(int socket) {
  const size_t index = static_cast<size_t>(std::max(0, socket));
  while (arenas_.size() <= index) {
    const int plan_socket = static_cast<int>(arenas_.size());
    const int node = topo_.real ? plan_socket % topo_.nodes : -1;
    arenas_.push_back(
        std::make_unique<NumaArena>(plan_socket, node, chunk_bytes_));
  }
  return arenas_[index].get();
}

}  // namespace brisk::hw
