// Per-socket hugepage-backed memory arena.
//
// One NumaArena serves one *plan* socket. It reserves memory in big
// mmap chunks (MAP_HUGETLB when the host grants it, otherwise a
// transparent-hugepage madvise), binds them to the matching physical
// node via mbind on real multi-node hosts (first-touch handles the
// rest), and carves allocations with a bump pointer plus power-of-two
// size-class free lists — so channel rings torn down by a live
// migration are recycled by the next epoch's WireGraph instead of
// growing the reservation.
//
// The arena is a std::pmr::memory_resource backing channel/SPSC ring
// slot storage, allocated on the consumer's socket by the runtime.
// JumboTuple batches are not placed here: their tuple storage is the
// producer's staging buffer (global allocator), and a channel
// allocates shells only until its recycle pool fills (see
// engine/channel.h), so placing the shell header would move nothing
// hot.
//
// Thread safety: one mutex per arena. Allocation is not on the
// steady-state hot path — rings are allocated at (re)wire time only.
//
// Lifetime rules: an arena never returns memory to the OS before
// destruction, so pointers into it stay valid for the runtime's whole
// life. The runtime owns its ArenaSet and declares it before channels,
// which makes the arenas the last thing destroyed — after every ring
// buffer that could point into them.
#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hardware/topology.h"

namespace brisk::hw {

/// The runtime's arena reservation granularity per mmap chunk: the
/// x86-64 2 MiB huge page.
inline constexpr size_t kArenaChunkBytes = size_t{2} << 20;

class NumaArena final : public std::pmr::memory_resource {
 public:
  /// `numa_node` < 0 skips binding (emulated sockets on a single-node
  /// host); `chunk_bytes` is the reservation granularity, rounded up
  /// per oversized request.
  NumaArena(int socket, int numa_node, size_t chunk_bytes);
  ~NumaArena() override;

  NumaArena(const NumaArena&) = delete;
  NumaArena& operator=(const NumaArena&) = delete;

  int socket() const { return socket_; }
  int numa_node() const { return node_; }

  /// True when at least one chunk got genuine MAP_HUGETLB backing.
  bool hugepage_backed() const;
  size_t bytes_reserved() const;
  /// Outstanding (not yet freed) bytes, size-class rounded.
  size_t bytes_in_use() const;

 protected:
  // std::pmr::memory_resource (ring storage).
  void* do_allocate(size_t bytes, size_t alignment) override;
  void do_deallocate(void* p, size_t bytes, size_t alignment) override;
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

 private:
  struct Chunk {
    void* base = nullptr;
    size_t len = 0;
    bool mmapped = false;  // munmap vs operator delete
  };

  bool MapChunk(size_t min_bytes);  // mu_ held

  const int socket_;
  const int node_;
  const size_t chunk_bytes_;

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  char* bump_ = nullptr;
  size_t bump_left_ = 0;
  /// Size-class free lists (class = pow2 >= kMinClassBytes).
  std::unordered_map<size_t, std::vector<void*>> free_;
  bool hugepages_ = false;
  size_t reserved_ = 0;
  size_t in_use_ = 0;
};

/// The runtime's arenas, one per plan socket, grown on demand as
/// migrations introduce new sockets (lifecycle-thread only; the
/// arenas themselves are thread-safe).
class ArenaSet {
 public:
  ArenaSet(HostTopology topology, size_t chunk_bytes);

  /// Negative sockets (unplaced instances) share socket 0's arena.
  NumaArena* ForSocket(int socket);

  const HostTopology& topology() const { return topo_; }
  int size() const { return static_cast<int>(arenas_.size()); }

 private:
  HostTopology topo_;
  size_t chunk_bytes_;
  std::vector<std::unique_ptr<NumaArena>> arenas_;
};

}  // namespace brisk::hw
