// Tuple representation shared by the API, engine, and legacy modes.
//
// BriskStream passes tuples by reference inside one address space
// (Appendix A): producers allocate tuples, enqueue shared_ptr-like
// handles, and consumers read the producer-owned storage. The "jumbo
// tuple" (§5.2) batches many tuples under one shared header so a batch
// costs a single queue insertion and one header.
//
// The layout is built for zero steady-state allocation on the emit
// path: a Field is a 32-byte tagged union with small-string
// optimization (strings up to Field::kInlineStringCap chars live
// inside the field), and a Tuple keeps up to kInlineTupleFields fields
// inline (spilling to the heap only beyond that). Constructing, moving
// and routing a tuple of any bundled app therefore touches no
// allocator. The inline capacity is sized to the widest bundled tuple
// (Linear Road's 5-field position report) because a spill is more than
// one malloc: a block allocated on one worker is often freed on
// another, and glibc's arena lock then makes both workers sleep.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/inline_vec.h"

namespace brisk {

/// One field of a tuple: int64, double, or a small-string-optimized
/// string (the streaming workloads here carry integers, readings, and
/// short keys like words or account ids). The discriminator follows
/// the old std::variant<int64_t, double, std::string> order, so
/// index() values and the wire codec are unchanged.
class Field {
 public:
  /// Longest string stored inline (no heap). Covers every word_count
  /// word and fraud/LR key; full sentences spill to one heap block.
  static constexpr size_t kInlineStringCap = 22;

  Field() noexcept { payload_.i = 0; }
  Field(double v) noexcept : kind_(Kind::kDouble) { payload_.d = v; }
  /// Any integer or (unscoped) enum type maps to the int64 alternative
  /// (a plain `Field(int64_t)` overload would be ambiguous against
  /// double for literal ints and enums, which the old variant resolved
  /// to int64_t).
  template <typename I,
            std::enable_if_t<std::is_integral_v<I> || std::is_enum_v<I>,
                             int> = 0>
  Field(I v) noexcept {
    payload_.i = static_cast<int64_t>(v);
  }
  Field(std::string_view s) { InitString(s); }
  Field(const std::string& s) { InitString(s); }
  Field(const char* s) { InitString(s); }

  Field(const Field& o) { CopyFrom(o); }
  Field(Field&& o) noexcept { TakeFrom(o); }
  Field& operator=(const Field& o) {
    if (this != &o) {
      Release();
      CopyFrom(o);
    }
    return *this;
  }
  Field& operator=(Field&& o) noexcept {
    if (this != &o) {
      Release();
      TakeFrom(o);
    }
    return *this;
  }
  ~Field() { Release(); }

  /// Alternative index, variant-compatible: 0=int64, 1=double, 2=string.
  size_t index() const { return static_cast<size_t>(kind_); }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors. Unchecked: reading the wrong alternative is a
  /// programming error (the old std::get threw; the hot path cannot
  /// afford the branch).
  int64_t AsInt() const { return payload_.i; }
  double AsDouble() const { return payload_.d; }
  std::string_view AsString() const {
    return small_len_ == kHeapMark
               ? std::string_view(payload_.heap.data, payload_.heap.size)
               : std::string_view(payload_.small, small_len_);
  }

 private:
  enum class Kind : uint8_t { kInt = 0, kDouble = 1, kString = 2 };
  static constexpr uint8_t kHeapMark = 0xFF;

  struct HeapStr {
    char* data;
    uint64_t size;
  };
  union Payload {
    int64_t i;
    double d;
    char small[kInlineStringCap];
    HeapStr heap;
  };

  bool OwnsHeap() const {
    return kind_ == Kind::kString && small_len_ == kHeapMark;
  }

  void InitString(std::string_view s) {
    kind_ = Kind::kString;
    if (s.size() <= kInlineStringCap) {
      small_len_ = static_cast<uint8_t>(s.size());
      if (!s.empty()) std::memcpy(payload_.small, s.data(), s.size());
    } else {
      char* block = static_cast<char*>(::operator new(s.size()));
      // Mark heap ownership only once the allocation succeeded, so a
      // throwing `operator new` cannot leave a dangling heap mark.
      small_len_ = kHeapMark;
      payload_.heap.data = block;
      payload_.heap.size = s.size();
      std::memcpy(block, s.data(), s.size());
    }
  }

  void CopyFrom(const Field& o) {
    if (o.OwnsHeap()) {
      InitString(o.AsString());
    } else {
      payload_ = o.payload_;
      kind_ = o.kind_;
      small_len_ = o.small_len_;
    }
  }

  /// Moves o's value in; o is left holding an empty inline string (or
  /// its scalar, which moving cannot invalidate).
  void TakeFrom(Field& o) noexcept {
    payload_ = o.payload_;
    kind_ = o.kind_;
    small_len_ = o.small_len_;
    if (o.OwnsHeap()) o.small_len_ = 0;
  }

  void Release() noexcept {
    if (OwnsHeap()) {
      ::operator delete(payload_.heap.data);
      // Drop the heap mark so a throw between Release() and the next
      // init (assignment paths) cannot leave a dangling owner.
      small_len_ = 0;
    }
  }

  Payload payload_;
  Kind kind_ = Kind::kInt;
  uint8_t small_len_ = 0;
};

static_assert(sizeof(Field) == 32, "Field layout regressed");

/// Returns the logical payload contribution of one field in bytes —
/// the model's per-tuple N. Independent of the in-memory layout (an
/// inline and a spilled string of equal length report the same size),
/// so the cost model and simulator stay consistent across layout
/// changes.
size_t FieldSizeBytes(const Field& f);

/// Inline field slots per tuple: the widest bundled tuple, Linear
/// Road's position report [type, vehicle, segment, speed, lane]. At 4
/// slots each report spilled about 7 times (spout, parser copy, and the
/// dispatcher's 5-route fan-out), and blocks freed on the other socket's
/// worker contended glibc's arena lock. On a 4-vCPU Xeon, LR ran at
/// 0.89M tuples/s with ~20k voluntary context switches/s at 4 slots,
/// and at 1.51M tuples/s with ~50/s at 5. The extra slot costs 32 B
/// per tuple (168 -> 200 B).
inline constexpr size_t kInlineTupleFields = 5;

/// A single stream tuple: a small inline vector of fields plus
/// provenance metadata used for latency accounting. Moving a Tuple
/// never allocates; copying allocates only for spilled fields.
struct Tuple {
  InlineVec<Field, kInlineTupleFields> fields;

  /// Wall-clock origin timestamp (ns since steady epoch) stamped by the
  /// spout; carried through so sinks can compute end-to-end latency.
  int64_t origin_ts_ns = 0;

  /// Output stream this tuple was emitted on (index into the producer's
  /// declared output streams; 0 = default stream).
  uint16_t stream_id = 0;

  Tuple() = default;
  explicit Tuple(std::initializer_list<Field> f) : fields(f) {}

  int64_t GetInt(size_t i) const { return fields[i].AsInt(); }
  double GetDouble(size_t i) const { return fields[i].AsDouble(); }
  std::string_view GetString(size_t i) const { return fields[i].AsString(); }

  /// Approximate serialized/in-memory size (the model's N).
  size_t SizeBytes() const;
};

static_assert(sizeof(Tuple) == 200, "Tuple layout regressed");

/// A batch of tuples sharing one header, from one producer to one
/// consumer (§5.2). The engine moves JumboTuples through SPSC queues;
/// pass-by-reference means the queue element is just a unique_ptr.
/// Batches are pooled: consumers hand drained batches back to the
/// producer through the channel's recycle queue (see engine/channel.h)
/// so steady state allocates nothing.
struct JumboTuple {
  /// Shared header: producer task id + batch sequence, representative of
  /// the metadata Storm would duplicate per tuple.
  int32_t producer_task = -1;
  uint64_t batch_seq = 0;

  std::vector<Tuple> tuples;

  /// Serialized payload for the legacy (Storm/Flink-like) modes —
  /// folded into the pooled batch so an Envelope is just the batch
  /// pointer plus trivially-movable scalars, and the legacy path
  /// recycles its byte buffers through the same pool. Empty in the
  /// pass-by-reference mode.
  std::vector<uint8_t> bytes;

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty() && bytes.empty(); }

  /// Readies a recycled batch for reuse; keeps capacity.
  void Reset() {
    tuples.clear();
    bytes.clear();
  }
};

using JumboTuplePtr = std::unique_ptr<JumboTuple>;

/// Stable hash for fields-grouping (same key → same consumer replica).
uint64_t HashField(const Field& f);

}  // namespace brisk
