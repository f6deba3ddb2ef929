#pragma once
// tau::TraceBuffer — the bounded flight recorder behind the Registry's
// tracing measurement option ("The TAU implementation ... supports both
// profiling and tracing measurement options", paper §4.1).
//
// The seed's trace was an unbounded std::vector of (t, id, enter) tuples:
// fine for unit tests, fatal for the ROADMAP's production-scale runs where
// a rank emits millions of events per second. The buffer here is a
// fixed-capacity ring: pushes never allocate after the first, the oldest
// events are overwritten when the ring is full (flight-recorder semantics
// — the most recent window survives), and every overwrite is counted so
// consumers can report exactly how much history was lost.
//
// Storage is split in two rings. Every event takes a 16 B slot (t_us, id,
// kind, flags) in the main ring; only an event whose message/argument
// fields differ from the defaults (message endpoints, counter samples,
// enters carrying an argument) also takes a 24 B slot in a side ring,
// which drops its oldest entry when the main ring overwrites such an
// event. Plain enters and exits — most of a traced step — cost 16 B; the
// worst case (every event wide) stays at 40 B x capacity. Readers see the
// decoded 40 B TraceRecord through for_each, oldest to newest.
//
// One record type carries five event kinds:
//   enter/exit — timer activations (id = TimerId);
//   instant    — point annotations (id = trace-string index);
//   counter    — hardware-counter samples (id = counter index, value());
//   msg_send/msg_recv — point-to-point message endpoints carrying
//     (peer world rank, tag, bytes, per-(src,dst) sequence number), the
//     key the cross-rank merger uses to draw deterministic flow arrows.
//
// The ring is the only mode: a capacity of 0 raises. A caller that must
// not drop sizes the ring to hold the whole run.

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "support/error.hpp"

namespace tau {

enum class TraceKind : std::uint8_t {
  enter = 0,
  exit = 1,
  instant = 2,
  counter = 3,
  msg_send = 4,
  msg_recv = 5,
};

/// One trace event, as pushed and as read back. Field meaning depends on
/// `kind`; unused fields stay at their defaults so records compare
/// deterministically.
struct TraceRecord {
  double t_us = 0.0;        ///< microseconds since the trace epoch
  std::uint64_t payload = 0;  ///< msg: bytes; counter/arg: value bit pattern
  std::uint64_t seq = 0;    ///< msg: per-(src,dst) sequence number (1-based)
  std::uint32_t id = 0;     ///< enter/exit: TimerId; counter: counter index;
                            ///< instant: trace-string index
  std::int32_t peer = -1;   ///< msg: the other endpoint's world rank
  std::int32_t tag = 0;     ///< msg: tag; enter with kHasArg: arg-name string
  TraceKind kind = TraceKind::enter;
  std::uint8_t flags = 0;

  /// Event fabricated for balance (enter at epoch for an activation already
  /// open when tracing started, exit for one still open when it stopped).
  static constexpr std::uint8_t kSynthetic = 1;
  /// Enter record carries a slice argument: name trace-string in `tag`,
  /// value bits in `payload` (e.g. the monitored method's Q).
  static constexpr std::uint8_t kHasArg = 2;

  bool is_enter() const { return kind == TraceKind::enter; }
  bool is_exit() const { return kind == TraceKind::exit; }
  bool synthetic() const { return (flags & kSynthetic) != 0; }
  bool has_arg() const { return (flags & kHasArg) != 0; }

  double value() const { return std::bit_cast<double>(payload); }
  void set_value(double v) { payload = std::bit_cast<std::uint64_t>(v); }
};

static_assert(sizeof(TraceRecord) == 40, "trace records must stay compact");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "trace records are raw-copied into snapshots");

class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  // <= 2.5 MiB/rank

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity) {
    set_capacity(capacity);
  }

  /// Configured bound in events; raises on 0. Changing the capacity clears
  /// the buffer.
  void set_capacity(std::size_t events) {
    CCAPERF_REQUIRE(events >= 1, "TraceBuffer: capacity must be >= 1 event");
    capacity_ = events;
    clear();
    ring_.shrink_to_fit();
    side_.shrink_to_fit();
  }
  std::size_t capacity() const { return capacity_; }

  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Events ever pushed (retained + dropped).
  std::uint64_t total() const { return total_; }
  /// Oldest events overwritten because the ring was full.
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  /// Bytes of ring storage written since the last clear: 16 B per retained
  /// event plus 24 B per side slot; never above 40 B x capacity().
  std::size_t memory_bytes() const {
    return ring_.size() * sizeof(Slot) + side_.size() * sizeof(Side);
  }

  void clear() {
    ring_.clear();
    side_.clear();
    head_ = 0;
    side_head_ = 0;
    side_size_ = 0;
    total_ = 0;
  }

  void push(const TraceRecord& r) {
    ++total_;
    const Side side{r.payload, r.seq, r.peer, r.tag};
    const Slot slot{r.t_us, r.id, r.kind, r.flags, !side.is_default()};
    if (ring_.size() < capacity_) {
      if (ring_.capacity() == 0) ring_.reserve(capacity_);
      ring_.push_back(slot);
    } else {
      // Overwrite the oldest retained event, and its side fields with it.
      if (ring_[head_].wide) side_pop();
      ring_[head_] = slot;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    if (slot.wide) side_push(side);
  }

  /// Attaches a slice argument (name trace-string, value) to the newest
  /// record if it is an enter; a second call replaces the first.
  void attach_arg(std::uint32_t name_string, double value) {
    if (ring_.empty()) return;
    Slot& last = ring_[head_ == 0 ? ring_.size() - 1 : head_ - 1];
    if (last.kind != TraceKind::enter) return;
    last.flags |= TraceRecord::kHasArg;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const auto tag = static_cast<std::int32_t>(name_string);
    if (!last.wide) {
      last.wide = true;
      side_push(Side{bits, 0, -1, tag});
      return;
    }
    Side& s = side_[side_index(side_size_ - 1)];
    s.payload = bits;
    s.tag = tag;
  }

  /// Calls f(const TraceRecord&) on every retained event, oldest first.
  template <class F>
  void for_each(F&& f) const {
    const std::size_t n = ring_.size();
    std::size_t s = side_head_;
    for (std::size_t k = 0, i = head_; k < n; ++k) {
      const Slot& e = ring_[i];
      TraceRecord r;
      r.t_us = e.t_us;
      r.id = e.id;
      r.kind = e.kind;
      r.flags = e.flags;
      if (e.wide) {
        const Side& x = side_[s];
        r.payload = x.payload;
        r.seq = x.seq;
        r.peer = x.peer;
        r.tag = x.tag;
        s = s + 1 == capacity_ ? 0 : s + 1;
      }
      f(r);
      i = i + 1 == n ? 0 : i + 1;
    }
  }

 private:
  /// The fields every event has. `wide` marks an event whose side fields
  /// differ from TraceRecord's defaults and so hold the next side slot.
  struct Slot {
    double t_us;
    std::uint32_t id;
    TraceKind kind;
    std::uint8_t flags;
    bool wide;
  };
  struct Side {
    std::uint64_t payload = 0;
    std::uint64_t seq = 0;
    std::int32_t peer = -1;
    std::int32_t tag = 0;
    bool is_default() const { return payload == 0 && seq == 0 && peer == -1 && tag == 0; }
  };
  static_assert(sizeof(Slot) == 16 && sizeof(Side) == 24,
                "a narrow event costs 16 B, a wide one 40 B");

  /// Slot of the k-th live side entry, 0 = oldest.
  std::size_t side_index(std::size_t k) const {
    const std::size_t at = side_head_ + k;
    return at >= capacity_ ? at - capacity_ : at;
  }

  void side_pop() {
    side_head_ = side_index(1);
    --side_size_;
  }

  /// Appends at the tail. The side ring has capacity() slots, shaped like
  /// the main ring: it appends until the tail first reaches capacity(),
  /// then writes in place. Live side entries never outnumber retained
  /// events, so the tail never overtakes the head.
  void side_push(const Side& x) {
    const std::size_t tail = side_index(side_size_);
    if (tail == side_.size()) {
      if (side_.capacity() == 0) side_.reserve(capacity_);
      side_.push_back(x);
    } else {
      side_[tail] = x;
    }
    ++side_size_;
  }

  std::size_t capacity_ = kDefaultCapacity;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::vector<Side> side_;
  std::size_t side_head_ = 0;  ///< slot of the oldest live side entry
  std::size_t side_size_ = 0;  ///< live side entries = wide retained events
  std::uint64_t total_ = 0;
};

}  // namespace tau
