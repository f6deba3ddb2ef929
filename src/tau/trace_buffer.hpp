#pragma once
// tau::TraceBuffer — the bounded flight recorder behind the Registry's
// tracing measurement option ("The TAU implementation ... supports both
// profiling and tracing measurement options", paper §4.1).
//
// The seed's trace was an unbounded std::vector of (t, id, enter) tuples:
// fine for unit tests, fatal for the ROADMAP's production-scale runs where
// a rank emits millions of events per second. The buffer here is a
// fixed-capacity ring of compact binary records (40 B, trivially
// copyable): pushes never allocate after the first, the oldest events are
// overwritten when the ring is full (flight-recorder semantics — the most
// recent window survives), and every overwrite is counted so consumers can
// report exactly how much history was lost.
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

/// One compact binary trace event. Field meaning depends on `kind`; unused
/// fields stay at their defaults so records compare deterministically.
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
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  // 2.5 MiB/rank

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity) {
    set_capacity(capacity);
  }

  /// Configured bound in events; raises on 0. Changing the capacity clears
  /// the buffer.
  void set_capacity(std::size_t events) {
    CCAPERF_REQUIRE(events >= 1, "TraceBuffer: capacity must be >= 1 event");
    capacity_ = events;
    ring_.clear();
    ring_.shrink_to_fit();
    head_ = 0;
    total_ = 0;
  }
  std::size_t capacity() const { return capacity_; }

  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Events ever pushed (retained + dropped).
  std::uint64_t total() const { return total_; }
  /// Oldest events overwritten because the ring was full.
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  /// Bytes held by the ring storage (stays at the configured bound).
  std::size_t memory_bytes() const { return ring_.capacity() * sizeof(TraceRecord); }

  void clear() {
    ring_.clear();
    head_ = 0;
    total_ = 0;
  }

  void push(const TraceRecord& r) {
    ++total_;
    if (ring_.size() < capacity_) {
      if (ring_.capacity() == 0) ring_.reserve(capacity_);
      ring_.push_back(r);
      return;
    }
    ring_[head_] = r;  // overwrite the oldest retained event
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }

  /// i-th retained event, 0 = oldest.
  const TraceRecord& operator[](std::size_t i) const {
    const std::size_t at = head_ + i;
    return ring_[at >= ring_.size() ? at - ring_.size() : at];
  }

  /// Newest record, if any (nullptr when empty). Mutable so an argument can
  /// be attached to a just-pushed enter event.
  TraceRecord* back() {
    if (ring_.empty()) return nullptr;
    return &ring_[head_ == 0 ? ring_.size() - 1 : head_ - 1];
  }

 private:
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::uint64_t total_ = 0;
};

}  // namespace tau
