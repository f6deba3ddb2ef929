#include "mpp/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>

#include "mpp/hooks.hpp"
#include "support/error.hpp"

namespace mpp {

namespace detail {

int BufferPool::acquire_class(std::size_t bytes) {
  for (std::size_t c = 0; c < kClasses; ++c)
    if (bytes <= (std::size_t{1} << (kMinClassLog2 + c))) return static_cast<int>(c);
  return -1;
}

int BufferPool::release_class(std::size_t capacity) {
  if (capacity < (std::size_t{1} << kMinClassLog2)) return -1;
  std::size_t c = 0;
  while (c + 1 < kClasses &&
         (std::size_t{1} << (kMinClassLog2 + c + 1)) <= capacity)
    ++c;
  return static_cast<int>(c);
}

std::vector<std::byte> BufferPool::acquire(std::size_t bytes) {
  const int cls = acquire_class(bytes);
  {
    std::scoped_lock lock(mu_);
    ++stats_.acquires;
    if (cls >= 0 && !free_[cls].empty()) {
      std::vector<std::byte> slab = std::move(free_[cls].back());
      free_[cls].pop_back();
      ++stats_.reuses;
      slab.resize(bytes);
      return slab;
    }
  }
  // Fresh slab, sized to its class so a future release files it back.
  std::vector<std::byte> slab;
  if (cls >= 0)
    slab.reserve(std::size_t{1} << (kMinClassLog2 + static_cast<std::size_t>(cls)));
  slab.resize(bytes);
  return slab;
}

void BufferPool::release(std::vector<std::byte>&& slab) {
  const int cls = release_class(slab.capacity());
  std::scoped_lock lock(mu_);
  ++stats_.releases;
  if (cls < 0 || free_[cls].size() >= kMaxFreePerClass) {
    ++stats_.discards;
    return;  // slab freed on scope exit
  }
  free_[cls].push_back(std::move(slab));
}

BufferPool::Stats BufferPool::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

bool DedupeWindow::insert(std::uint64_t seq) {
  if (contains(seq)) return false;
  const std::uint64_t off = seq - watermark_ - 1;
  CCAPERF_REQUIRE(off < kMaxWindowBits,
                  "DedupeWindow: out-of-order span exceeded the window cap");
  while (span() <= off) words_.push_back(0);
  {
    const std::uint64_t g = head_ + off;
    words_[static_cast<std::size_t>(g / 64)] |= std::uint64_t{1} << (g % 64);
  }
  // Slide the watermark over the contiguous accepted prefix, clearing each
  // consumed bit so a drained window releases its words; amortized O(1)
  // per insert.
  while (span() > 0 && ((words_.front() >> head_) & 1u)) {
    ++watermark_;
    words_.front() &= ~(std::uint64_t{1} << head_);
    if (++head_ == 64) {
      words_.pop_front();
      head_ = 0;
    }
  }
  // Trailing all-zero words carry no membership (every set bit is below
  // them), so span() stays an exact measure of the out-of-order extent.
  while (!words_.empty() && words_.back() == 0) words_.pop_back();
  if (words_.empty()) head_ = 0;
  peak_span_ = std::max(peak_span_, span());
  return true;
}

}  // namespace detail

Fabric::Fabric(int world_size, NetworkModel net)
    : world_size_(world_size), net_(net) {
  CCAPERF_REQUIRE(world_size >= 1, "Fabric: world_size must be >= 1");
  ccaperf::Rng seeder(net_.seed);
  rngs_.reserve(static_cast<std::size_t>(world_size));
  signals_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    rngs_.push_back(seeder.split(static_cast<std::uint64_t>(r)));
    signals_.push_back(std::make_unique<detail::RankSignal>());
  }
  pair_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(world_size) * static_cast<std::size_t>(world_size));
  stall_checks_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(world_size));
  ensure_context(world_context);
}

void Fabric::set_fault_spec(const FaultSpec& spec) {
  fault_plan_ = FaultPlan(spec);
}

void Fabric::ensure_context(std::uint64_t context) {
  std::scoped_lock lock(contexts_mu_);
  auto [it, inserted] = contexts_.try_emplace(context);
  if (!inserted) return;
  it->second.mailboxes.reserve(static_cast<std::size_t>(world_size_));
  it->second.hop_slots.reserve(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) {
    it->second.mailboxes.push_back(std::make_unique<detail::Mailbox>());
    it->second.hop_slots.push_back(std::make_unique<detail::HopSlot>());
  }
}

detail::Mailbox& Fabric::mailbox(std::uint64_t context, int rank) {
  std::scoped_lock lock(contexts_mu_);
  auto it = contexts_.find(context);
  CCAPERF_REQUIRE(it != contexts_.end(), "mailbox: unknown context");
  auto& boxes = it->second.mailboxes;
  CCAPERF_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < boxes.size(),
                  "mailbox: rank out of range");
  return *boxes[static_cast<std::size_t>(rank)];
}

void Fabric::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& sig : signals_) sig->notify();
  std::scoped_lock lock(contexts_mu_);
  for (auto& [id, state] : contexts_) {
    for (auto& slot : state.hop_slots) {
      std::scoped_lock slot_lock(slot->mu);
      slot->cv.notify_all();
    }
  }
}

const std::unique_ptr<detail::HopSlot>* Fabric::hop_slots(std::uint64_t context) {
  std::scoped_lock lock(contexts_mu_);
  auto it = contexts_.find(context);
  CCAPERF_REQUIRE(it != contexts_.end(), "hop_slots: unknown context");
  return it->second.hop_slots.data();
}

// ---------------------------------------------------------------------------
// Point-to-point delivery and the fault layer
// ---------------------------------------------------------------------------

namespace {

Clock::time_point stamp_delay(double delay_us) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::micro>(delay_us));
}

}  // namespace

void Fabric::fire_fault(const FaultEvent& e) {
  if (CommHooks* h = hooks()) h->on_fault(e);
}

void Fabric::maybe_stall(int world_rank) {
  const std::uint64_t check =
      stall_checks_[static_cast<std::size_t>(world_rank)].fetch_add(
          1, std::memory_order_relaxed);
  if (!fault_plan_.stall_at(world_rank, check)) return;
  injected_stalls_.fetch_add(1, std::memory_order_relaxed);
  fire_fault(FaultEvent{FaultEvent::Type::injected, FaultKind::stall, world_rank,
                        -1, 0, 0});
  const double us = fault_plan_.spec().stall_us;
  if (us > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

void Fabric::send(std::uint64_t context, int src, int dest, int tag,
                  const void* data, std::size_t bytes,
                  const std::shared_ptr<detail::ReqState>& sender) {
  const bool faulty = fault_plan_.active();
  if (faulty) {
    // Sends drive fault-layer progress too, so a pure send phase still
    // releases earlier held messages deterministically.
    fault_poll();
    maybe_stall(src);
  }
  const Clock::time_point deliver_at = stamp_delay(delay_us(src, bytes));
  sender->src_world = src;
  sender->dst_world = dest;
  sender->seq = next_pair_seq(src, dest);

  detail::ParkedMessage msg;
  msg.src = src;
  msg.tag = tag;
  msg.deliver_at = deliver_at;
  msg.src_world = src;
  msg.dst_world = dest;
  msg.seq = sender->seq;
  const bool ack_at_match = bytes >= kRendezvousBytes;
  if (ack_at_match) msg.ack = sender;
  const std::span<const std::byte> payload(static_cast<const std::byte*>(data),
                                           bytes);
  if (!faulty) {
    route(context, dest, std::move(msg), payload);
  } else {
    // Always a staged copy: the message may outlive this call in the hold
    // queue or retry ledger.
    if (bytes > 0) {
      msg.payload = pool_.acquire(bytes);
      std::memcpy(msg.payload.data(), data, bytes);
    }
    fault_send(context, dest, std::move(msg));
  }
  if (!ack_at_match) sender->matched.store(true, std::memory_order_release);
}

void Fabric::fault_send(std::uint64_t context, int dest,
                        detail::ParkedMessage&& msg) {
  // Dedupe stream position: contiguous per (context, source, destination
  // mailbox), unlike the global pair sequence, which interleaves every
  // context of the rank pair. The destination's DedupeWindow watermarks
  // this stream; duplicates and retries reuse the value assigned here.
  {
    detail::Mailbox& mb = mailbox(context, dest);
    std::scoped_lock lock(mb.mu);
    msg.dseq = ++mb.dedupe_next[msg.src_world];
  }
  const int src = msg.src_world;
  const std::uint64_t seq = msg.seq;
  const FaultDecision d = fault_plan_.decide(src, dest, seq, 1);
  switch (d.kind) {
    case FaultKind::none:
      route(context, dest, std::move(msg));
      break;
    case FaultKind::drop:
      injected_drops_.fetch_add(1, std::memory_order_relaxed);
      fire_fault(FaultEvent{FaultEvent::Type::injected, FaultKind::drop, src,
                            dest, seq, 0});
      fault_lose(context, dest, std::move(msg));
      break;
    case FaultKind::delay:
      injected_delays_.fetch_add(1, std::memory_order_relaxed);
      fire_fault(FaultEvent{FaultEvent::Type::injected, FaultKind::delay, src,
                            dest, seq,
                            static_cast<std::uint32_t>(d.delay_steps)});
      fault_hold(context, dest, std::move(msg), d.delay_steps, false);
      break;
    case FaultKind::duplicate: {
      injected_duplicates_.fetch_add(1, std::memory_order_relaxed);
      fire_fault(FaultEvent{FaultEvent::Type::injected, FaultKind::duplicate,
                            src, dest, seq, 0});
      detail::ParkedMessage clone;
      clone.src = msg.src;
      clone.tag = msg.tag;
      clone.deliver_at = msg.deliver_at;
      clone.src_world = msg.src_world;
      clone.dst_world = msg.dst_world;
      clone.seq = msg.seq;  // same identity: the dedupe filter's job
      clone.dseq = msg.dseq;
      if (!msg.payload.empty()) {
        clone.payload = pool_.acquire(msg.payload.size());
        std::memcpy(clone.payload.data(), msg.payload.data(), msg.payload.size());
      }
      route(context, dest, std::move(msg));
      fault_hold(context, dest, std::move(clone), 1, false);
      break;
    }
    case FaultKind::reorder:
      injected_reorders_.fetch_add(1, std::memory_order_relaxed);
      fire_fault(FaultEvent{FaultEvent::Type::injected, FaultKind::reorder,
                            src, dest, seq, 0});
      // Overtaken by the pair's next routed message, with a step-count
      // fallback so the last message of a pair is never stranded.
      fault_hold(context, dest, std::move(msg),
                 fault_plan_.spec().max_delay_steps + 2, true);
      break;
    case FaultKind::stall:
      break;  // decide() never returns stall; stalls come from maybe_stall()
  }
}

void Fabric::route(std::uint64_t context, int dest, detail::ParkedMessage&& msg,
                   std::span<const std::byte> borrowed) {
  const std::span<const std::byte> data =
      borrowed.empty() ? std::span<const std::byte>(msg.payload) : borrowed;
  std::shared_ptr<detail::ReqState> completed;
  std::shared_ptr<detail::ReqState> ack_sender;
  bool suppressed = false;
  const int msg_src_world = msg.src_world;
  const int msg_dst_world = msg.dst_world;
  detail::Mailbox& mb = mailbox(context, dest);
  {
    std::scoped_lock lock(mb.mu);
    // Dedupe before matching: the duplicate of an already-accepted message
    // (delivered *or* still parked — the window marks at accept time, so
    // one O(1) probe covers both) must never reach a receive.
    if (msg.dseq != 0) {
      detail::DedupeWindow& win = mb.dedupe[msg.src_world];
      suppressed = !win.insert(msg.dseq);
      if (!suppressed) {
        std::uint64_t peak = dedupe_span_peak_.load(std::memory_order_relaxed);
        while (peak < win.peak_span() &&
               !dedupe_span_peak_.compare_exchange_weak(
                   peak, win.peak_span(), std::memory_order_relaxed))
          ;
      }
    }
    if (!suppressed) {
      for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
        if (detail::matches(it->src, it->tag, msg.src, msg.tag)) {
          CCAPERF_REQUIRE(data.size() <= it->capacity,
                          "message truncation: receive buffer too small");
          if (!data.empty()) std::memcpy(it->buffer, data.data(), data.size());
          it->state->status = Status{msg.src, msg.tag, data.size()};
          it->state->deliver_at = msg.deliver_at;
          it->state->src_world = msg.src_world;
          it->state->dst_world = msg.dst_world;
          it->state->seq = msg.seq;
          completed = it->state;
          mb.posted.erase(it);
          break;
        }
      }
      if (completed) {
        ack_sender = std::move(msg.ack);
        if (ack_sender) ack_sender->deliver_at = msg.deliver_at;
      } else {
        if (!borrowed.empty()) {
          msg.payload = pool_.acquire(borrowed.size());
          std::memcpy(msg.payload.data(), borrowed.data(), borrowed.size());
        }
        if (msg.ack) {
          // Parks with its sender attached so the eventual match
          // acknowledges (completes) the send, and so a dropped Request
          // handle can still cancel the parked entry.
          msg.park_id = mb.next_post_id++;
          msg.ack->mailbox = &mb;
          msg.ack->post_id = msg.park_id;
        }
        mb.unexpected.push_back(std::move(msg));
      }
    }
  }
  if (suppressed) {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
    fire_fault(FaultEvent{FaultEvent::Type::duplicate_suppressed,
                          FaultKind::duplicate, msg.src_world, msg.dst_world,
                          msg.seq, 0});
    if (!msg.payload.empty()) pool_.release(std::move(msg.payload));
    return;
  }
  note_activity();
  if (completed) {
    if (!msg.payload.empty()) pool_.release(std::move(msg.payload));
    completed->matched.store(true, std::memory_order_release);
    signal(dest).notify();
    if (ack_sender) {
      ack_sender->matched.store(true, std::memory_order_release);
      ack_sender->signal->notify();
    }
  }
  // Routing (matched *or* parked) is the "next message of the pair" trigger
  // that releases reorder-held predecessors. A park wakes nobody: no posted
  // receive can match the message it just missed under the mailbox lock.
  flush_reorder(msg_src_world, msg_dst_world);
}

void Fabric::flush_reorder(int src_world, int dst_world) {
  if (!fault_plan_.active()) return;
  for (;;) {
    detail::FaultedMessage next;
    bool found = false;
    {
      std::scoped_lock lock(fault_mu_);
      auto pit = fault_reorder_.find({src_world, dst_world});
      if (pit != fault_reorder_.end()) {
        while (!pit->second.empty() && !found) {
          const std::uint64_t id = pit->second.front();
          pit->second.pop_front();
          auto it = fault_items_.find(id);
          // A missing id was already released by the step fallback in
          // fault_poll; its index entry is stale, skip it.
          if (it == fault_items_.end()) continue;
          next = std::move(it->second);
          fault_items_.erase(it);
          found = true;  // its fault_due_ entry goes stale the same way
        }
        if (pit->second.empty()) fault_reorder_.erase(pit);
      }
    }
    if (!found) return;
    route(next.context, next.dest, std::move(next.msg));
  }
}

void Fabric::fault_enqueue(detail::FaultedMessage&& fm) {
  std::scoped_lock lock(fault_mu_);
  const std::uint64_t id = next_fault_id_++;
  fault_due_.emplace(fm.release_step, id);
  if (fm.release_on_next)
    fault_reorder_[{fm.msg.src_world, fm.msg.dst_world}].push_back(id);
  fault_items_.emplace(id, std::move(fm));
  fault_items_peak_ =
      std::max(fault_items_peak_, static_cast<std::uint64_t>(fault_items_.size()));
}

void Fabric::fault_hold(std::uint64_t context, int dest,
                        detail::ParkedMessage&& msg, int steps,
                        bool release_on_next) {
  detail::FaultedMessage h;
  h.context = context;
  h.dest = dest;
  h.release_step = progress_step_.load(std::memory_order_acquire) +
                   static_cast<std::uint64_t>(steps);
  h.release_on_next = release_on_next;
  h.msg = std::move(msg);
  fault_enqueue(std::move(h));
}

void Fabric::fault_lose(std::uint64_t context, int dest,
                        detail::ParkedMessage&& msg) {
  detail::FaultedMessage l;
  l.context = context;
  l.dest = dest;
  l.attempt = 1;
  l.release_step = progress_step_.load(std::memory_order_acquire) +
                   static_cast<std::uint64_t>(fault_plan_.spec().retry_base_steps);
  l.msg = std::move(msg);
  fault_enqueue(std::move(l));
}

void Fabric::dedupe_tombstone(std::uint64_t context, int dest,
                              int src_world, std::uint64_t dseq) {
  if (dseq == 0) return;
  detail::Mailbox& mb = mailbox(context, dest);
  std::scoped_lock lock(mb.mu);
  mb.dedupe[src_world].insert(dseq);
}

void Fabric::fault_poll() {
  if (!fault_plan_.active()) return;
  const std::uint64_t step = progress_step_.fetch_add(1, std::memory_order_acq_rel) + 1;

  std::vector<detail::FaultedMessage> due;
  std::vector<FaultEvent> events;
  std::vector<std::shared_ptr<detail::ReqState>> failed_senders;
  struct Tombstone {
    std::uint64_t context;
    int dest;
    int src_world;
    std::uint64_t dseq;
  };
  std::vector<Tombstone> tombstones;
  {
    std::scoped_lock lock(fault_mu_);
    const FaultSpec& spec = fault_plan_.spec();
    // Pop exactly the due prefix of the step index; cost is O(due), not
    // O(in-flight history). Ids released earlier through flush_reorder are
    // gone from the store and their index entries skip harmlessly.
    while (!fault_due_.empty() && fault_due_.begin()->first <= step) {
      const std::uint64_t id = fault_due_.begin()->second;
      fault_due_.erase(fault_due_.begin());
      auto it = fault_items_.find(id);
      if (it == fault_items_.end()) continue;
      detail::FaultedMessage& fm = it->second;
      if (fm.attempt == 0) {
        // Held (delay/duplicate/reorder): release now. For reorder entries
        // this step threshold is the fallback when no later pair message
        // ever routes; drop the pair-index entry it leaves behind.
        if (fm.release_on_next) {
          auto pit =
              fault_reorder_.find({fm.msg.src_world, fm.msg.dst_world});
          if (pit != fault_reorder_.end()) {
            auto& ids = pit->second;
            for (auto idit = ids.begin(); idit != ids.end(); ++idit) {
              if (*idit == id) {
                ids.erase(idit);
                break;
              }
            }
            if (ids.empty()) fault_reorder_.erase(pit);
          }
        }
        due.push_back(std::move(fm));
        fault_items_.erase(it);
        continue;
      }
      const std::uint32_t attempt = fm.attempt + 1;
      if (attempt > static_cast<std::uint32_t>(spec.retry_max_attempts)) {
        events.push_back(FaultEvent{FaultEvent::Type::retry_exhausted,
                                    FaultKind::drop, fm.msg.src_world,
                                    fm.msg.dst_world, fm.msg.seq, fm.attempt});
        if (fm.msg.ack) failed_senders.push_back(std::move(fm.msg.ack));
        // The message is permanently lost: tombstone its dedupe-stream
        // position so the destination's watermark can advance over it
        // instead of pinning the window open forever.
        tombstones.push_back(Tombstone{fm.context, fm.dest,
                                       fm.msg.src_world, fm.msg.dseq});
        fault_items_.erase(it);
        continue;
      }
      fm.attempt = attempt;
      events.push_back(FaultEvent{FaultEvent::Type::retry, FaultKind::drop,
                                  fm.msg.src_world, fm.msg.dst_world,
                                  fm.msg.seq, attempt});
      const FaultDecision redecide = fault_plan_.decide(
          fm.msg.src_world, fm.msg.dst_world, fm.msg.seq, attempt);
      if (redecide.kind == FaultKind::drop) {
        // Lost again: exponential backoff before the next attempt.
        fm.release_step =
            step + (static_cast<std::uint64_t>(spec.retry_base_steps)
                    << (attempt - 1));
        fault_due_.emplace(fm.release_step, id);
      } else {
        due.push_back(std::move(fm));
        fault_items_.erase(it);
      }
    }
  }
  // Deterministic release order: triggers were compared against the same
  // step, so order by message identity alone.
  std::sort(due.begin(), due.end(),
            [](const detail::FaultedMessage& a, const detail::FaultedMessage& b) {
              if (a.msg.src_world != b.msg.src_world)
                return a.msg.src_world < b.msg.src_world;
              if (a.msg.dst_world != b.msg.dst_world)
                return a.msg.dst_world < b.msg.dst_world;
              return a.msg.seq < b.msg.seq;
            });
  for (const FaultEvent& e : events) {
    if (e.type == FaultEvent::Type::retry)
      retries_.fetch_add(1, std::memory_order_relaxed);
    else
      retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
    fire_fault(e);
  }
  for (auto& sender : failed_senders) {
    sender->failed.store(1 + static_cast<std::uint8_t>(CommErrc::retry_exhausted),
                         std::memory_order_release);
    sender->signal->notify();
  }
  for (const Tombstone& t : tombstones)
    dedupe_tombstone(t.context, t.dest, t.src_world, t.dseq);
  for (auto& m : due)
    route(m.context, m.dest, std::move(m.msg));
}

FaultStats Fabric::fault_stats() {
  FaultStats s;
  {
    std::scoped_lock lock(fault_mu_);
    s.fault_items_peak = fault_items_peak_;
  }
  s.dedupe_span_peak = dedupe_span_peak_.load(std::memory_order_relaxed);
  // Smallest watermark among sources that delivered anything: walking the
  // mailboxes is fine here, fault_stats is a report-time call.
  std::uint64_t wm_min = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  {
    std::scoped_lock lock(contexts_mu_);
    for (auto& [id, state] : contexts_) {
      for (auto& mb : state.mailboxes) {
        std::scoped_lock mb_lock(mb->mu);
        for (const auto& [src, win] : mb->dedupe) {
          any = true;
          wm_min = std::min(wm_min, win.watermark());
        }
      }
    }
  }
  s.dedupe_watermark_min = any ? wm_min : 0;
  s.injected_drops = injected_drops_.load(std::memory_order_relaxed);
  s.injected_delays = injected_delays_.load(std::memory_order_relaxed);
  s.injected_duplicates = injected_duplicates_.load(std::memory_order_relaxed);
  s.injected_reorders = injected_reorders_.load(std::memory_order_relaxed);
  s.injected_stalls = injected_stalls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retries_exhausted = retries_exhausted_.load(std::memory_order_relaxed);
  s.duplicates_suppressed = duplicates_suppressed_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.stale_fallbacks = stale_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mpp
